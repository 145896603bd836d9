"""Item store for the simulation kernel: the FIFO hand-off queue that
carries each round's batch to a disk's scheduler process
(:mod:`repro.server.scheduler`)."""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Engine, Event

__all__ = ["Store"]


class Store:
    """An unbounded FIFO hand-off queue of items between processes."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    @property
    def size(self) -> int:
        """Items currently buffered."""
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the longest-waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next available item."""
        event = self.engine.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __repr__(self) -> str:
        return f"Store(size={len(self._items)}, waiting={len(self._getters)})"
