"""Event calendar and process coroutines.

Usage sketch::

    engine = Engine()

    def worker(engine):
        yield engine.timeout(1.5)          # sleep
        done.succeed(value="result")       # trigger an event

    done = engine.event()
    engine.process(worker(engine))
    engine.run()

Processes are generators that yield :class:`Event` objects (a timeout is
just a pre-scheduled event).  A process is itself an event that triggers
when the generator returns, carrying the generator's return value, so
processes can wait on each other.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Generator
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["Engine", "Event", "Process"]


class Event:
    """A one-shot occurrence processes can wait on.

    Lifecycle: *pending* -> ``succeed``/``fail`` -> callbacks run at the
    current simulation time.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool | None = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled for processing."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid once triggered)."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """Payload passed to :meth:`succeed` (or the failure exception)."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.engine._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive the exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.engine._enqueue(self)
        return self


class Process(Event):
    """A running generator coroutine; also an event that fires when the
    generator finishes (value = generator return value)."""

    __slots__ = ("_generator",)

    def __init__(self, engine: "Engine",
                 generator: Generator[Event, Any, Any]) -> None:
        super().__init__(engine)
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        self._generator = generator
        # Kick off at the current time.
        bootstrap = Event(engine)
        bootstrap.callbacks.append(self._resume)
        bootstrap._triggered = True
        bootstrap._ok = True
        engine._enqueue(bootstrap)

    @property
    def is_alive(self) -> bool:
        """Whether the coroutine has not finished yet."""
        return not self._triggered

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step_send(event._value)
        else:
            self._step_throw(event._value)

    def _step_send(self, value: Any) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield events "
                "(use engine.timeout(delay) to sleep)")
        if target.processed:
            # Already fired: resume immediately (at the current time).
            kick = Event(self.engine)
            kick.callbacks.append(lambda _ev: self._resume(target))
            kick._triggered = True
            kick._ok = True
            self.engine._enqueue(kick)
        else:
            target.callbacks.append(self._resume)


class Engine:
    """The event calendar: a time-ordered heap of triggered events."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        #: Calendar entries processed so far -- the kernel's unit of
        #: work.  A plain int (bumped once per :meth:`step`) so the
        #: count is free; observability layers read it into a gauge at
        #: report time instead of instrumenting the hot loop.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        event = Event(self)
        event._triggered = True
        event._ok = True
        event._value = value
        self._push(self._now + delay, event)
        return event

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a process coroutine now."""
        return Process(self, generator)

    def at(self, when: float, callback: Callable[[], None],
           value: Any = None) -> Event:
        """Schedule ``callback`` to run at absolute time ``when``.

        The hook an external controller (e.g. a fault injector) uses to
        mutate model state at an exact simulation instant, deterministically
        ordered against process events by the calendar's (time, sequence)
        key.  Times already in the past run at the current time.  Returns
        the underlying event so processes may also wait on it.
        """
        if math.isnan(when):
            raise SimulationError(f"at() time must be a number, got {when!r}")
        event = Event(self)
        event._triggered = True
        event._ok = True
        event._value = value
        event.callbacks.append(lambda _event: callback())
        self._push(max(float(when), self._now), event)
        return event

    # ------------------------------------------------------------------
    # scheduling internals
    # ------------------------------------------------------------------
    def _push(self, when: float, event: Event) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}")
        heapq.heappush(self._heap, (when, self._sequence, event))
        self._sequence += 1

    def _enqueue(self, event: Event) -> None:
        """Schedule a just-triggered event for processing *now*."""
        self._push(self._now, event)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("event calendar is empty")
        when, _seq, event = heapq.heappop(self._heap)
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif event._ok is False:
            # A failed event nobody waited on: surface the error rather
            # than losing it silently.
            raise event._value

    def run(self, until: float | Event | None = None) -> float:
        """Run until the calendar drains, a time is reached, or an event
        fires.  Returns the simulation time at stop."""
        if isinstance(until, Event):
            sentinel = until
            while not sentinel.processed:
                if not self._heap:
                    raise SimulationError(
                        "calendar drained before the awaited event fired")
                self.step()
            return self._now
        if until is not None:
            if until < self._now:
                raise SimulationError(
                    f"cannot run until {until} < now={self._now}")
            while self._heap and self._heap[0][0] <= until:
                self.step()
            self._now = float(until)
            return self._now
        while self._heap:
            self.step()
        return self._now

    def __repr__(self) -> str:
        return f"Engine(now={self._now:.6g}, pending={len(self._heap)})"
