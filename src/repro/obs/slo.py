"""The paper's ε as an operational error budget with burn-rate alerts.

The guarantee ``p_error <= epsilon`` (eq. 3.3.6) is statistical: over a
stream's ``m`` rounds, more than ``g`` glitches happen with probability
at most ε.  That maps exactly onto the SRE error-budget model -- the
admission solver chooses ``N_max`` so the per-slot glitch probability
stays below the rate ``b`` with ``P[Binomial(m, b) > g] = epsilon``,
so ``b`` *is* the sustainable per-slot budget: a daemon glitching
slots faster than ``b`` is spending ε faster than the proof allows.
:func:`slot_glitch_budget` recovers ``b`` from ``(m, g, epsilon)`` by
inverting the same exact binomial tail the solver bounds.

:class:`SLOTracker` consumes one observation per probed round (glitched
slots out of served slots, from the daemon's
:class:`~repro.control.window.TelemetryWindow` probe) and keeps the
classic multi-window burn rates, with windows measured in *rounds*
because rounds are the paper's unit of time:

- ``burn = glitched / (slots * budget)`` over a window: 1.0 means the
  budget is being consumed exactly as fast as ε allows; 2.0 means the
  budget for the window was spent twice over;
- the **fast window** (default 32 rounds) catches storms: burn at or
  above ``PAGE_BURN`` (6.0) there means the guarantee is being torn
  through right now -> state ``page``;
- the **slow window** (default 256 rounds) catches leaks: burn at or
  above ``WARN_BURN`` (1.0, the sustainability threshold) means the
  budget will not last the stream -> state ``warn``.

Rounds probed while a disk is failed are charged against the
``degraded_budget`` (the δ round-lateness tolerance of the
failure-proof operating point) instead of the healthy ``b`` -- the
paper's degraded-mode bound is the promise actually in force then.

The tracker is thread-safe (observe on the tick thread, summaries from
HTTP workers), snapshot-friendly (:meth:`to_dict`/:meth:`from_dict`
round-trip exactly), and exports through any
:class:`~repro.obs.metrics.MetricsRegistry` via :meth:`publish`.
:func:`slo_report_from_records` replays a recorded JSONL trace
(``round_observe`` records from ``repro serve --trace``, or per-round
``sweep`` aggregates from ``repro simulate --trace``) through a fresh
tracker -- the offline ``repro slo`` report.
"""

from __future__ import annotations

import math
import threading
from collections import deque

from repro.distributions import binomial_tail
from repro.errors import ConfigurationError

__all__ = ["slot_glitch_budget", "SLOTracker", "slo_report_from_records"]

#: State ladder, worst last; gauges export the index.
STATES = ("ok", "warn", "page")

DEFAULT_FAST_WINDOW = 32
DEFAULT_SLOW_WINDOW = 256
#: Fast-window burn that pages: the budget is being spent this many
#: times faster than sustainable.
PAGE_BURN = 6.0
#: Slow-window burn that warns; 1.0 = exactly unsustainable.
WARN_BURN = 1.0


def slot_glitch_budget(m: int, g: int, epsilon: float) -> float:
    """The per-slot glitch rate ``b`` with
    ``P[Binomial(m, b) >= g+1] = epsilon`` -- the budget implied by the
    stream shape.  Solved by bisection on the exact tail (monotone in
    ``b``); the returned rate errs on the tight side, so spending at
    exactly the budget never exceeds ε.
    """
    if not isinstance(m, int) or m < 1:
        raise ConfigurationError(f"m must be a positive int, got {m!r}")
    if not isinstance(g, int) or not (0 <= g < m):
        raise ConfigurationError(f"g must be in [0, m), got {g!r}")
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(
            f"epsilon must be in (0, 1), got {epsilon!r}")
    # binomial_tail is P[X >= g]; "more than g glitches" is >= g+1.
    if binomial_tail(m, 1.0, g + 1) <= epsilon:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binomial_tail(m, mid, g + 1) <= epsilon:
            lo = mid
        else:
            hi = mid
    return lo


class SLOTracker:
    """Multi-window burn-rate tracking over per-round glitch counts."""

    def __init__(self, budget: float, *,
                 degraded_budget: float | None = None,
                 fast_window: int = DEFAULT_FAST_WINDOW,
                 slow_window: int = DEFAULT_SLOW_WINDOW) -> None:
        if not (0.0 < budget <= 1.0):
            raise ConfigurationError(
                f"budget must be in (0, 1], got {budget!r}")
        if degraded_budget is not None and not (0.0 < degraded_budget
                                                <= 1.0):
            raise ConfigurationError(
                f"degraded_budget must be in (0, 1], "
                f"got {degraded_budget!r}")
        if fast_window < 1 or slow_window < fast_window:
            raise ConfigurationError(
                f"need 1 <= fast_window <= slow_window, got "
                f"{fast_window!r}/{slow_window!r}")
        self.budget = float(budget)
        self.degraded_budget = (float(degraded_budget)
                                if degraded_budget is not None
                                else float(budget))
        self.fast_window = int(fast_window)
        self.slow_window = int(slow_window)
        #: (bad, total, allowed) per observed round, newest last.
        self._entries: deque = deque(maxlen=self.slow_window)
        self._lock = threading.Lock()
        self.state = "ok"
        self.rounds = 0
        self.total_slots = 0
        self.bad_slots = 0
        self.allowed_budget = 0.0
        self.degraded_rounds = 0
        self.pages = 0
        self.warnings = 0
        self.first_warn_round: int | None = None
        self.first_page_round: int | None = None
        self.last_round: int | None = None

    # -- feeding -------------------------------------------------------
    def observe(self, bad: int, total: int, *, degraded: bool = False,
                round_index: int | None = None) -> str:
        """Fold one probed round in; returns the (possibly new) state.

        ``bad``/``total`` are glitched and served stream slots this
        round; ``degraded`` charges the round against the degraded-mode
        budget instead of the healthy one.
        """
        bad = int(bad)
        total = int(total)
        if bad < 0 or total < 0 or bad > max(total, 0):
            raise ConfigurationError(
                f"need 0 <= bad <= total, got {bad!r}/{total!r}")
        budget = self.degraded_budget if degraded else self.budget
        with self._lock:
            self._entries.append((bad, total, total * budget))
            self.rounds += 1
            self.total_slots += total
            self.bad_slots += bad
            self.allowed_budget += total * budget
            if degraded:
                self.degraded_rounds += 1
            if round_index is not None:
                self.last_round = int(round_index)
            fast = self._burn_locked(self.fast_window)
            slow = self._burn_locked(self.slow_window)
            if fast >= PAGE_BURN:
                state = "page"
            elif slow >= WARN_BURN:
                state = "warn"
            else:
                state = "ok"
            previous = self.state
            if state == "page" and previous != "page":
                self.pages += 1
                if self.first_page_round is None:
                    self.first_page_round = self.last_round
            elif state == "warn" and previous == "ok":
                self.warnings += 1
            if state == "warn" and self.first_warn_round is None:
                self.first_warn_round = self.last_round
            self.state = state
            return state

    # -- burn rates ----------------------------------------------------
    def _burn_locked(self, window: int) -> float:
        entries = list(self._entries)[-int(window):]
        bad = sum(entry[0] for entry in entries)
        allowed = sum(entry[2] for entry in entries)
        if allowed <= 0.0:
            return math.inf if bad > 0 else 0.0
        return bad / allowed

    def burn_rate(self, window: int) -> float:
        """Budget-consumption speed over the trailing ``window``
        rounds; 1.0 is exactly sustainable."""
        if window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {window!r}")
        with self._lock:
            return self._burn_locked(window)

    @property
    def fast_burn(self) -> float:
        return self.burn_rate(self.fast_window)

    @property
    def slow_burn(self) -> float:
        return self.burn_rate(self.slow_window)

    # -- cumulative budget accounting ----------------------------------
    def budget_spent_fraction(self) -> float:
        """Lifetime glitches over lifetime allowance (1.0 = the whole
        run's budget is gone)."""
        with self._lock:
            if self.allowed_budget <= 0.0:
                return math.inf if self.bad_slots else 0.0
            return self.bad_slots / self.allowed_budget

    def budget_remaining_fraction(self) -> float:
        """What is left of the lifetime budget (0.0 = spent dry)."""
        return max(0.0, 1.0 - self.budget_spent_fraction())

    # -- views ---------------------------------------------------------
    def summary(self) -> dict:
        """JSON view (``GET /slo`` and the CLI report)."""
        with self._lock:
            fast = self._burn_locked(self.fast_window)
            slow = self._burn_locked(self.slow_window)
            spent = (self.bad_slots / self.allowed_budget
                     if self.allowed_budget > 0.0
                     else (math.inf if self.bad_slots else 0.0))
            return {
                "state": self.state,
                "budget_per_slot": self.budget,
                "degraded_budget_per_slot": self.degraded_budget,
                "fast_window_rounds": self.fast_window,
                "slow_window_rounds": self.slow_window,
                "page_burn": PAGE_BURN,
                "warn_burn": WARN_BURN,
                "fast_burn": fast if math.isfinite(fast) else None,
                "slow_burn": slow if math.isfinite(slow) else None,
                "rounds": self.rounds,
                "degraded_rounds": self.degraded_rounds,
                "slots": self.total_slots,
                "glitched_slots": self.bad_slots,
                "budget_spent": (spent if math.isfinite(spent)
                                 else None),
                "budget_remaining": (max(0.0, 1.0 - spent)
                                     if math.isfinite(spent) else 0.0),
                "pages": self.pages,
                "warnings": self.warnings,
                "first_warn_round": self.first_warn_round,
                "first_page_round": self.first_page_round,
                "last_round": self.last_round,
            }

    def publish(self, registry) -> None:
        """Mirror the tracker into Prometheus metrics (idempotent, the
        ``publish_cache_metrics`` pattern -- safe on every scrape)."""
        with self._lock:
            fast = self._burn_locked(self.fast_window)
            slow = self._burn_locked(self.slow_window)
            state_index = STATES.index(self.state)
            pages = self.pages
            warnings = self.warnings
            rounds = self.rounds
            spent = (self.bad_slots / self.allowed_budget
                     if self.allowed_budget > 0.0 else 0.0)
        registry.gauge(
            "slo_burn_rate_fast",
            help="Error-budget burn rate over the fast window "
            "(1 = exactly sustainable)").set(
                fast if math.isfinite(fast) else -1.0)
        registry.gauge(
            "slo_burn_rate_slow",
            help="Error-budget burn rate over the slow window"
            ).set(slow if math.isfinite(slow) else -1.0)
        registry.gauge(
            "slo_state",
            help="Burn-rate alert state (0 ok, 1 warn, 2 page)"
            ).set(state_index)
        registry.gauge(
            "slo_budget_per_slot",
            help="Per-slot glitch budget implied by (m, g, epsilon)"
            ).set(self.budget)
        registry.gauge(
            "slo_budget_remaining",
            help="Fraction of the lifetime error budget left"
            ).set(max(0.0, 1.0 - spent))
        registry.gauge(
            "slo_rounds_observed",
            help="Rounds folded into the SLO tracker").set(rounds)
        page_counter = registry.counter(
            "slo_pages_total",
            help="Transitions into the page state")
        page_counter.inc(max(0.0, pages - page_counter.value))
        warn_counter = registry.counter(
            "slo_warnings_total",
            help="Transitions from ok into the warn state")
        warn_counter.inc(max(0.0, warnings - warn_counter.value))

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> dict:
        """Snapshot payload; :meth:`from_dict` round-trips exactly."""
        with self._lock:
            return {
                "budget": self.budget,
                "degraded_budget": self.degraded_budget,
                "fast_window": self.fast_window,
                "slow_window": self.slow_window,
                "entries": [list(entry) for entry in self._entries],
                "state": self.state,
                "rounds": self.rounds,
                "total_slots": self.total_slots,
                "bad_slots": self.bad_slots,
                "allowed_budget": self.allowed_budget,
                "degraded_rounds": self.degraded_rounds,
                "pages": self.pages,
                "warnings": self.warnings,
                "first_warn_round": self.first_warn_round,
                "first_page_round": self.first_page_round,
                "last_round": self.last_round,
            }

    @classmethod
    def from_dict(cls, data: dict) -> "SLOTracker":
        """Inverse of :meth:`to_dict`.  Older snapshots also store
        ``page_burn``/``warn_burn``; they are ignored, because the
        thresholds are the module constants."""
        tracker = cls(
            float(data["budget"]),
            degraded_budget=float(data.get("degraded_budget",
                                           data["budget"])),
            fast_window=int(data.get("fast_window",
                                     DEFAULT_FAST_WINDOW)),
            slow_window=int(data.get("slow_window",
                                     DEFAULT_SLOW_WINDOW)))
        state = str(data.get("state", "ok"))
        if state not in STATES:
            raise ConfigurationError(
                f"snapshot has unknown SLO state {state!r}")
        for entry in data.get("entries", ()):
            bad, total, allowed = entry
            tracker._entries.append(
                (int(bad), int(total), float(allowed)))
        tracker.state = state
        tracker.rounds = int(data.get("rounds", 0))
        tracker.total_slots = int(data.get("total_slots", 0))
        tracker.bad_slots = int(data.get("bad_slots", 0))
        tracker.allowed_budget = float(data.get("allowed_budget", 0.0))
        tracker.degraded_rounds = int(data.get("degraded_rounds", 0))
        tracker.pages = int(data.get("pages", 0))
        tracker.warnings = int(data.get("warnings", 0))
        for key in ("first_warn_round", "first_page_round",
                    "last_round"):
            value = data.get(key)
            setattr(tracker, key,
                    int(value) if value is not None else None)
        return tracker

    def __repr__(self) -> str:
        return (f"SLOTracker(state={self.state!r}, "
                f"rounds={self.rounds}, "
                f"budget={self.budget:.4g})")


# ----------------------------------------------------------------------
# Offline replay (``repro slo TRACE.jsonl``)
# ----------------------------------------------------------------------

def _rounds_from_records(records) -> list[tuple[int, int, int, bool]]:
    """Per-round ``(round, bad, total, degraded)`` aggregates from a
    trace: ``round_observe`` records (daemon traces) take precedence;
    otherwise ``sweep`` records are summed per round with the degraded
    flag from ``round_dispatch``'s failed-disk list."""
    observed: dict[int, tuple[int, int, bool]] = {}
    swept: dict[int, tuple[int, int]] = {}
    degraded_rounds: set[int] = set()
    for record in records:
        kind = record.get("kind")
        if kind == "round_observe":
            index = int(record["round"])
            observed[index] = (int(record["glitched"]),
                               int(record["requests"]),
                               bool(record["degraded"]))
        elif kind == "sweep":
            index = int(record["round"])
            bad, total = swept.get(index, (0, 0))
            swept[index] = (bad + int(record.get("glitched", 0)),
                            total + int(record.get("served", 0)))
        elif kind == "round_dispatch":
            if record.get("failed_disks"):
                degraded_rounds.add(int(record["round"]))
    if observed:
        return [(index, bad, total, degraded)
                for index, (bad, total, degraded)
                in sorted(observed.items())]
    return [(index, bad, total, index in degraded_rounds)
            for index, (bad, total) in sorted(swept.items())]


def slo_report_from_records(
        records, *, epsilon: float | None = None,
        delta: float | None = None, m: int | None = None,
        g: int | None = None,
        fast_window: int = DEFAULT_FAST_WINDOW,
        slow_window: int = DEFAULT_SLOW_WINDOW) -> dict:
    """Replay a recorded trace through a fresh :class:`SLOTracker`.

    Stream-shape parameters fall back to whatever the ``run_start``
    header stamped, then to the paper's defaults -- explicit arguments
    always win.  Returns the report dict the ``repro slo`` command
    renders: totals, worst burns, alert transitions, and the detection
    round of the first page/warn.
    """
    header: dict = {}
    for record in records:
        if record.get("kind") == "run_start":
            header = record
            break

    def resolve(value, key, default):
        if value is not None:
            return value
        stamped = header.get(key)
        return stamped if stamped is not None else default

    epsilon = float(resolve(epsilon, "epsilon", 0.01))
    delta = float(resolve(delta, "delta", 0.01))
    m = int(resolve(m, "m", 1200))
    g = int(resolve(g, "g", 12))
    budget = slot_glitch_budget(m, g, epsilon)
    tracker = SLOTracker(budget, degraded_budget=delta,
                         fast_window=fast_window,
                         slow_window=slow_window)
    rounds = _rounds_from_records(records)
    transitions: list[dict] = []
    max_fast = 0.0
    max_fast_round: int | None = None
    previous = tracker.state
    for index, bad, total, degraded in rounds:
        state = tracker.observe(bad, total, degraded=degraded,
                                round_index=index)
        fast = tracker.fast_burn
        if math.isfinite(fast) and fast > max_fast:
            max_fast, max_fast_round = fast, index
        if state != previous:
            transitions.append({
                "round": index, "from": previous, "to": state,
                "fast_burn": fast if math.isfinite(fast) else None,
                "slow_burn": (tracker.slow_burn
                              if math.isfinite(tracker.slow_burn)
                              else None)})
            previous = state
    report = tracker.summary()
    report.update({
        "epsilon": epsilon,
        "delta": delta,
        "m": m,
        "g": g,
        "observed_rounds": len(rounds),
        "max_fast_burn": max_fast,
        "max_fast_burn_round": max_fast_round,
        "transitions": transitions,
    })
    return report
