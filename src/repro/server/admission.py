"""Run-time admission control (§2.3, §5).

The controller enforces a per-disk stream limit ``n_max`` computed by the
analytic model (:mod:`repro.core.admission`): a new stream is admitted
only if, after admission, no disk would serve more than ``n_max``
requests in any round.  With stride-1 round-robin striping, a farm of
``d`` disks serves ``ceil(active / d)`` requests per disk per round in
the worst case, so the admission test is ``ceil((active + 1)/d) <=
n_max`` -- which, for integer counters, is exactly ``active < n_max *
d``.  Both controllers below hoist that product into a precomputed
integer threshold (``active_limit``), recomputed only when the limit
retargets (``degrade``/``restore``/``resize``), so the per-admit test
is a single integer compare with no float division.

Lookup tables with precomputed ``n_max`` per tolerance threshold (the §5
scheme) plug in through :meth:`AdmissionController.from_table`.

Two implementations share that contract:

- :class:`AdmissionController` -- the original single-lock counter.
  Every transition takes one re-entrant lock; simple, exact, and the
  reference the sharded controller is cross-validated against.
- :class:`ShardedAdmissionController` -- the batch-granting counter
  behind ``repro serve``.  The counter is striped over S shards
  (default 1), each with its own lock and a local ``limit`` (its slice
  of the global capacity), so concurrent admits on different shards
  never touch the same lock.  A batch admit takes *one* shard lock for
  k tickets.  When a shard's slice is exhausted but global capacity
  remains, a slow-path rebalance (all shard locks, fixed order) steals
  slack from other shards -- no false rejects.  Global events
  (``degrade``/``restore``/shed/resume/snapshot) run under
  :meth:`ShardedAdmissionController.quiesced`, which takes every shard
  lock in index order; each retarget bumps an observable ``epoch``.
  The daemon runs one stripe: no serve workload measured a gain from
  more (``docs/PERFORMANCE.md``); bench A27 measures S > 1 in-process.

The sharded invariant: ``sum(shard.limit) == capacity + debt`` with
``shard.active <= shard.limit`` at all times.  ``debt`` is the
overshoot recorded when a retarget lowers capacity below the live
count (the shedding policy, not this counter, decides who goes);
releases pay debt down by shrinking limits instead of freeing slots,
so no phantom slack can ever re-admit past the analytic guarantee.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

from repro.core.admission import AdmissionTable
from repro.errors import AdmissionError, ConfigurationError
from repro.obs.spans import emit_span, start_span
from repro.obs.trace import NULL_TRACER

__all__ = ["AdmissionController", "ShardedAdmissionController"]


class AdmissionController:
    """Counting admission controller with a per-disk stream limit."""

    def __init__(self, n_max_per_disk: int, disks: int = 1) -> None:
        if n_max_per_disk < 0:
            raise ConfigurationError(
                f"n_max_per_disk must be >= 0, got {n_max_per_disk!r}")
        if disks < 1:
            raise ConfigurationError(f"disks must be >= 1, got {disks!r}")
        self.n_max_per_disk = int(n_max_per_disk)
        self.disks = int(disks)
        self._active = 0
        self._healthy_n_max = self.n_max_per_disk
        self._degraded = False
        #: Precomputed integer admission threshold: ``active <
        #: _active_limit`` is the whole test.  Recomputed only on
        #: degrade/restore/resize, never per request.
        self._active_limit = self.n_max_per_disk * self.disks
        # Re-entrant: admit() calls would_admit() under the lock, and
        # instrumented subclasses/tests may do the same.
        self._lock = threading.RLock()
        #: Total admission requests seen.
        self.requests = 0
        #: Requests turned away.
        self.rejections = 0
        #: Span sink for the admission test; the serve daemon points
        #: this at its tracer so every live admit records an
        #: ``admission.admit`` span.  Disabled tracers cost one branch.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: AdmissionTable, *, epsilon: float,
                   disks: int = 1) -> "AdmissionController":
        """Build a controller from a §5 lookup table, keyed by the
        stream-level tolerance ``epsilon`` for ``p_error``."""
        return cls(table.n_max_perror(epsilon), disks=disks)

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Streams currently admitted."""
        return self._active

    @property
    def capacity(self) -> int:
        """Maximum concurrently admissible streams
        (``n_max_per_disk * disks``)."""
        return self.n_max_per_disk * self.disks

    @property
    def healthy_n_max(self) -> int:
        """The per-disk limit in force while every disk is healthy."""
        return self._healthy_n_max

    def would_admit(self) -> bool:
        """Whether one more stream fits without breaking the per-disk
        guarantee.  ``ceil((active + 1)/disks) <= n_max`` reduced to
        one integer compare against the precomputed threshold."""
        with self._lock:
            return self._active < self._active_limit

    def admit(self) -> None:
        """Admit a stream or raise :class:`AdmissionError`.

        Check and increment happen atomically under the controller
        lock, so concurrent callers can never jointly overshoot the
        per-disk guarantee.
        """
        with self._lock, start_span("admission.admit",
                                    tracer=self.tracer) as span:
            self.requests += 1
            if not self.would_admit():
                self.rejections += 1
                span.set(granted=False, active=self._active,
                         n_max=self.n_max_per_disk)
                raise AdmissionError(
                    f"admission denied: {self._active} active streams, "
                    f"per-disk limit {self.n_max_per_disk} on "
                    f"{self.disks} disk(s)",
                    active_streams=self._active, limit=self.capacity)
            self._active += 1
            span.set(granted=True, active=self._active,
                     n_max=self.n_max_per_disk)

    def release(self) -> None:
        """A stream terminated."""
        with self._lock:
            if self._active <= 0:
                raise ConfigurationError(
                    "release() without an active stream")
            self._active -= 1

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether a degraded-mode limit is currently in force.

        Tracked as an explicit flag set by :meth:`degrade` and cleared
        by :meth:`restore` -- comparing the current limit against the
        healthy one would misreport a degraded phase whose bound
        happens to equal the healthy limit.
        """
        return self._degraded

    def degrade(self, n_max_per_disk: int) -> None:
        """Lower the per-disk limit to the degraded-mode bound.

        Called by the server when a disk fails: new admissions are then
        tested against the doubled-batch limit
        (:func:`repro.core.farm.degraded_mode_n_max`); already-admitted
        streams above the limit are the shedding policy's business, not
        this counter's.  Idempotent; :meth:`restore` undoes it.
        """
        if n_max_per_disk < 0:
            raise ConfigurationError(
                f"n_max_per_disk must be >= 0, got {n_max_per_disk!r}")
        with self._lock:
            self.n_max_per_disk = int(n_max_per_disk)
            self._active_limit = self.n_max_per_disk * self.disks
            self._degraded = True

    def restore(self) -> None:
        """Return to the healthy admission limit (disk recovered)."""
        with self._lock:
            self.n_max_per_disk = self._healthy_n_max
            self._active_limit = self.n_max_per_disk * self.disks
            self._degraded = False

    def resize(self, n_max_per_disk: int | None = None, *,
               disks: int | None = None) -> None:
        """Adopt a new *healthy* operating point (and/or farm size),
        recomputing the precomputed admission threshold.

        Unlike :meth:`degrade` this rewrites the healthy limit itself
        (a permanent re-plan, e.g. a table rebuild), so a later
        :meth:`restore` returns to the new point.
        """
        with self._lock:
            if n_max_per_disk is not None:
                if n_max_per_disk < 0:
                    raise ConfigurationError(
                        f"n_max_per_disk must be >= 0, "
                        f"got {n_max_per_disk!r}")
                self._healthy_n_max = int(n_max_per_disk)
                if not self._degraded:
                    self.n_max_per_disk = self._healthy_n_max
            if disks is not None:
                if disks < 1:
                    raise ConfigurationError(
                        f"disks must be >= 1, got {disks!r}")
                self.disks = int(disks)
            self._active_limit = self.n_max_per_disk * self.disks

    def restore_state(self, *, active: int, requests: int = 0,
                      rejections: int = 0) -> None:
        """Reinstate counters from a persisted snapshot.

        Used by the daemon's crash-safe restore path
        (:mod:`repro.control.snapshot`): the restored ``active`` count
        must reflect the persisted ledger exactly, even when it
        exceeds the current limit (the shedding policy, not this
        counter, decides who goes).  Request/rejection totals carry
        over so ``/state`` stays continuous across restarts.
        """
        if active < 0 or requests < 0 or rejections < 0:
            raise ConfigurationError(
                "restore_state needs non-negative counters, got "
                f"active={active!r} requests={requests!r} "
                f"rejections={rejections!r}")
        with self._lock:
            self._active = int(active)
            self.requests = int(requests)
            self.rejections = int(rejections)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Consistent point-in-time view of the controller state (one
        lock acquisition), for the daemon's ``/state`` endpoint."""
        with self._lock:
            return {
                "active": self._active,
                "capacity": self.capacity,
                "n_max_per_disk": self.n_max_per_disk,
                "healthy_n_max": self._healthy_n_max,
                "disks": self.disks,
                "degraded": self._degraded,
                "requests": self.requests,
                "rejections": self.rejections,
            }

    def __repr__(self) -> str:
        return (f"AdmissionController(active={self._active}/"
                f"{self.capacity}, rejected={self.rejections})")


class _Shard:
    """One stripe of the admission counter: a lock, the live count,
    and this stripe's slice of the global capacity."""

    __slots__ = ("lock", "active", "limit", "requests", "rejections")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.active = 0
        self.limit = 0
        self.requests = 0
        self.rejections = 0


class ShardedAdmissionController:
    """Striped admission controller for the serve hot path.

    Drop-in for :class:`AdmissionController` (same public surface and
    admission semantics, cross-validated by
    ``tests/server/test_admission_sharded.py``), plus:

    - :meth:`admit_batch` -- grant up to ``count`` tickets under one
      shard-lock acquisition, partial-grant when global capacity runs
      out mid-batch;
    - :meth:`release_on` -- release on a known shard with a callback
      run under that shard's lock (the daemon's ledger mutation);
    - :meth:`quiesced` -- all-shards critical section for global
      events, in fixed lock order (op lock, then shards by index);
    - ``epoch``/``rebalances`` -- observable retarget/steal counters.

    Thread identity picks the home shard, so with S > 1 a
    thread-per-connection server gives each persistent connection an
    uncontended stripe.
    """

    def __init__(self, n_max_per_disk: int, disks: int = 1, *,
                 shards: int = 1) -> None:
        if n_max_per_disk < 0:
            raise ConfigurationError(
                f"n_max_per_disk must be >= 0, got {n_max_per_disk!r}")
        if disks < 1:
            raise ConfigurationError(f"disks must be >= 1, got {disks!r}")
        if shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {shards!r}")
        self.n_max_per_disk = int(n_max_per_disk)
        self.disks = int(disks)
        self._healthy_n_max = self.n_max_per_disk
        self._degraded = False
        self._shards = [_Shard() for _ in range(int(shards))]
        #: Each thread's home stripe, dealt round-robin on its first
        #: call.  (A hash of ``threading.get_ident()`` would not spread
        #: them: CPython's idents are 64-byte aligned, so their low bits
        #: are all zero.)
        self._home = threading.local()
        self._next_home = itertools.count()
        #: Serialises global events against each other (the shard
        #: locks alone would let two quiesce attempts deadlock-order).
        self._op_lock = threading.Lock()
        #: Capacity overshoot recorded at the last down-retarget;
        #: releases pay it down by shrinking limits (no phantom slack).
        self._debt = 0
        self._debt_lock = threading.Lock()
        #: Bumped on every retarget and slow-path rebalance; global
        #: readers can detect a limit redistribution between looks.
        self.epoch = 0
        #: Slow-path slack steals performed (shard exhausted while
        #: global capacity remained).
        self.rebalances = 0
        self.tracer = NULL_TRACER
        self._spread_limits()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_table(cls, table: AdmissionTable, *, epsilon: float,
                   disks: int = 1, shards: int = 1
                   ) -> "ShardedAdmissionController":
        """Build a sharded controller from a §5 lookup table."""
        return cls(table.n_max_perror(epsilon), disks=disks,
                   shards=shards)

    def _spread_limits(self) -> None:
        """Initial even spread of the capacity over the stripes
        (constructor only: no locks needed yet)."""
        base, extra = divmod(self.capacity, len(self._shards))
        for index, shard in enumerate(self._shards):
            shard.limit = base + (1 if index < extra else 0)

    # -- cheap views (lock-free; exact when quiescent) ------------------
    @property
    def shards(self) -> int:
        """Stripe count S."""
        return len(self._shards)

    @property
    def active(self) -> int:
        """Streams currently admitted (sum over stripes; each read is
        GIL-atomic, so the total is exact whenever no admit/release is
        mid-flight and never more than transiently stale)."""
        return sum(shard.active for shard in self._shards)

    @property
    def requests(self) -> int:
        """Total admission requests seen."""
        return sum(shard.requests for shard in self._shards)

    @property
    def rejections(self) -> int:
        """Requests turned away."""
        return sum(shard.rejections for shard in self._shards)

    @property
    def capacity(self) -> int:
        """Maximum concurrently admissible streams
        (``n_max_per_disk * disks``)."""
        return self.n_max_per_disk * self.disks

    @property
    def healthy_n_max(self) -> int:
        """The per-disk limit in force while every disk is healthy."""
        return self._healthy_n_max

    @property
    def degraded(self) -> bool:
        """Whether a degraded-mode limit is currently in force."""
        return self._degraded

    @property
    def debt(self) -> int:
        """Capacity overshoot still being paid down by releases."""
        return self._debt

    def would_admit(self) -> bool:
        """Advisory: whether one more stream fits right now.  Exact in
        quiescent states; the authoritative test is :meth:`admit`."""
        return self.active < self.capacity

    def shard_for_thread(self) -> int:
        """The calling thread's home stripe, fixed on its first call:
        threads get stripes round-robin, in the order they first ask."""
        home = getattr(self._home, "shard", None)
        if home is None:
            home = next(self._next_home) % len(self._shards)
            self._home.shard = home
        return home

    # -- fast path ------------------------------------------------------
    def admit(self) -> None:
        """Admit one stream or raise :class:`AdmissionError` -- the
        :class:`AdmissionController`-compatible entry point."""
        self.admit_batch(1)

    def admit_batch(self, count: int, *, shard: int | None = None,
                    on_grant=None) -> int:
        """Admit up to ``count`` streams in one shard-lock acquisition.

        Returns the number granted (partial when global capacity runs
        out mid-batch).  Raises :class:`AdmissionError` only when
        ``count > 0`` and *nothing* could be granted.  ``on_grant(
        shard_index, granted)`` runs under the granting shard's lock,
        after the count is taken -- the daemon appends its ledger
        tickets there, so a quiesced global event always sees counter
        and ledger agreeing.  ``count == 0`` is a no-op probe.
        """
        if count < 0:
            raise ConfigurationError(
                f"admit_batch needs count >= 0, got {count!r}")
        if count == 0:
            return 0
        index = (self.shard_for_thread() if shard is None
                 else int(shard))
        home = self._shards[index]
        with home.lock:
            home.requests += count
            if home.limit - home.active >= count:
                home.active += count
                if self.tracer.enabled:
                    emit_span("admission.admit", self.tracer, {
                        "granted": True, "count": count,
                        "active": self.active,
                        "n_max": self.n_max_per_disk, "shard": index})
                if on_grant is not None:
                    on_grant(index, count)
                return count
        # Shard slice exhausted: rebalance before rejecting.
        return self._admit_slow(index, count, on_grant)

    def _admit_slow(self, index: int, count: int, on_grant) -> int:
        """All-shards slow path: steal slack from other stripes so a
        request is never falsely rejected while global capacity
        remains; partial-grant down to whatever is left."""
        with self.quiesced():
            home = self._shards[index]
            total = sum(shard.active for shard in self._shards)
            free = self.capacity - total
            granted = min(count, max(0, free))
            with start_span("admission.admit",
                            tracer=self.tracer) as span:
                if granted == 0:
                    home.rejections += count
                    span.set(granted=False, count=count, active=total,
                             n_max=self.n_max_per_disk, shard=index)
                    raise AdmissionError(
                        f"admission denied: {total} active streams, "
                        f"per-disk limit {self.n_max_per_disk} on "
                        f"{self.disks} disk(s)",
                        active_streams=total, limit=self.capacity)
                # Steal enough limit for this grant plus an even share
                # of the remaining slack, so a hot stripe amortises
                # future admits instead of re-entering the slow path
                # per ticket.
                leftover = free - granted
                reserve = min(leftover,
                              max(granted,
                                  -(-leftover // len(self._shards))))
                need = home.active + granted + reserve - home.limit
                if need > 0:
                    for other in self._shards:
                        if need <= 0:
                            break
                        if other is home:
                            continue
                        spare = other.limit - other.active
                        if spare > 0:
                            moved = min(spare, need)
                            other.limit -= moved
                            home.limit += moved
                            need -= moved
                home.active += granted
                self.rebalances += 1
                self.epoch += 1
                if granted < count:
                    home.rejections += count - granted
                span.set(granted=True, count=granted,
                         requested=count, active=total + granted,
                         n_max=self.n_max_per_disk, shard=index,
                         rebalanced=True)
            if on_grant is not None:
                on_grant(index, granted)
            return granted

    def _pay_debt_on(self, shard: _Shard) -> None:
        """Pay retarget debt out of ``shard``'s slack; call with the
        shard's lock held.  The unlocked pre-check keeps the common
        (debt-free) release at one extra integer read."""
        if not self._debt:
            return
        with self._debt_lock:
            pay = min(self._debt, shard.limit - shard.active)
            if pay > 0:
                shard.limit -= pay
                self._debt -= pay

    def release(self) -> None:
        """A stream terminated (stripe-agnostic form).  Tries the
        calling thread's stripe first; falls back to a quiesced scan
        when that stripe is empty."""
        home = self._shards[self.shard_for_thread()]
        with home.lock:
            if home.active > 0:
                home.active -= 1
                self._pay_debt_on(home)
                return
        with self.quiesced():
            for shard in self._shards:
                if shard.active > 0:
                    shard.active -= 1
                    self._pay_debt_on(shard)
                    return
        raise ConfigurationError("release() without an active stream")

    def release_on(self, shard: int, on_release=None) -> int:
        """Release on a known stripe.  ``on_release()`` runs under the
        stripe's lock and returns how many streams it actually removed
        (0: the ticket moved/vanished under a concurrent global event
        -- nothing is decremented and 0 is returned so the caller can
        re-resolve).  Without a callback, releases exactly one."""
        target = self._shards[int(shard)]
        with target.lock:
            count = 1 if on_release is None else int(on_release())
            if count == 0:
                return 0
            if target.active < count:
                raise ConfigurationError(
                    f"release_on(shard={shard}) of {count} with only "
                    f"{target.active} active on the stripe")
            target.active -= count
            self._pay_debt_on(target)
            return count

    # -- global events (quiesced) ---------------------------------------
    @contextmanager
    def quiesced(self):
        """Hold every shard lock (fixed order: op lock, then shards by
        index) so the caller sees -- and may mutate -- a fully
        consistent global state.  Admits/releases resume when the
        block exits."""
        with self._op_lock:
            for shard in self._shards:
                shard.lock.acquire()
            try:
                yield
            finally:
                for shard in reversed(self._shards):
                    shard.lock.release()

    def _retarget_locked(self) -> None:
        """Redistribute limits after a capacity change; call under
        :meth:`quiesced`.  Live counts keep their slots; remaining
        slack is spread evenly; overshoot becomes debt paid down by
        releases.  Invariant out: ``sum(limit) == capacity + debt``
        with ``limit >= active`` per stripe."""
        capacity = self.capacity
        total = sum(shard.active for shard in self._shards)
        with self._debt_lock:
            self._debt = max(0, total - capacity)
        slack = capacity + self._debt - total
        base, extra = divmod(slack, len(self._shards))
        for index, shard in enumerate(self._shards):
            shard.limit = shard.active + base + (1 if index < extra
                                                 else 0)
        self.epoch += 1

    def would_admit_locked(self) -> bool:
        """Exact admission test; call under :meth:`quiesced`."""
        return (sum(shard.active for shard in self._shards)
                < self.capacity)

    def admit_locked(self, on_grant=None) -> int:
        """Admit one stream under :meth:`quiesced` (the resume path);
        returns the stripe that took it.  ``on_grant(shard_index)``
        runs with all locks still held."""
        best, best_slack = None, 0
        for index, shard in enumerate(self._shards):
            slack = shard.limit - shard.active
            if slack > best_slack:
                best, best_slack = index, slack
        if best is None:
            total = sum(shard.active for shard in self._shards)
            raise AdmissionError(
                f"admission denied: {total} active streams, "
                f"per-disk limit {self.n_max_per_disk} on "
                f"{self.disks} disk(s)",
                active_streams=total, limit=self.capacity)
        shard = self._shards[best]
        shard.requests += 1
        shard.active += 1
        if on_grant is not None:
            on_grant(best)
        return best

    def release_locked(self, shard: int, count: int = 1) -> None:
        """Release ``count`` streams from a stripe under
        :meth:`quiesced` (the shed path)."""
        target = self._shards[int(shard)]
        if target.active < count:
            raise ConfigurationError(
                f"release_locked(shard={shard}) of {count} with only "
                f"{target.active} active on the stripe")
        target.active -= count
        self._pay_debt_on(target)

    def degrade_locked(self, n_max_per_disk: int) -> None:
        """Lower the per-disk limit under :meth:`quiesced` and
        retarget the stripes."""
        if n_max_per_disk < 0:
            raise ConfigurationError(
                f"n_max_per_disk must be >= 0, got {n_max_per_disk!r}")
        self.n_max_per_disk = int(n_max_per_disk)
        self._degraded = True
        self._retarget_locked()

    def restore_locked(self) -> None:
        """Return to the healthy limit under :meth:`quiesced`."""
        self.n_max_per_disk = self._healthy_n_max
        self._degraded = False
        self._retarget_locked()

    def resize_locked(self, n_max_per_disk: int) -> None:
        """Adopt a new healthy operating point under
        :meth:`quiesced` (table rebuild / re-plan)."""
        if n_max_per_disk < 0:
            raise ConfigurationError(
                f"n_max_per_disk must be >= 0, got {n_max_per_disk!r}")
        self._healthy_n_max = int(n_max_per_disk)
        if not self._degraded:
            self.n_max_per_disk = self._healthy_n_max
        self._retarget_locked()

    def restore_state_locked(self, *, shard_actives, requests: int = 0,
                             rejections: int = 0) -> None:
        """Reinstate per-stripe counts from a persisted ledger under
        :meth:`quiesced`; totals land on stripe 0 (sums are what the
        public counters report)."""
        if len(shard_actives) != len(self._shards):
            raise ConfigurationError(
                f"restore_state_locked needs {len(self._shards)} "
                f"stripe counts, got {len(shard_actives)}")
        if requests < 0 or rejections < 0 or any(
                n < 0 for n in shard_actives):
            raise ConfigurationError(
                "restore_state_locked needs non-negative counters")
        for shard, active in zip(self._shards, shard_actives):
            shard.active = int(active)
            shard.requests = 0
            shard.rejections = 0
        self._shards[0].requests = int(requests)
        self._shards[0].rejections = int(rejections)
        self._retarget_locked()

    # -- compatibility wrappers -----------------------------------------
    def degrade(self, n_max_per_disk: int) -> None:
        """Quiesce and lower the per-disk limit (drop-in form)."""
        with self.quiesced():
            self.degrade_locked(n_max_per_disk)

    def restore(self) -> None:
        """Quiesce and return to the healthy limit (drop-in form)."""
        with self.quiesced():
            self.restore_locked()

    def resize(self, n_max_per_disk: int) -> None:
        """Quiesce and adopt a new healthy operating point."""
        with self.quiesced():
            self.resize_locked(n_max_per_disk)

    def restore_state(self, *, active: int, requests: int = 0,
                      rejections: int = 0) -> None:
        """Drop-in restore: spread ``active`` evenly over the stripes
        (the daemon uses :meth:`restore_state_locked` with its real
        per-stripe ledger split instead)."""
        if active < 0:
            raise ConfigurationError(
                f"restore_state needs non-negative counters, got "
                f"active={active!r}")
        count = len(self._shards)
        base, extra = divmod(int(active), count)
        with self.quiesced():
            self.restore_state_locked(
                shard_actives=[base + (1 if i < extra else 0)
                               for i in range(count)],
                requests=requests, rejections=rejections)

    def snapshot_locked(self) -> dict:
        """The consistent state view; call under :meth:`quiesced`."""
        total = sum(shard.active for shard in self._shards)
        return {
            "active": total,
            "capacity": self.capacity,
            "n_max_per_disk": self.n_max_per_disk,
            "healthy_n_max": self._healthy_n_max,
            "disks": self.disks,
            "degraded": self._degraded,
            "requests": sum(s.requests for s in self._shards),
            "rejections": sum(s.rejections for s in self._shards),
            "shards": len(self._shards),
            "epoch": self.epoch,
            "debt": self._debt,
            "rebalances": self.rebalances,
            "shard_active": [s.active for s in self._shards],
            "shard_limit": [s.limit for s in self._shards],
        }

    def snapshot(self) -> dict:
        """Consistent point-in-time view (one quiesce), superset of
        :meth:`AdmissionController.snapshot`."""
        with self.quiesced():
            return self.snapshot_locked()

    def __repr__(self) -> str:
        return (f"ShardedAdmissionController(active={self.active}/"
                f"{self.capacity}, shards={len(self._shards)}, "
                f"epoch={self.epoch}, rejected={self.rejections})")
