"""The admission daemon's service core (transport-agnostic).

:class:`ServeDaemon` owns the run-time state of a live §5 admission
server: the precomputed :class:`~repro.core.admission.AdmissionTable`,
the batch-granting
:class:`~repro.server.admission.ShardedAdmissionController`,
the :class:`~repro.server.faults.SheddingPolicy` applied when a disk
fails, and the per-stream ledger that decides *which* streams are shed
(newest first) and resumed (oldest first) -- the same semantics the
event-driven :class:`~repro.server.server.MediaServer` implements per
round boundary, applied here at fault-event time.

The controller runs one stripe (no serve workload measured a gain
from more; ``docs/PERFORMANCE.md``), and the ledger is one ascending
list of live tickets mutated only inside the controller's on-grant
and on-release callbacks, under that stripe's lock -- so counter and
ledger always agree, and an admit, a release-by-ticket or a whole
batch of either takes the lock once.  Batch admission
(:meth:`ServeDaemon.admit_many`) grants k tickets with one
``admission.admit`` span and one ``ledger.append`` span for the whole
batch.  Global events -- fault, shed/resume, controller retarget,
snapshot, ``/state`` -- run under the daemon lock *plus*
:meth:`ShardedAdmissionController.quiesced`.

On top of the static service, two optional planes from
:mod:`repro.control`:

- a **measurement plane** (:meth:`ServeDaemon.tick_round`): each tick
  probes one round per alive disk on the calibrated disk model -- with
  live ``slow_disk`` drift factors applied -- and folds the result
  into a :class:`~repro.control.window.TelemetryWindow`, so observed
  ``p_late``/glitch rates are compared against the analytic bounds
  stamped for the current operating point;
- a **control plane** (``adaptive=True``): the
  :class:`~repro.control.controller.Controller` reads that window and
  retunes ``(N_max, t)`` online through cached Chernoff re-solves,
  shedding (watchdog: hard-dropping) or gradually rejoining streams.

Both planes are crash-safe: with ``snapshot_path`` set the daemon
persists a versioned, fsync-atomic snapshot of the ledger + controller
state after every fault/retune, restores it on start, and applies the
unclean-restart ticket reserve so a ``kill -9`` mid-storm can never
re-issue a granted ticket (:mod:`repro.control.snapshot`).  Snapshots
list the live tickets in admission order; snapshots written by
daemons that striped the ledger over several shards restore unchanged.

All public methods are safe to call from any number of HTTP worker
threads.  ``tick_round`` is additionally serialised by a tick lock
(the probe RNG is sequential state); ticks sample *outside* the
daemon lock so the admission hot path never waits on a probe or a
re-solve.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache import fingerprint, get_persistent_cache
from repro.control import (Controller, ServiceProbe, TelemetryWindow,
                           TICKET_RESERVE, read_snapshot, write_snapshot)
from repro.control.controller import REJOIN_ROUNDS, WINDOW_ROUNDS
from repro.core import AdmissionTable, GlitchModel, RoundServiceTimeModel
from repro.core.farm import degraded_mode_n_max, mirror_of
from repro.disk import quantum_viking_2_1
from repro.distributions import Gamma
from repro.errors import AdmissionError, ConfigurationError
from repro.obs import MetricsRegistry, RunTelemetry
from repro.obs.slo import SLOTracker, slot_glitch_budget
from repro.obs.spans import start_span
from repro.obs.trace import NULL_TRACER, publish_trace_metrics
from repro.server.admission import ShardedAdmissionController
from repro.server.faults import SheddingPolicy

__all__ = ["ServeConfig", "ServeDaemon", "BATCH_SIZE_BOUNDS"]

#: Batch-size histogram buckets: powers of two up to the HTTP layer's
#: request-size ceiling (a 64 KB body holds far more than 256 ids).
BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                     256.0)


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of one daemon instance.

    Defaults mirror the CLI's: the Table 1 Viking drive, the paper's
    200 KB +/- 100 KB fragment law, one-second rounds, the paper's
    tolerance pair ``epsilon = delta = 0.01`` and stream shape
    ``(m, g) = (1200, 12)``.
    """

    spec: object = field(default_factory=quantum_viking_2_1)
    size_dist: object = None
    t: float = 1.0
    epsilon: float = 0.01
    delta: float = 0.01
    m: int = 1200
    g: int = 12
    disks: int = 2
    shed_mode: str = "pause"
    #: Run the closed-loop controller (``repro serve --adaptive``).
    adaptive: bool = False
    #: Crash-safe ledger snapshot location (None: snapshots disabled).
    snapshot_path: str | None = None
    #: Seed of the deterministic round probe.
    probe_seed: int = 0
    #: Burn-rate alert windows of the ε error-budget tracker, in
    #: probed rounds (``repro serve --slo-fast-window/--slo-slow-
    #: window``).  Fast catches storms (page), slow catches leaks
    #: (warn).
    slo_fast_window: int = 32
    slo_slow_window: int = 256

    def __post_init__(self) -> None:
        if self.size_dist is None:
            object.__setattr__(
                self, "size_dist",
                Gamma.from_mean_std(200_000.0, 100_000.0))
        if self.disks < 1:
            raise ConfigurationError(
                f"disks must be >= 1, got {self.disks!r}")
        if self.shed_mode not in ("pause", "drop"):
            raise ConfigurationError(
                f"shed_mode must be 'pause' or 'drop', "
                f"got {self.shed_mode!r}")
        if self.slo_fast_window < 1 or (self.slo_slow_window
                                        < self.slo_fast_window):
            raise ConfigurationError(
                f"need 1 <= slo_fast_window <= slo_slow_window, got "
                f"{self.slo_fast_window!r}/{self.slo_slow_window!r}")

    def fingerprint(self) -> str:
        """Content hash of the admission-relevant parameters -- the
        compatibility key stamped into snapshots (adaptive/snapshot/
        SLO-window settings excluded: they do not change what a ticket
        means)."""
        return fingerprint(
            "serve-config", self.spec, self.size_dist, float(self.t),
            float(self.epsilon), float(self.delta), int(self.m),
            int(self.g), int(self.disks), self.shed_mode)


class ServeDaemon:
    """Thread-safe admission service over a precomputed lookup table."""

    def __init__(self, config: ServeConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 tracer=NULL_TRACER) -> None:
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer
        self.started_at = time.time()

        cfg = self.config
        # Bulk-load the persistent bound cache before building the table.
        persistent = get_persistent_cache()
        preloaded = persistent.preload() if persistent is not None else 0
        build_start = time.perf_counter()
        self.model = RoundServiceTimeModel.for_disk(cfg.spec,
                                                    cfg.size_dist)
        glitch = GlitchModel(self.model, cfg.t)
        self.table = AdmissionTable(glitch, m=cfg.m, g=cfg.g)
        self.table.build(plate_thresholds=(cfg.delta,),
                         perror_thresholds=(cfg.epsilon,))
        healthy, failure_proof = degraded_mode_n_max(
            cfg.spec, cfg.size_dist, cfg.t, cfg.delta)
        self.build_seconds = time.perf_counter() - build_start

        #: One stripe: every per-stripe call below names stripe 0.
        self.controller = ShardedAdmissionController.from_table(
            self.table, epsilon=cfg.epsilon, disks=cfg.disks)
        #: Admission-layer spans ride the daemon's tracer.
        self.controller.tracer = tracer
        self.policy = SheddingPolicy(failure_proof, mode=cfg.shed_mode)
        #: ε as an error budget: the per-slot glitch rate the stream
        #: shape (m, g, ε) sustains, burned round by round; degraded
        #: rounds are charged against the δ-based promise instead.
        self.slo = SLOTracker(
            slot_glitch_budget(cfg.m, cfg.g, cfg.epsilon),
            degraded_budget=cfg.delta,
            fast_window=cfg.slo_fast_window,
            slow_window=cfg.slo_slow_window)
        #: The limit actually enforced while healthy -- the epsilon
        #: table point, not degraded_mode_n_max's delta-based one.
        self.healthy_n_max = self.controller.n_max_per_disk
        self.degraded_n_max = failure_proof

        #: The ledger: live tickets, ascending (== admission order,
        #: ticket ids being monotonic).  Mutated only inside the
        #: controller's grant/release callbacks or under a quiesce, so
        #: always under the stripe lock, as is ``_next_stream``.
        self._streams: list[int] = []
        self._paused: list[int] = []
        self._failed_disks: set[int] = set()
        #: Live slow-disk drift factors, by disk (1.0 entries elided).
        self._slow: dict[int, float] = {}
        self._next_stream = 0
        #: The global-event lock (fault/control/snapshot/views).  The
        #: admit/release hot paths never take it.
        self._lock = threading.Lock()

        # -- measurement + control planes ------------------------------
        self._window = TelemetryWindow(maxlen=WINDOW_ROUNDS)
        self._probe = ServiceProbe(cfg.spec, cfg.size_dist,
                                   seed=cfg.probe_seed)
        self._ctl: Controller | None = None
        if cfg.adaptive:
            self._ctl = Controller(
                self.model, cfg.t, delta=cfg.delta,
                epsilon=cfg.epsilon, m=cfg.m, g=cfg.g,
                healthy_n_max=self.controller.n_max_per_disk,
                fallback_n_max=failure_proof)
        #: Per-disk limit imposed by the control loop (None: none).
        self._control_n_max: int | None = None
        self._t_mult = 1.0
        self._round_index = 0
        #: Streams rejoined per tick after a relax (0: no ramp active).
        self._rejoin_quota = 0
        self._tick_lock = threading.Lock()
        self._restored = False
        self._restored_clean = False

        m = self.registry
        self._admitted = m.counter(
            "serve_admitted_total",
            help="Streams admitted by the daemon")
        self._rejected = m.counter(
            "serve_rejected_total",
            help="Admission requests denied (guarantee would break)")
        self._released = m.counter(
            "serve_released_total", help="Streams released by clients")
        self._shed = m.counter(
            "serve_shed_total",
            help="Streams shed by the policy during degraded phases")
        self._resumed = m.counter(
            "serve_resumed_total",
            help="Paused streams resumed after recovery")
        self._dropped = m.counter(
            "serve_dropped_total",
            help="Streams dropped permanently (shed_mode=drop)")
        self._active_gauge = m.gauge(
            "serve_active_streams", help="Streams admitted right now")
        self._paused_gauge = m.gauge(
            "serve_paused_streams",
            help="Streams paused awaiting recovery")
        self._degraded_gauge = m.gauge(
            "serve_degraded",
            help="1 while a degraded-mode limit is in force")
        self._admit_hist = m.histogram(
            "serve_admit_seconds",
            help="Latency of the admission test (lock + table lookup)")
        self._batch_hist = m.histogram(
            "serve_admit_batch_size", bounds=BATCH_SIZE_BOUNDS,
            help="Tickets requested per batch admission call")
        self._rounds_total = m.counter(
            "serve_rounds_total", help="Rounds probed by tick_round")
        self._late_rounds = m.counter(
            "serve_late_disk_rounds_total",
            help="Probed sweeps that overran the round budget")
        self._retunes = m.counter(
            "serve_retunes_total",
            help="Controller decisions applied (tighten/relax/"
            "watchdog)")
        self._watchdog_trips = m.counter(
            "serve_watchdog_trips_total",
            help="Watchdog escalations to hard shedding")
        self._snapshot_writes = m.counter(
            "serve_snapshot_writes_total",
            help="Crash-safe snapshots persisted")
        self._p_late_gauge = m.gauge(
            "serve_observed_p_late",
            help="Windowed observed per-sweep overrun rate")
        self._control_gauge = m.gauge(
            "serve_control_n_max",
            help="Per-disk limit imposed by the control loop "
            "(healthy limit while quiescent)")
        self._t_mult_gauge = m.gauge(
            "serve_t_mult",
            help="Round-length multiplier in force")
        self._service_hist = m.histogram(
            "serve_round_service_seconds",
            help="Probed sweep service times")
        self._control_gauge.set(self.controller.n_max_per_disk)
        self._t_mult_gauge.set(1.0)
        m.gauge("serve_adaptive",
                help="1 when the closed-loop controller is enabled"
                ).set(1 if cfg.adaptive else 0)
        m.gauge("serve_table_build_seconds",
                help="Wall time of the admission-table build at "
                "startup").set(self.build_seconds)
        m.gauge("serve_n_max_per_disk",
                help="Healthy per-disk stream limit in force"
                ).set(self.controller.n_max_per_disk)
        m.gauge("serve_degraded_n_max",
                help="Failure-proof per-disk limit applied on disk "
                "failure").set(failure_proof)
        m.gauge("serve_cache_preloaded_entries",
                help="Persistent-cache rows bulk-loaded at startup"
                ).set(preloaded)
        self._epoch_gauge = m.gauge(
            "serve_admission_epoch",
            help="Shard-limit redistribution epoch (bumps on retarget "
            "and slow-path rebalance)")
        self._rebalance_gauge = m.gauge(
            "serve_admission_rebalances",
            help="Slow-path shard-slack rebalances performed")
        self._restored_gauge = m.gauge(
            "serve_snapshot_restored",
            help="1 when this daemon restored a snapshot at startup "
            "(2: an unclean one, ticket reserve applied)")

        if cfg.snapshot_path and Path(cfg.snapshot_path).exists():
            self._restore_snapshot(cfg.snapshot_path)

        if tracer.enabled:
            tracer.start_run(disks=cfg.disks, t=cfg.t,
                             epsilon=cfg.epsilon, delta=cfg.delta,
                             m=cfg.m, g=cfg.g,
                             n_max=self.controller.n_max_per_disk,
                             degraded_n_max=failure_proof,
                             shed_mode=cfg.shed_mode)

    # -- client operations ---------------------------------------------
    def _count_request(self, op: str, retried: bool = False) -> None:
        """Count one answered request.  Retried attempts (client
        stamped ``attempt > 1`` in ``X-Repro-Trace``) land in their own
        counter so a flaky network cannot inflate the primary rates."""
        if retried:
            self.registry.counter(
                "serve_requests_retried_total", {"op": op},
                help="Retried client attempts answered (attempt > 1 "
                "in X-Repro-Trace), by operation").inc()
            return
        self.registry.counter(
            "serve_requests_total", {"op": op},
            help="Requests answered, by operation").inc()

    def _grant_tickets(self, out: dict):
        """Build the controller ``on_grant`` callback: issue a block
        of monotonic tickets, append them to the ledger, and record one
        ``ledger.append`` span for the block.  Runs under the stripe
        lock, *after* the ``admission.admit`` span has closed -- the
        two stay siblings under the caller's HTTP span."""
        tracer = self.tracer

        def on_grant(_index: int, granted: int) -> None:
            first = self._next_stream
            self._next_stream += granted
            tickets = list(range(first, first + granted))
            # Monotonic ids: appending keeps the ledger ascending.
            self._streams.extend(tickets)
            active = self.controller.active
            with start_span("ledger.append", tracer=tracer) as span:
                span.set(stream=tickets[0], active=active)
                if granted > 1:
                    span.set(count=granted,
                             last_stream=tickets[-1])
            out["streams"] = tickets
            out["active"] = active

        return on_grant

    def admit(self, *, retried: bool = False) -> dict:
        """Admit one stream; returns its ticket.

        Raises :class:`~repro.errors.AdmissionError` when one more
        stream would break the per-disk guarantee -- the HTTP layer
        maps that to a 409 rather than treating it as a failure.
        """
        self._count_request("admit", retried)
        start = time.perf_counter()
        out: dict = {}
        try:
            # No daemon-level wrapper span: the serve tree is
            # client -> HTTP handler -> admission test -> ledger
            # mutation, and the HTTP span (or the caller's span, for
            # embedded use) is the parent of both children here.
            self.controller.admit_batch(1,
                                        on_grant=self._grant_tickets(out))
        except AdmissionError:
            self._rejected.inc()
            raise
        finally:
            self._admit_hist.observe(time.perf_counter() - start)
        self._admitted.inc()
        self._active_gauge.set(out["active"])
        return {"stream": out["streams"][0], "active": out["active"]}

    def admit_many(self, count: int, *,
                   retried: bool = False) -> dict:
        """Admit up to ``count`` streams under one lock acquisition.

        Partial-grant: when fewer than ``count`` slots remain
        globally, the remainder is rejected (counted) and the grant is
        returned; only a zero-grant raises
        :class:`~repro.errors.AdmissionError`.  ``count == 0`` is a
        free probe.
        """
        count = int(count)
        self._count_request("admit_batch", retried)
        if count > 0:
            self._batch_hist.observe(count)
        start = time.perf_counter()
        out: dict = {}
        try:
            granted = self.controller.admit_batch(
                count, on_grant=self._grant_tickets(out))
        except AdmissionError:
            self._rejected.inc(count)
            raise
        finally:
            self._admit_hist.observe(time.perf_counter() - start)
        if granted == 0:
            return {"requested": count, "granted": 0, "streams": [],
                    "active": self.controller.active}
        self._admitted.inc(granted)
        if granted < count:
            self._rejected.inc(count - granted)
        self._active_gauge.set(out["active"])
        return {"requested": count, "granted": granted,
                "streams": out["streams"], "active": out["active"]}

    def _unlink_locked(self, stream: int) -> int:
        """Unlink ``stream`` from the ledger; call under the stripe
        lock.  Returns how many were removed (0: not live)."""
        streams = self._streams
        at = bisect.bisect_left(streams, stream)
        if at < len(streams) and streams[at] == stream:
            del streams[at]
            return 1
        return 0

    def _release_ticket(self, stream: int) -> None:
        """Release one ticket under one stripe-lock acquisition."""
        if not self.controller.release_on(
                0, lambda: self._unlink_locked(stream)):
            raise ConfigurationError(f"stream {stream!r} is not active")

    def _pop_oldest_locked(self) -> int:
        """Remove and return the oldest live ticket; call under the
        daemon lock + controller quiesce."""
        if not self._streams:
            raise ConfigurationError("no active stream to release")
        stream = self._streams.pop(0)
        self.controller.release_locked(0, 1)
        return stream

    def release(self, stream: int | None = None, *,
                retried: bool = False) -> dict:
        """Release a stream (by ticket, or the oldest active one)."""
        self._count_request("release", retried)
        if stream is None:
            # Oldest-first needs a consistent global view.
            with self._lock, self.controller.quiesced():
                stream = self._pop_oldest_locked()
                active = self.controller.active
        else:
            stream = int(stream)
            self._release_ticket(stream)
            active = self.controller.active
        self._released.inc()
        self._active_gauge.set(active)
        return {"stream": stream, "active": active}

    def release_many(self, streams, *, retried: bool = False) -> dict:
        """Release a batch of tickets under one stripe-lock
        acquisition, in one pass.  Unknown, already-released and
        repeated tickets are reported in ``missing`` rather than
        failing the batch."""
        self._count_request("release_batch", retried)
        wanted = [int(raw) for raw in streams]
        released: list[int] = []
        missing: list[int] = []

        def unlink() -> int:
            for stream in wanted:
                if self._unlink_locked(stream):
                    released.append(stream)
                else:
                    missing.append(stream)
            return len(released)

        self.controller.release_on(0, unlink)
        active = self.controller.active
        if released:
            self._released.inc(len(released))
            self._active_gauge.set(active)
        return {"released": released, "missing": missing,
                "active": active}

    # -- shared retarget helpers ---------------------------------------
    # All _*_locked helpers below run under self._lock AND
    # self.controller.quiesced(), so the ledger and the counters form
    # one consistent picture.
    def _fault_limit_locked(self) -> int:
        return (self.degraded_n_max if self._failed_disks
                else self.healthy_n_max)

    def _apply_limit_locked(self) -> None:
        """Impose ``min(fault limit, control limit)`` on the
        admission controller."""
        limit = self._fault_limit_locked()
        if self._control_n_max is not None:
            limit = min(limit, self._control_n_max)
        if self._failed_disks or self._control_n_max is not None:
            self.controller.degrade_locked(limit)
        else:
            self.controller.restore_locked()

    def _shed_to_capacity_locked(self, mode: str) -> list[int]:
        """Shed newest-first until the active count fits the current
        capacity; pause mode parks victims in admission order."""
        excess = self.controller.active - self.controller.capacity
        if excess <= 0:
            return []
        # Newest first: the ledger's tail, highest ticket first.
        shed = self._streams[-excess:][::-1]
        del self._streams[-excess:]
        self.controller.release_locked(0, excess)
        if mode == "pause":
            # Keep the paused ledger in admission order (ticket ids
            # are monotonic), so recovery resumes oldest first.
            self._paused.extend(shed)
            self._paused.sort()
        return shed

    def _resume_locked(self, limit: int | None = None) -> list[int]:
        """Resume paused streams oldest-first while capacity allows,
        up to ``limit`` of them (None: all that fit)."""
        resumed: list[int] = []
        while self._paused and self.controller.would_admit_locked():
            if limit is not None and len(resumed) >= limit:
                break
            stream = self._paused.pop(0)  # oldest first

            self.controller.admit_locked()
            # Old ticket rejoining the ledger: insort, not append
            # (newer tickets were granted meanwhile).
            bisect.insort(self._streams, stream)
            resumed.append(stream)
        return resumed

    # -- fault handling ------------------------------------------------
    def fault(self, kind: str, disk: int = 0, factor: float = 1.0,
              *, retried: bool = False) -> dict:
        """Apply one fault event to the live controller.

        ``disk_fail`` degrades the admission limit and sheds the
        newest streams down to the policy target; ``disk_recover``
        restores the healthy limit and (pause mode) resumes paused
        streams oldest-first.  ``slow_disk`` records a live service
        drift factor the round probe applies from the next tick on --
        the signal the adaptive controller reacts to.  Recalibration
        storms are counted and traced but have no admission-side
        effect.  Every applied event refreshes the crash-safe snapshot
        when one is configured.
        """
        self._count_request("fault", retried)
        self.registry.counter(
            "serve_faults_total", {"kind": str(kind)},
            help="Fault events applied, by kind").inc()
        if self.tracer.enabled:
            self.tracer.emit("fault", t=time.time() - self.started_at,
                             desc=f"{kind} disk={disk}")
        if kind == "disk_fail":
            result = self._apply_fail(int(disk))
        elif kind == "disk_recover":
            result = self._apply_recover(int(disk))
        elif kind == "slow_disk":
            result = self._apply_slow(int(disk), float(factor))
        elif kind == "recalibration_storm":
            return {"applied": False, "kind": kind}
        else:
            raise ConfigurationError(f"unknown fault kind {kind!r}")
        if self.config.snapshot_path:
            self.save_snapshot()
        return result

    def _check_disk(self, disk: int) -> None:
        if not (0 <= disk < self.config.disks):
            raise ConfigurationError(
                f"disk {disk} out of range [0, {self.config.disks})")

    def _apply_fail(self, disk: int) -> dict:
        self._check_disk(disk)
        with self._lock, self.controller.quiesced():
            self._failed_disks.add(disk)
            self._apply_limit_locked()
            shed = self._shed_to_capacity_locked(self.policy.mode)
            active, paused = self.controller.active, len(self._paused)
        self._shed.inc(len(shed))
        if self.policy.mode == "drop":
            self._dropped.inc(len(shed))
        self._active_gauge.set(active)
        self._paused_gauge.set(paused)
        self._degraded_gauge.set(1)
        if self.tracer.enabled:
            for victim in shed:
                self.tracer.emit("stream_shed", round=None,
                                 stream=victim,
                                 action=self.policy.mode)
        return {"applied": True, "kind": "disk_fail", "disk": disk,
                "shed": len(shed), "active": active}

    def _apply_recover(self, disk: int) -> dict:
        self._check_disk(disk)
        with self._lock, self.controller.quiesced():
            self._failed_disks.discard(disk)
            if self._failed_disks:
                # Another disk is still down: stay degraded.
                return {"applied": True, "kind": "disk_recover",
                        "disk": disk, "resumed": 0,
                        "active": self.controller.active}
            self._apply_limit_locked()
            resumed = self._resume_locked()
            active, paused = self.controller.active, len(self._paused)
            degraded = self.controller.degraded
        self._resumed.inc(len(resumed))
        self._active_gauge.set(active)
        self._paused_gauge.set(paused)
        self._degraded_gauge.set(1 if degraded else 0)
        if self.tracer.enabled:
            for stream in resumed:
                self.tracer.emit("stream_resume", round=None,
                                 stream=stream)
        return {"applied": True, "kind": "disk_recover", "disk": disk,
                "resumed": len(resumed), "active": active}

    def _apply_slow(self, disk: int, factor: float) -> dict:
        self._check_disk(disk)
        if not (factor > 0.0 and math.isfinite(factor)):
            raise ConfigurationError(
                f"slow_disk factor must be positive, got {factor!r}")
        with self._lock:
            if factor == 1.0:
                self._slow.pop(disk, None)
            else:
                self._slow[disk] = factor
            slow = dict(self._slow)
        self.registry.gauge(
            "serve_slow_disks",
            help="Disks with a live slow-disk drift factor"
            ).set(len(slow))
        return {"applied": True, "kind": "slow_disk", "disk": disk,
                "factor": factor}

    # -- measurement + control plane -----------------------------------
    def tick_round(self) -> dict:
        """Probe one service round and run one controller step.

        Samples each alive disk's sweep on the calibrated disk model
        (drift factors applied), folds the observation into the
        telemetry window, and -- when adaptive -- lets the controller
        plan/verify a retune which is then applied under the daemon
        lock plus a controller quiesce.  Sampling and Chernoff
        re-solves run *outside* those locks, so admissions never stall
        behind the control loop.  Driven by the HTTP layer's
        ``RoundTicker`` in wall-clock time, or called directly (tests,
        benches) for determinism.
        """
        cfg = self.config
        tracer = self.tracer
        with self._tick_lock, \
                start_span("control.cycle", tracer=tracer) as cycle:
            with self._lock:
                active = self.controller.active
                failed = frozenset(self._failed_disks)
                slow = dict(self._slow)
                t_budget = cfg.t * self._t_mult
                index = self._round_index
                self._round_index += 1
            cycle.set(round=index)
            plan = []
            if active > 0:
                per_disk = math.ceil(active / cfg.disks)
                for disk in range(cfg.disks):
                    if disk in failed:
                        continue
                    n = per_disk
                    mirror = mirror_of(disk, cfg.disks)
                    if mirror is not None and mirror in failed:
                        n = min(active, 2 * per_disk)
                    plan.append((disk, n, slow.get(disk, 1.0)))
            obs = None
            if plan:
                with start_span("control.observe", tracer=tracer,
                                round=index) as observe_span:
                    obs = self._probe.sample_round(index, t_budget,
                                                   plan, self.model)
                    observe_span.set(
                        disk_rounds=obs.disk_rounds,
                        late_disk_rounds=obs.late_disk_rounds,
                        glitched=obs.glitched)
            decision = None
            applied: dict = {}
            if obs is not None:
                with self._lock:
                    self._window.add(obs)
                # The controller step may re-solve Chernoff bounds;
                # the window is only ever mutated on this (tick)
                # thread, so reading it lock-free here is safe.
                if self._ctl is not None:
                    with start_span("control.plan", tracer=tracer,
                                    round=index) as plan_span:
                        decision = self._ctl.step(self._window)
                        plan_span.set(
                            **self._ctl.evidence(self._window))
                        if decision is not None:
                            plan_span.set(decision=decision.kind,
                                          n_max=decision.n_max,
                                          t_mult=decision.t_mult,
                                          reason=decision.reason)
                with self._lock, self.controller.quiesced():
                    if decision is not None:
                        with start_span("control.apply",
                                        tracer=tracer, round=index,
                                        decision=decision.kind
                                        ) as apply_span:
                            applied = self._apply_decision_locked(
                                decision)
                            apply_span.set(
                                shed=len(applied.get("shed", ())),
                                resumed=len(applied.get("resumed",
                                                        ())))
                    elif (self._ctl is not None and self._rejoin_quota
                          and self._paused
                          and not self._failed_disks):
                        rejoined = self._resume_locked(
                            limit=self._rejoin_quota)
                        if rejoined:
                            applied = {"resumed": rejoined}
                        if not self._paused:
                            self._rejoin_quota = 0
                    active = self.controller.active
                    paused = len(self._paused)
                    p_late = self._window.observed_p_late
            if obs is not None:
                self._rounds_total.inc()
                self._late_rounds.inc(obs.late_disk_rounds)
                self._p_late_gauge.set(p_late)
                if obs.disk_rounds:
                    self._service_hist.observe(
                        obs.observed_service / obs.disk_rounds)
                if applied.get("resumed"):
                    self._resumed.inc(len(applied["resumed"]))
                if applied.get("shed"):
                    self._shed.inc(len(applied["shed"]))
                    if applied.get("mode") == "drop":
                        self._dropped.inc(len(applied["shed"]))
                self._active_gauge.set(active)
                self._paused_gauge.set(paused)
                # Burn the ε error budget with this round's evidence;
                # degraded rounds run under the δ-based promise.
                degraded_round = bool(failed)
                slo_state = self.slo.observe(
                    obs.glitched, obs.requests,
                    degraded=degraded_round, round_index=index)
                self.slo.publish(self.registry)
                cycle.set(slo=slo_state)
                if tracer.enabled:
                    tracer.emit(
                        "round_observe", round=index,
                        disk_rounds=obs.disk_rounds,
                        late_disk_rounds=obs.late_disk_rounds,
                        requests=obs.requests,
                        glitched=obs.glitched,
                        degraded=degraded_round,
                        bound=obs.bound)
        if tracer.enabled:
            # Drain deferred sink writes here, once per round, so the
            # admission hot path never serialises JSON.
            tracer.flush()
        if decision is not None:
            self._retunes.inc()
            if decision.kind == "watchdog":
                self._watchdog_trips.inc()
            self._control_gauge.set(decision.n_max)
            self._t_mult_gauge.set(decision.t_mult)
            self._degraded_gauge.set(
                1 if self.controller.degraded else 0)
            if self.tracer.enabled:
                self.tracer.emit(
                    "fault", t=time.time() - self.started_at,
                    desc=f"retune {decision.kind}: "
                         f"n_max={decision.n_max} "
                         f"t_mult={decision.t_mult:g}")
            if cfg.snapshot_path:
                self.save_snapshot()
        result = {"round": index, "probed": obs is not None}
        if obs is not None:
            result.update(disk_rounds=obs.disk_rounds,
                          late_disk_rounds=obs.late_disk_rounds,
                          glitched=obs.glitched)
        if decision is not None:
            result["decision"] = decision.to_dict()
            result["shed"] = len(applied.get("shed", ()))
        if applied.get("resumed"):
            result["resumed"] = len(applied["resumed"])
        return result

    def _apply_decision_locked(self, decision) -> dict:
        """Retarget the ledger to a verified controller decision;
        call under the daemon lock + controller quiesce."""
        self._t_mult = float(decision.t_mult)
        relaxed_out = (decision.n_max >= self.healthy_n_max
                       and decision.t_mult == 1.0)
        self._control_n_max = None if relaxed_out else int(
            decision.n_max)
        self._apply_limit_locked()
        mode = ("drop" if decision.kind == "watchdog"
                else self.policy.mode)
        shed = self._shed_to_capacity_locked(mode)
        resumed: list[int] = []
        if decision.kind == "relax":
            headroom = self.controller.capacity - self.controller.active
            if self._paused and headroom > 0:
                self._rejoin_quota = max(1, math.ceil(
                    headroom / REJOIN_ROUNDS))
                resumed = self._resume_locked(limit=self._rejoin_quota)
            else:
                self._rejoin_quota = 0
        else:
            self._rejoin_quota = 0
        self._ctl.committed(decision, epoch=self.controller.epoch)
        self._window.clear()
        if self.tracer.enabled:
            for victim in shed:
                self.tracer.emit("stream_shed", round=None,
                                 stream=victim, action=mode)
            for stream in resumed:
                self.tracer.emit("stream_resume", round=None,
                                 stream=stream)
        return {"shed": shed, "resumed": resumed, "mode": mode}

    # -- crash-safe snapshots ------------------------------------------
    def snapshot_payload(self, clean: bool = False) -> dict:
        """Consistent snapshot document (see
        :mod:`repro.control.snapshot` for the format contract)."""
        with self._lock, self.controller.quiesced():
            snap = self.controller.snapshot_locked()
            payload = {
                "clean": bool(clean),
                "config_fingerprint": self.config.fingerprint(),
                "written_at": time.time(),
                "ledger": {
                    "next_stream": self._next_stream,
                    "streams": list(self._streams),
                    "paused": list(self._paused),
                    "failed_disks": sorted(self._failed_disks),
                    "slow": {str(d): f for d, f
                             in sorted(self._slow.items())},
                    "requests": snap["requests"],
                    "rejections": snap["rejections"],
                    "counters": {
                        "admitted": self._admitted.value,
                        "rejected": self._rejected.value,
                        "released": self._released.value,
                        "shed": self._shed.value,
                        "resumed": self._resumed.value,
                        "dropped": self._dropped.value,
                    },
                },
                "control": {
                    "round_index": self._round_index,
                    "t_mult": self._t_mult,
                    "control_n_max": self._control_n_max,
                    "rejoin_quota": self._rejoin_quota,
                    "window": self._window.to_dict(),
                    "controller": (self._ctl.to_dict()
                                   if self._ctl else None),
                },
                "slo": self.slo.to_dict(),
            }
        return payload

    def save_snapshot(self, clean: bool = False) -> Path | None:
        """Persist the crash-safe snapshot (no-op when unconfigured)."""
        path = self.config.snapshot_path
        if not path:
            return None
        written = write_snapshot(path, self.snapshot_payload(clean))
        self._snapshot_writes.inc()
        return written

    def _restore_snapshot(self, path: str) -> None:
        """Reinstate ledger + controller state from ``path``.

        A clean snapshot resumes ticket numbering exactly; an unclean
        one (the ``kill -9`` case) advances the ticket counter by the
        reserve so no granted ticket can ever be re-issued.
        """
        document = read_snapshot(path, self.config.fingerprint())
        ledger = document.get("ledger") or {}
        control = document.get("control") or {}
        clean = bool(document.get("clean", False))
        with self._lock, self.controller.quiesced():
            self._streams = sorted(
                int(s) for s in ledger.get("streams", ()))
            self._paused = sorted(
                int(s) for s in ledger.get("paused", ()))
            self._failed_disks = {
                int(d) for d in ledger.get("failed_disks", ())}
            self._slow = {int(d): float(f) for d, f
                          in (ledger.get("slow") or {}).items()}
            reserve = 0 if clean else TICKET_RESERVE
            self._next_stream = int(ledger.get("next_stream", 0)) + reserve
            self.controller.restore_state_locked(
                shard_actives=[len(self._streams)],
                requests=int(ledger.get("requests", 0)),
                rejections=int(ledger.get("rejections", 0)))
            self._round_index = int(control.get("round_index", 0))
            self._t_mult = float(control.get("t_mult", 1.0))
            raw_limit = control.get("control_n_max")
            self._control_n_max = (int(raw_limit)
                                   if raw_limit is not None else None)
            self._rejoin_quota = int(control.get("rejoin_quota", 0))
            window = control.get("window")
            if window:
                self._window = TelemetryWindow.from_dict(window)
            if self._ctl is not None and control.get("controller"):
                self._ctl.restore_dict(control["controller"])
            # Pre-SLO snapshots simply lack the key; the fresh
            # tracker's budget was rebuilt from the same (m, g, ε).
            if document.get("slo"):
                self.slo = SLOTracker.from_dict(document["slo"])
            self._apply_limit_locked()
            active = self.controller.active
            paused = len(self._paused)
            degraded = self.controller.degraded
        counters = ledger.get("counters") or {}
        for metric, key in ((self._admitted, "admitted"),
                            (self._rejected, "rejected"),
                            (self._released, "released"),
                            (self._shed, "shed"),
                            (self._resumed, "resumed"),
                            (self._dropped, "dropped")):
            value = float(counters.get(key, 0) or 0)
            if value > 0:
                metric.inc(value)
        self._active_gauge.set(active)
        self._paused_gauge.set(paused)
        self._degraded_gauge.set(1 if degraded else 0)
        if self._ctl is not None:
            self._control_gauge.set(self._ctl.n_max)
        self._t_mult_gauge.set(self._t_mult)
        if self._slow:
            self.registry.gauge(
                "serve_slow_disks",
                help="Disks with a live slow-disk drift factor"
                ).set(len(self._slow))
        self._restored = True
        self._restored_clean = clean
        self._restored_gauge.set(1 if clean else 2)

    # -- views ---------------------------------------------------------
    def slo_state(self) -> dict:
        """The ``GET /slo`` view: burn rates, alert state, budget."""
        return self.slo.summary()

    def refresh_export_metrics(self) -> None:
        """Refresh scrape-time derived metrics -- trace emit/drop
        counters, the SLO burn gauges, and the admission gauges -- so
        ``/metrics`` reflects this instant even between ticks.
        Idempotent, and lock-free on the hot-path state."""
        publish_trace_metrics(self.registry, self.tracer)
        self.slo.publish(self.registry)
        self._active_gauge.set(self.controller.active)
        self._epoch_gauge.set(self.controller.epoch)
        self._rebalance_gauge.set(self.controller.rebalances)

    def healthz(self) -> dict:
        """Liveness summary (lock-free counter reads only)."""
        controller = self.controller
        return {"status": ("degraded" if controller.degraded
                           else "ok"),
                "active": controller.active,
                "capacity": controller.capacity,
                "uptime_seconds": time.time() - self.started_at}

    def control_state(self) -> dict:
        """The ``/control`` view: window aggregates, controller state
        machine, live drift factors, and the operating point."""
        cfg = self.config
        with self._lock:
            out = {
                "adaptive": cfg.adaptive,
                "round_index": self._round_index,
                "t_mult": self._t_mult,
                "round_budget": cfg.t * self._t_mult,
                "control_n_max": self._control_n_max,
                "effective_n_max": self.controller.n_max_per_disk,
                "healthy_n_max": self.healthy_n_max,
                "fallback_n_max": self.degraded_n_max,
                "rejoin_quota": self._rejoin_quota,
                "slow_disks": {str(d): f for d, f
                               in sorted(self._slow.items())},
                "window": self._window.summary(cfg.m, cfg.g),
                "controller": (self._ctl.summary()
                               if self._ctl else None),
            }
        out["shards"] = {
            "epoch": self.controller.epoch,
            "debt": self.controller.debt,
            "rebalances": self.controller.rebalances,
        }
        out["snapshot"] = {
            "path": cfg.snapshot_path,
            "restored": self._restored,
            "restored_clean": self._restored_clean,
            "writes": self._snapshot_writes.value,
        }
        out["slo"] = self.slo.summary()
        return out

    def state(self) -> dict:
        """Full JSON state: controller snapshot, policy, table entries,
        failed disks, control plane, and (when tracing) the
        RunTelemetry digest of the recorded events."""
        with self._lock, self.controller.quiesced():
            controller = self.controller.snapshot_locked()
            streams = list(self._streams)
            paused = list(self._paused)
            failed = sorted(self._failed_disks)
            next_stream = self._next_stream
            slow = {str(d): f for d, f in sorted(self._slow.items())}
        state = {
            "controller": controller,
            "policy": {"mode": self.policy.mode,
                       "degraded_n_max": self.policy.degraded_n_max,
                       "target": self.policy.target(self.config.disks)},
            "table": self.table.entries(),
            "streams": streams,
            "next_stream": next_stream,
            "paused_streams": paused,
            "failed_disks": failed,
            "slow_disks": slow,
            "adaptive": self.config.adaptive,
            "t_mult": self._t_mult,
            "restored": self._restored,
            "uptime_seconds": time.time() - self.started_at,
            "build_seconds": self.build_seconds,
        }
        if self.tracer.enabled:
            telemetry = RunTelemetry.from_records(self.tracer.records())
            state["telemetry"] = {
                "faults": len(telemetry.faults),
                "sheds": len(telemetry.sheds),
                "rounds": len(telemetry.rounds),
            }
        return state
