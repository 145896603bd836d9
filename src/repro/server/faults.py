"""Runtime fault injection and graceful degradation.

The analytic side of the repo can already *price* failures --
:mod:`repro.core.faults` folds thermal recalibration into the MGF and
:func:`repro.core.farm.degraded_mode_n_max` computes the doubled-batch
RAID-1 bound -- but until now the discrete-event server had no way to
actually lose a disk mid-run.  This module closes that gap:

- a **schedule DSL** (:func:`disk_fail`, :func:`disk_recover`,
  :func:`slow_disk`, :func:`recalibration_storm`) assembling a
  :class:`FaultSchedule`, loadable from TOML for CLI/CI use;
- a deterministic, seedable :class:`FaultInjector` that the
  :class:`~repro.server.server.MediaServer` and its per-disk schedulers
  query for device state -- every answer is a pure function of
  ``(schedule, seed, disk, round, now)``, so repeated runs produce
  identical :class:`~repro.server.server.ServerReport` objects;
- a **load-shedding policy** (:class:`SheddingPolicy`) that re-plans at
  every round boundary: while a disk is down, the newest streams are
  paused (or dropped) until the per-disk batch meets the degraded-mode
  bound, and resumed once capacity returns;
- an end-to-end **scenario runner** (:func:`run_failover_scenario`)
  shared by the CLI (``repro simulate --faults``), bench A21 and the
  test suite, which validates that shedding keeps every surviving
  stream's simulated glitch rate within the analytic degraded-mode
  Chernoff bound.

Determinism contract: nothing here reads wall-clock time or global RNG
state.  Recalibration-storm stalls are drawn from
``default_rng([seed, storm, disk, round])`` so they depend only on the
coordinates, never on query order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.farm import degraded_mode_n_max, shed_target
from repro.errors import ConfigurationError
from repro.obs.trace import NULL_TRACER

__all__ = [
    "FaultEvent",
    "disk_fail",
    "disk_recover",
    "slow_disk",
    "recalibration_storm",
    "FaultSchedule",
    "FaultInjector",
    "SheddingPolicy",
    "ScenarioResult",
    "run_failover_scenario",
]

_KINDS = ("disk_fail", "disk_recover", "slow_disk", "recalibration_storm")

#: Default recalibration stall length (seconds) -- the "tens of
#: milliseconds" of the paper's hardware generation.
DEFAULT_STALL = 0.05


@dataclass(frozen=True)
class FaultEvent:
    """One entry of a fault schedule.

    ``t`` is absolute simulation time in seconds.  ``disk`` is the
    target drive; ``None`` targets the whole farm (storms only).
    """

    kind: str
    t: float
    disk: int | None = None
    factor: float = 1.0
    prob: float = 0.0
    duration: float = 0.0
    stall: float = DEFAULT_STALL

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {_KINDS}")
        if not (self.t >= 0.0 and np.isfinite(self.t)):
            raise ConfigurationError(
                f"fault time must be >= 0, got {self.t!r}")
        if self.kind in ("disk_fail", "disk_recover", "slow_disk"):
            if self.disk is None or self.disk < 0:
                raise ConfigurationError(
                    f"{self.kind} needs a disk index >= 0, "
                    f"got {self.disk!r}")
        if self.kind == "slow_disk" and not (self.factor > 0.0
                                             and np.isfinite(self.factor)):
            raise ConfigurationError(
                f"slow_disk factor must be positive, got {self.factor!r}")
        if self.kind == "recalibration_storm":
            if not (0.0 <= self.prob < 1.0):
                raise ConfigurationError(
                    f"storm prob must be in [0, 1), got {self.prob!r}")
            if self.duration <= 0.0:
                raise ConfigurationError(
                    f"storm duration must be positive, "
                    f"got {self.duration!r}")
            if self.stall <= 0.0:
                raise ConfigurationError(
                    f"storm stall must be positive, got {self.stall!r}")

    def describe(self) -> str:
        """Human-readable one-liner for event logs."""
        where = "farm" if self.disk is None else f"disk {self.disk}"
        if self.kind == "disk_fail":
            return f"t={self.t:g}: {where} failed"
        if self.kind == "disk_recover":
            return f"t={self.t:g}: {where} recovered"
        if self.kind == "slow_disk":
            return f"t={self.t:g}: {where} service x{self.factor:g}"
        return (f"t={self.t:g}: recalibration storm on {where} "
                f"(p={self.prob:g}, {self.duration:g}s, "
                f"stall {self.stall:g}s)")


def disk_fail(t: float, disk: int = 0) -> FaultEvent:
    """Disk ``disk`` stops serving at time ``t`` (seconds)."""
    return FaultEvent("disk_fail", t, disk=disk)


def disk_recover(t: float, disk: int = 0) -> FaultEvent:
    """Disk ``disk`` returns to service at time ``t``."""
    return FaultEvent("disk_recover", t, disk=disk)


def slow_disk(t: float, factor: float, disk: int = 0) -> FaultEvent:
    """From time ``t``, every service on ``disk`` takes ``factor``
    times as long (``factor=1`` restores full speed)."""
    return FaultEvent("slow_disk", t, disk=disk, factor=factor)


def recalibration_storm(t: float, prob: float, duration: float,
                        stall: float = DEFAULT_STALL,
                        disk: int | None = None) -> FaultEvent:
    """During ``[t, t + duration)`` each round on the targeted disk(s)
    suffers a ``stall``-second thermal-recalibration seizure with
    probability ``prob`` (cf. :mod:`repro.core.faults`)."""
    return FaultEvent("recalibration_storm", t, disk=disk, prob=prob,
                      duration=duration, stall=stall)


class FaultSchedule:
    """An ordered, validated collection of :class:`FaultEvent`."""

    def __init__(self, events=()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.t, _KINDS.index(e.kind))))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate_disks(self, disks: int) -> None:
        """Check every targeted disk exists on a ``disks``-drive farm."""
        for event in self.events:
            if event.disk is not None and event.disk >= disks:
                raise ConfigurationError(
                    f"fault event targets disk {event.disk} but the "
                    f"farm has {disks} disk(s): {event.describe()}")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Build a schedule from a parsed TOML/JSON mapping.

        Expected shape: ``{"events": [{"kind": ..., "t": ..., ...}]}``.
        """
        raw = data.get("events")
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError(
                "fault schedule needs a non-empty [[events]] list")
        events = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"events[{index}] must be a table, got {entry!r}")
            entry = dict(entry)
            kind = entry.pop("kind", None)
            t = entry.pop("t", None)
            if kind is None or t is None:
                raise ConfigurationError(
                    f"events[{index}] needs 'kind' and 't' keys")
            known = {"disk", "factor", "prob", "duration", "stall"}
            unknown = set(entry) - known
            if unknown:
                raise ConfigurationError(
                    f"events[{index}] has unknown keys {sorted(unknown)}")
            events.append(FaultEvent(str(kind), float(t), **entry))
        return cls(events)

    @classmethod
    def from_toml(cls, path: str | Path) -> "FaultSchedule":
        """Load a schedule from a TOML file (see
        ``examples/single_disk_failure.toml``)."""
        import tomllib

        raw = Path(path).read_bytes()
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"cannot parse fault schedule {path}: {exc}") from exc
        return cls.from_dict(data)


class FaultInjector:
    """Deterministic runtime device-state oracle for a fault schedule.

    The server binds the injector to its engine at construction
    (:meth:`bind`); each scheduled event then fires as a calendar
    callback at its exact simulation time, appending to :attr:`log` and
    flipping the per-disk state that :meth:`available`,
    :meth:`service_scale` and :meth:`round_stall` report.  All queries
    are pure in ``(schedule, seed, arguments)``, so two runs of the same
    scenario -- or the same injector re-bound to a fresh server --
    produce identical behaviour.
    """

    def __init__(self, schedule, seed: int = 0) -> None:
        if not isinstance(schedule, FaultSchedule):
            schedule = FaultSchedule(schedule)
        self.schedule = schedule
        self.seed = int(seed)
        #: ``(t, description)`` entries, appended as events fire.
        self.log: list[tuple[float, str]] = []
        #: Structured tracer (the server installs its own before bind);
        #: every fired event is mirrored as a ``fault`` trace record.
        self.tracer = NULL_TRACER
        self._failed: set[int] = set()
        self._scale: dict[int, float] = {}
        # Storms are static windows; index them once for stall draws.
        self._storms = [(i, e) for i, e in enumerate(schedule)
                        if e.kind == "recalibration_storm"]
        self._bound = False

    # ------------------------------------------------------------------
    def bind(self, engine, disks: int) -> None:
        """Register every scheduled event on the engine calendar.

        One injector drives one server run; binding twice is a
        configuration error (it would double-apply the schedule).
        """
        if self._bound:
            raise ConfigurationError(
                "FaultInjector is already bound to a server")
        self.schedule.validate_disks(disks)
        self._bound = True
        for event in self.schedule:
            engine.at(event.t,
                      lambda event=event: self._apply(event, event.t))

    def _apply(self, event: FaultEvent, now: float) -> None:
        if event.kind == "disk_fail":
            self._failed.add(event.disk)
        elif event.kind == "disk_recover":
            self._failed.discard(event.disk)
        elif event.kind == "slow_disk":
            self._scale[event.disk] = event.factor
        # Storm windows need no state: they are answered from the
        # schedule itself in round_stall().
        self.log.append((now, event.describe()))
        if self.tracer.enabled:
            self.tracer.emit("fault", t=now, desc=event.describe(),
                             fault_kind=event.kind, disk=event.disk)

    # ------------------------------------------------------------------
    # device-state queries (used by MediaServer and DiskScheduler)
    # ------------------------------------------------------------------
    def failed_disks(self) -> frozenset[int]:
        """Disks currently out of service."""
        return frozenset(self._failed)

    def available(self, disk: int) -> bool:
        """Whether ``disk`` is serving right now."""
        return disk not in self._failed

    def service_scale(self, disk: int) -> float:
        """Current service-time multiplier of ``disk``."""
        return self._scale.get(disk, 1.0)

    def round_stall(self, disk: int, round_index: int,
                    now: float) -> float:
        """Recalibration stall charged to ``disk`` at the start of
        ``round_index``, given the sweep begins at time ``now``.

        Each active storm contributes its stall with probability
        ``prob``; draws come from a counter-based RNG keyed by
        ``(seed, storm, disk, round)``, so the answer never depends on
        how many times -- or in what order -- state was queried.
        """
        total = 0.0
        for storm_index, storm in self._storms:
            if storm.disk is not None and storm.disk != disk:
                continue
            if not (storm.t <= now < storm.t + storm.duration):
                continue
            draw = np.random.default_rng(
                [self.seed, storm_index, disk, round_index]).random()
            if draw < storm.prob:
                total += storm.stall
        return total


@dataclass(frozen=True)
class SheddingPolicy:
    """Load-shedding/downgrade policy for degraded-mode operation.

    While any disk is failed, the server pauses (``mode="pause"``) or
    closes (``mode="drop"``) its newest streams until at most
    ``disks * degraded_n_max`` are serving -- the level at which the
    survivor's doubled batch still meets the round deadline with
    probability ``1 - delta`` (:func:`repro.core.farm.shed_target`).
    Paused streams resume, oldest first, as soon as capacity returns.
    """

    degraded_n_max: int
    mode: str = "pause"

    def __post_init__(self) -> None:
        if self.degraded_n_max < 0:
            raise ConfigurationError(
                f"degraded_n_max must be >= 0, "
                f"got {self.degraded_n_max!r}")
        if self.mode not in ("pause", "drop"):
            raise ConfigurationError(
                f"mode must be 'pause' or 'drop', got {self.mode!r}")

    @classmethod
    def from_model(cls, spec, size_dist, t: float, delta: float,
                   mode: str = "pause", multizone: bool = True
                   ) -> "SheddingPolicy":
        """Derive the degraded limit from the analytic model
        (:func:`repro.core.farm.degraded_mode_n_max`)."""
        _healthy, failure_proof = degraded_mode_n_max(
            spec, size_dist, t, delta, multizone=multizone)
        return cls(degraded_n_max=failure_proof, mode=mode)

    def target(self, disks: int) -> int:
        """Farm-wide serving-stream target while degraded."""
        return shed_target(disks, self.degraded_n_max)


# ----------------------------------------------------------------------
# End-to-end failover scenario (CLI ``simulate --faults``, bench A21,
# tests)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one :func:`run_failover_scenario` run."""

    report: object                  # ServerReport
    healthy_n_max: int              # per-disk healthy limit
    degraded_n_max: int             # per-disk failure-proof limit
    delta: float                    # round-lateness tolerance
    streams_opened: int
    survivors: int                  # streams never paused/dropped
    survivor_glitch_rates: tuple[float, ...]
    aggregate_glitch_rate: float    # survivor glitches / requests
    max_glitch_rate: float
    shedding: bool

    @property
    def within_bound(self) -> bool:
        """Whether every surviving stream's simulated glitch rate met
        the analytic degraded-mode tolerance ``delta``."""
        return self.max_glitch_rate <= self.delta


def run_failover_scenario(spec, size_dist, *, specs=None, disks: int = 2,
                          t: float = 1.0, delta: float = 0.01,
                          rounds: int = 300, n_per_disk: int | None = None,
                          fail_disk: int = 0, fail_round: int = 40,
                          recover_round: int | None = None,
                          shedding: bool = True, shed_mode: str = "pause",
                          schedule: FaultSchedule | None = None,
                          seed: int = 0, tracer=NULL_TRACER,
                          metrics=None) -> ScenarioResult:
    """Drive a mirrored farm through a single-disk failure.

    Opens ``n_per_disk * disks`` streams (default: the healthy analytic
    limit), fails ``fail_disk`` at the ``fail_round`` boundary (or runs
    an explicit ``schedule`` instead), and reports per-stream glitch
    rates of the *surviving* (never shed) streams against the
    degraded-mode tolerance ``delta``.  With ``shedding=False`` the
    survivor of the mirrored pair absorbs the full doubled batch -- the
    configuration the paper's guarantee cannot cover, which the bench
    shows violating the bound.

    ``specs`` optionally gives a heterogeneous layout, one
    :class:`~repro.disk.presets.DiskSpec` per disk in mirror-pair order
    (it must match ``disks``); the analytic limits then bind at the
    weakest disk, the farm-admission rule of :mod:`repro.core.farm`.
    The homogeneous ``spec`` argument is ignored when ``specs`` is
    given.

    An enabled ``tracer`` records the whole run and stamps the header
    with the analytic per-sweep bounds the phases are judged against
    (``bound_healthy`` at the opened per-disk load, ``bound_degraded``
    at the shed doubled batch), making the trace self-contained for
    ``repro observe``.  ``metrics`` is an optional
    :class:`repro.obs.metrics.MetricsRegistry` handed to the server.
    """
    # Imported here: server.server imports this module's injector types.
    from repro.server.admission import AdmissionController
    from repro.server.server import MediaServer

    if disks < 2 or disks % 2:
        raise ConfigurationError(
            f"failover scenarios need an even farm of >= 2 disks, "
            f"got {disks!r}")
    if rounds < 2:
        raise ConfigurationError(f"rounds must be >= 2, got {rounds!r}")
    if specs is not None:
        specs = list(specs)
        if len(specs) != disks:
            raise ConfigurationError(
                f"specs must list one DiskSpec per disk: got "
                f"{len(specs)} for a farm of {disks}")
    else:
        specs = [spec] * disks
    # Weakest-disk limits: on a striped farm every disk serves the same
    # batch, so admission -- healthy and degraded -- binds at the
    # slowest drive.
    limits = [degraded_mode_n_max(s, size_dist, t, delta) for s in specs]
    healthy = min(limit[0] for limit in limits)
    failure_proof = min(limit[1] for limit in limits)
    if n_per_disk is None:
        n_per_disk = healthy
    if n_per_disk < 1:
        raise ConfigurationError(
            f"n_per_disk must be >= 1, got {n_per_disk!r}")
    if schedule is None:
        if not (0 < fail_round < rounds):
            raise ConfigurationError(
                f"fail_round must be in (0, {rounds}), got {fail_round!r}")
        events = [disk_fail(fail_round * t, fail_disk)]
        if recover_round is not None:
            if not (fail_round < recover_round):
                raise ConfigurationError(
                    "recover_round must come after fail_round")
            events.append(disk_recover(recover_round * t, fail_disk))
        schedule = FaultSchedule(events)

    injector = FaultInjector(schedule, seed=seed)
    policy = (SheddingPolicy(failure_proof, mode=shed_mode)
              if shedding else None)
    admission = AdmissionController(n_per_disk, disks=disks)
    if tracer.enabled:
        # Stamp the analytic per-sweep bounds into the header *before*
        # any other record (validation requires run_start first): the
        # healthy phase is judged at the opened per-disk load, the
        # degraded phase at the shed doubled batch on the survivor.
        from repro.core import RoundServiceTimeModel

        models = [RoundServiceTimeModel.for_disk(s, size_dist)
                  for s in specs]
        degraded_bound = (max(float(m.b_late(2 * failure_proof, t))
                              for m in models)
                          if failure_proof > 0 else None)
        tracer.start_run(
            seed=seed, mode="faults", disks=disks, t=t, rounds=rounds,
            n_per_disk=n_per_disk, shedding=shedding,
            shed_mode=shed_mode if shedding else None,
            healthy_n_max=healthy, degraded_n_max=failure_proof,
            delta=delta,
            bound_healthy=max(float(m.b_late(n_per_disk, t))
                              for m in models),
            bound_degraded=degraded_bound)
    server = MediaServer(specs, t, admission=admission,
                         seed=seed, fault_injector=injector,
                         shedding=policy, mirrored=True,
                         tracer=tracer, metrics=metrics)

    # One object per stream, spanning the whole run, sizes drawn from
    # the scenario's own substream so the layout RNG stays untouched.
    size_rng = np.random.default_rng(
        np.random.SeedSequence([seed, 0xFA017]))
    total = n_per_disk * disks
    streams = []
    for index in range(total):
        sizes = np.asarray(size_dist.sample(size_rng, rounds), dtype=float)
        name = f"object-{index}"
        server.store_object(name, sizes)
        streams.append(server.open_stream(name))
    report = server.run_rounds(rounds)
    if tracer.enabled:
        tracer.end_run()

    survivors = [s for s in streams
                 if s.stats.pauses == 0 and not s.stats.shed
                 and s.stats.requested > 0]
    rates = tuple(s.stats.glitch_rate() for s in survivors)
    glitches = sum(s.stats.glitches for s in survivors)
    requested = sum(s.stats.requested for s in survivors)
    return ScenarioResult(
        report=report,
        healthy_n_max=healthy,
        degraded_n_max=failure_proof,
        delta=delta,
        streams_opened=total,
        survivors=len(survivors),
        survivor_glitch_rates=rates,
        aggregate_glitch_rate=glitches / requested if requested else 0.0,
        max_glitch_rate=max(rates) if rates else 0.0,
        shedding=shedding,
    )
