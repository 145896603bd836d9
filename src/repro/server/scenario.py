"""Scenario compiler: arbitrary fault/trick/heterogeneous runs on the
vectorised kernel path.

A farm run whose per-disk populations are piecewise-constant can be
priced by the vectorised sweep kernel instead of the event calendar
(benches A22 and A24 time the two against each other).  This module is
the repo's one farm-level kernel engine, a two-stage pipeline:

1. :func:`compile_scenario` turns a :class:`~repro.server.faults.
   FaultSchedule` (fail/recover/slow-disk/recalibration-storm events), a
   :class:`~repro.server.faults.SheddingPolicy`, trick-mode segments
   (:class:`TrickSegment`, scan-mode fast-forward of
   :mod:`repro.core.trickmode`) and a heterogeneous mirrored farm layout
   (one :class:`~repro.disk.presets.DiskSpec` per disk) into a timeline
   of :class:`PhaseEntry` batches -- for every maximal run of rounds in
   which nothing changes, the per-disk request count, service-time
   scale, and storm parameters.
2. :func:`simulate_scenario` prices each (disk, entry) batch with
   :func:`~repro.server.simulation.simulate_rounds`, one
   ``SeedSequence([seed, 0xFA9A])`` child per disk, so results are
   **bit-identical for every ``jobs`` count**.  The ``per_disk``
   tuples of the plain failover shape (and of its drop-mode rejoin
   ramps) are pinned as literals in ``tests/server/test_sweep_kernel.py``.

Time-to-round snapping
----------------------
The event engine fires schedule entries at exact simulation times; the
kernel thinks in whole rounds.  An event at time ``tau`` takes effect
before round ``ceil(tau / t)`` dispatches (an event exactly on the
boundary ``k * t`` affects round ``k`` -- the event engine applies it
before the round's dispatch too); an event landing mid-round is snapped
*forward* to the next boundary.  A recalibration-storm window
contributes to every round whose start lies inside ``[t0, t0 +
duration)`` -- matching ``FaultInjector.round_stall`` queried at round
starts.  Events wholly past the run horizon are recorded in
:attr:`CompiledScenario.dropped_events` rather than silently ignored.

Fidelity notes (vs the event engine)
------------------------------------
Where the event engine walks every request through the calendar, the
kernel batches each (disk, entry) into one :func:`simulate_rounds`
call: it gives up the event path's per-stream bookkeeping and its exact
arm carry-over (the arm position does not carry across phase-entry
boundaries), and storm stalls are drawn from each disk's sequential
substream rather than the injector's counter-based RNG.  The two
engines are cross-validated statistically (Wilson intervals) in
``tests/server/test_scenario_compiler.py`` and
``tests/server/test_sweep_kernel.py``.  Overlapping storms on one disk
have no kernel representation (two independent Bernoulli stalls do not
fold into one), so the compiler refuses them -- use the event engine
for those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import wilson_interval
from repro.core.farm import mirror_of
from repro.core.trickmode import scan_mode_requests
from repro.disk.presets import (
    DiskSpec,
    modern_av_drive,
    quantum_viking_2_1,
    seagate_hawk_1lp,
    single_zone_viking,
)
from repro.distributions import Distribution
from repro.errors import ConfigurationError
from repro.server.faults import FaultSchedule, SheddingPolicy
from repro.server.simulation import simulate_rounds

__all__ = [
    "TrickSegment",
    "PhaseEntry",
    "CompiledScenario",
    "FarmPhaseStats",
    "FarmRoundsEstimate",
    "compile_scenario",
    "simulate_scenario",
    "analytic_phase_bounds",
    "DISK_PRESETS",
    "parse_farm_spec",
    "parse_trick_spec",
]

#: Boundary guard for the time->round conversion: an event at exactly
#: ``k * t`` affects round ``k``, not ``k + 1``.
_BOUNDARY_EPS = 1e-9

#: Named disk presets accepted by ``--farm-spec`` (heterogeneous farms
#: are given as a comma-separated list, one entry per disk).
DISK_PRESETS = {
    "quantum_viking_2_1": quantum_viking_2_1,
    "single_zone_viking": single_zone_viking,
    "seagate_hawk_1lp": seagate_hawk_1lp,
    "modern_av_drive": modern_av_drive,
}


@dataclass(frozen=True)
class TrickSegment:
    """A window of rounds during which ``n_ff`` of each disk's streams
    fast-forward in ``k``-times scan mode (:mod:`repro.core.trickmode`:
    every scan-mode stream places ``k`` requests per sweep; skip mode is
    load-neutral and needs no segment).  ``[start, end)`` are round
    indices."""

    start: int
    end: int
    n_ff: int
    k: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"trick segment needs 0 <= start < end, got "
                f"[{self.start!r}, {self.end!r})")
        if self.n_ff < 1:
            raise ConfigurationError(
                f"trick segment needs n_ff >= 1, got {self.n_ff!r}")
        if self.k < 1:
            raise ConfigurationError(
                f"trick segment needs k >= 1, got {self.k!r}")


@dataclass(frozen=True)
class PhaseEntry:
    """One maximal run of rounds with constant farm state.

    ``batches[d]`` is disk ``d``'s requests per round (0 while failed),
    ``scales[d]`` its ``slow_disk`` service-time multiplier, and
    ``recal_probs[d]``/``recal_stalls[d]`` the active storm's per-round
    stall law (0 outside storms).
    """

    name: str
    batches: tuple[int, ...]
    rounds: int
    scales: tuple[float, ...]
    recal_probs: tuple[float, ...]
    recal_stalls: tuple[float, ...]


@dataclass(frozen=True)
class CompiledScenario:
    """Output of :func:`compile_scenario`: a priced-ready timeline."""

    specs: tuple[DiskSpec, ...]
    size_dist: Distribution
    n_per_disk: int
    t: float
    rounds: int
    plan: tuple[PhaseEntry, ...]
    shedding: bool
    fail_disk: int | None
    dropped_events: tuple[str, ...]

    @property
    def disks(self) -> int:
        return len(self.specs)

    @property
    def phase_names(self) -> tuple[str, ...]:
        """Distinct phase names in first-appearance order (what the
        resulting :class:`FarmRoundsEstimate` will report)."""
        seen: list[str] = []
        for entry in self.plan:
            if entry.name not in seen:
                seen.append(entry.name)
        return tuple(seen)

    def describe(self) -> list[str]:
        """Human-readable timeline, one line per plan entry."""
        lines = []
        start = 0
        for entry in self.plan:
            parts = [f"rounds [{start}, {start + entry.rounds}): "
                     f"{entry.name}, batches={list(entry.batches)}"]
            if any(s != 1.0 for s in entry.scales):
                parts.append(f"scales={list(entry.scales)}")
            if any(p > 0.0 for p in entry.recal_probs):
                storms = {d: (p, entry.recal_stalls[d])
                          for d, p in enumerate(entry.recal_probs)
                          if p > 0.0}
                parts.append(f"storms={storms}")
            lines.append(", ".join(parts))
            start += entry.rounds
        for description in self.dropped_events:
            lines.append(f"dropped (past horizon or between round "
                         f"boundaries): {description}")
        return lines


@dataclass(frozen=True)
class FarmPhaseStats:
    """Aggregate statistics of one phase of a farm-level simulation.

    ``disk_rounds`` counts the active (disk, round) pairs of the phase
    (a failed disk contributes none); ``requests`` the fragments
    simulated across them.
    """

    name: str
    rounds: int
    disk_rounds: int
    late_disk_rounds: int
    requests: int
    glitches: int

    @property
    def p_late(self) -> float:
        """Fraction of active (disk, round) pairs that overran."""
        if self.disk_rounds == 0:
            return 0.0
        return self.late_disk_rounds / self.disk_rounds

    @property
    def glitch_rate(self) -> float:
        """Fraction of simulated requests that missed the deadline."""
        if self.requests == 0:
            return 0.0
        return self.glitches / self.requests

    def glitch_ci(self) -> tuple[float, float]:
        """Wilson 95 % interval on :attr:`glitch_rate`."""
        if self.requests == 0:
            return (0.0, 1.0)
        return wilson_interval(self.glitches, self.requests)


@dataclass(frozen=True)
class FarmRoundsEstimate:
    """Farm-level vectorised Monte-Carlo estimate.

    ``per_disk[d][p]`` is the raw ``(rounds, late, requests, glitches)``
    tuple of disk ``d`` in phase ``p`` (phases ordered as
    :attr:`phases`); the phase records aggregate over disks.
    """

    disks: int
    n_per_disk: int
    t: float
    fail_disk: int | None
    shedding: bool
    phases: tuple[FarmPhaseStats, ...]
    per_disk: tuple[tuple[tuple[int, int, int, int], ...], ...]

    def phase(self, name: str) -> FarmPhaseStats:
        """The phase record named ``name`` (raises on unknown names)."""
        for record in self.phases:
            if record.name == name:
                return record
        raise ConfigurationError(
            f"no phase {name!r}; have "
            f"{[p.name for p in self.phases]!r}")

    def survivor_degraded(self) -> FarmPhaseStats:
        """Degraded-phase statistics of the surviving mirror alone
        (the disk that absorbs the doubled batch)."""
        if self.fail_disk is None:
            raise ConfigurationError("run simulated no failure")
        partner = mirror_of(self.fail_disk, self.disks)
        if partner is None:
            raise ConfigurationError(
                f"disk {self.fail_disk} has no mirror on a farm of "
                f"{self.disks}")
        index = [p.name for p in self.phases].index("degraded")
        rounds, late, requests, glitches = self.per_disk[partner][index]
        return FarmPhaseStats(name="survivor_degraded", rounds=rounds,
                              disk_rounds=rounds, late_disk_rounds=late,
                              requests=requests, glitches=glitches)


def _round_of(tau: float, t: float) -> int:
    """First round index whose dispatch time ``r * t`` is >= ``tau``."""
    return max(0, math.ceil(tau / t - _BOUNDARY_EPS))


def _validated_trick(trick, rounds: int, n_per_disk: int):
    """Sort trick segments, clip to the horizon, refuse overlaps."""
    segments = sorted(trick, key=lambda s: s.start)
    clipped = []
    for segment in segments:
        if segment.n_ff > n_per_disk:
            raise ConfigurationError(
                f"trick segment n_ff={segment.n_ff} exceeds "
                f"n_per_disk={n_per_disk}")
        if clipped and segment.start < clipped[-1].end:
            raise ConfigurationError(
                f"trick segments overlap at round {segment.start}; "
                f"merge them into one segment")
        if segment.start >= rounds:
            continue
        clipped.append(segment)
    return clipped


def compile_scenario(specs, size_dist: Distribution, *,
                     n_per_disk: int, t: float, rounds: int,
                     schedule: FaultSchedule | None = None,
                     policy: SheddingPolicy | None = None,
                     trick=(), rejoin_rounds: int = 0,
                     instant_rejoin: bool = False) -> CompiledScenario:
    """Compile a farm scenario into constant-state phase batches.

    ``specs`` is one :class:`DiskSpec` per disk (a heterogeneous farm
    simply lists different presets); disks mirror in index pairs
    ``(0, 1), (2, 3), ...`` exactly as the event engine's RAID-1 layout.
    ``policy`` caps every disk's own batch at ``degraded_n_max`` while
    any disk is failed (``None`` disables shedding: the survivor absorbs
    the full doubled batch).  After the *last* failed disk recovers,
    ``pause``-mode policies (and ``instant_rejoin=True``) restore the
    full population at the recovery boundary -- every paused stream
    resumes -- while ``drop`` mode holds the shed level (shed streams
    never return, as in the event engine's drop mode), optionally
    ramping back over ``rejoin_rounds`` rounds: ramp round ``s`` serves
    ``kept + ceil((s + 1) / rejoin_rounds * (n_per_disk - kept))``
    streams per disk, an arrival process refilling the freed capacity.

    Per-round population state walks the schedule in event order; a
    failure during a rejoin ramp re-sheds and cancels the ramp.  The
    result merges every maximal run of identical rounds into one
    :class:`PhaseEntry` whose name encodes the state: ``healthy`` /
    ``degraded`` / ``recovered`` plus ``+slow`` / ``+storm`` /
    ``+trick`` markers, so bound-vs-observed checks see, e.g.,
    ``degraded+storm`` as its own phase.
    """
    specs = tuple(specs)
    disks = len(specs)
    if disks < 1:
        raise ConfigurationError("need at least one disk spec")
    if n_per_disk < 1:
        raise ConfigurationError(
            f"n_per_disk must be >= 1, got {n_per_disk!r}")
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds!r}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ConfigurationError(
            f"round length must be positive, got {t!r}")
    if rejoin_rounds < 0:
        raise ConfigurationError(
            f"rejoin_rounds must be >= 0, got {rejoin_rounds!r}")
    if instant_rejoin and rejoin_rounds:
        raise ConfigurationError(
            "instant_rejoin=True and rejoin_rounds are mutually "
            "exclusive (an instant rejoin has no ramp)")
    if schedule is None:
        schedule = FaultSchedule(())
    elif not isinstance(schedule, FaultSchedule):
        schedule = FaultSchedule(schedule)
    schedule.validate_disks(disks)
    segments = _validated_trick(trick, rounds, n_per_disk)

    events_by_round: dict[int, list] = {}
    storms: list[tuple[int, int, object]] = []
    dropped: list[str] = []
    for event in schedule:
        if event.kind == "recalibration_storm":
            start_r = _round_of(event.t, t)
            end_r = _round_of(event.t + event.duration, t)
            if start_r >= rounds or end_r <= start_r:
                dropped.append(event.describe())
                continue
            storms.append((start_r, min(end_r, rounds), event))
        else:
            effective = _round_of(event.t, t)
            if effective >= rounds:
                dropped.append(event.describe())
                continue
            events_by_round.setdefault(effective, []).append(event)

    trick_by_round: dict[int, tuple[int, int]] = {}
    for segment in segments:
        for r in range(segment.start, min(segment.end, rounds)):
            trick_by_round[r] = (segment.n_ff, segment.k)

    resume_instant = instant_rejoin or (
        policy is not None and policy.mode == "pause"
        and rejoin_rounds == 0)

    failed: set[int] = set()
    scale: dict[int, float] = {}
    pop = n_per_disk
    ever_recovered = False
    fail_disk_first: int | None = None
    ramp: tuple[int, int] | None = None  # (recovery round, kept level)
    # One [state, rounds] pair per maximal run of identical rounds; the
    # state tuple holds PhaseEntry's fields in declaration order, minus
    # ``rounds``.
    runs: list[list] = []

    for r in range(rounds):
        for event in events_by_round.get(r, ()):
            if event.kind == "disk_fail":
                if event.disk not in failed:
                    failed.add(event.disk)
                    if fail_disk_first is None:
                        fail_disk_first = event.disk
                    ramp = None
                    if policy is not None:
                        pop = min(pop, policy.degraded_n_max)
            elif event.kind == "disk_recover":
                if event.disk in failed:
                    failed.discard(event.disk)
                    if not failed:
                        ever_recovered = True
                        if pop >= n_per_disk:
                            pass
                        elif resume_instant:
                            pop = n_per_disk
                        elif rejoin_rounds > 0:
                            ramp = (r, pop)
            elif event.kind == "slow_disk":
                if event.factor == 1.0:
                    scale.pop(event.disk, None)
                else:
                    scale[event.disk] = event.factor

        if ramp is not None and not failed:
            recovery_round, kept = ramp
            step = r - recovery_round
            if step >= rejoin_rounds:
                pop = n_per_disk
                ramp = None
            else:
                pop = min(n_per_disk, kept + math.ceil(
                    (step + 1) / rejoin_rounds * (n_per_disk - kept)))

        probs = [0.0] * disks
        stalls = [0.0] * disks
        for start_r, end_r, storm in storms:
            if not (start_r <= r < end_r):
                continue
            targets = range(disks) if storm.disk is None else (storm.disk,)
            for d in targets:
                if probs[d] > 0.0:
                    raise ConfigurationError(
                        f"overlapping recalibration storms on disk {d} "
                        f"at round {r} cannot be compiled to the kernel "
                        f"path (two independent stall draws per round); "
                        f"use the event engine")
                probs[d] = storm.prob
                stalls[d] = storm.stall

        tk = trick_by_round.get(r)
        batches = []
        for d in range(disks):
            if d in failed:
                batches.append(0)
                continue
            group_count = 1
            for f in failed:
                if mirror_of(f, disks) == d:
                    group_count += 1
            if pop < 1:
                batches.append(0)
                continue
            if tk is not None:
                n_ff = min(tk[0], pop)
                per_group = scan_mode_requests(pop - n_ff, n_ff, tk[1])
            else:
                per_group = pop
            batches.append(group_count * per_group)

        if failed:
            base = "degraded"
        elif ever_recovered:
            base = "recovered"
        else:
            base = "healthy"
        suffix = ""
        if any(scale.get(d, 1.0) != 1.0 for d in range(disks)
               if d not in failed):
            suffix += "+slow"
        if any(probs[d] > 0.0 for d in range(disks) if d not in failed):
            suffix += "+storm"
        if tk is not None:
            suffix += "+trick"
        name = base + suffix

        state = (name, tuple(batches),
                 tuple(scale.get(d, 1.0) for d in range(disks)),
                 tuple(probs), tuple(stalls))
        if runs and runs[-1][0] == state:
            runs[-1][1] += 1
        else:
            runs.append([state, 1])

    plan = tuple(
        PhaseEntry(name=name, batches=batches, rounds=count, scales=scales,
                   recal_probs=recal_probs, recal_stalls=recal_stalls)
        for (name, batches, scales, recal_probs, recal_stalls), count
        in runs)
    return CompiledScenario(
        specs=specs, size_dist=size_dist, n_per_disk=n_per_disk, t=t,
        rounds=rounds, plan=plan,
        shedding=policy is not None, fail_disk=fail_disk_first,
        dropped_events=tuple(dropped))


def _simulate_disk_phases(task):
    """Worker: one disk's rounds through every plan entry (module-level
    so it pickles into pool workers).

    ``task`` is ``(spec, size_dist, t, phases, seed_sequence)`` with
    ``phases`` a tuple of ``(name, batch, rounds, service_scale,
    recal_prob, recal_stall)`` entries.  The disk's RNG is carried
    across entries, and an entry with an empty batch draws nothing, so
    results are bit-identical regardless of how disks are spread over
    workers.
    """
    spec, size_dist, t, phases, child = task
    rng = np.random.default_rng(child)
    results = []
    for _name, batch, rounds, scale, recal_prob, recal_stall in phases:
        if batch < 1 or rounds < 1:
            results.append((0, 0, 0, 0))
            continue
        batch_result = simulate_rounds(spec, size_dist, batch, t, rounds,
                                       rng, recal_prob=recal_prob,
                                       recal_duration=recal_stall,
                                       service_scale=scale)
        late = int(np.sum(batch_result.service_times > t))
        glitches = int(np.sum(batch_result.glitches))
        results.append((rounds, late, rounds * batch, glitches))
    return tuple(results)


def _column_sums(rows) -> tuple[int, ...]:
    """Element-wise sum of equal-length count tuples."""
    return tuple(map(sum, zip(*rows)))


def _group_phase_results(plan, per_disk, disks):
    """Aggregate per-(disk, plan-entry) raw tuples into named phases.

    Consecutive plan entries sharing a name are merged (a rejoin ramp
    or a change of slow-disk factor splits one logical phase into
    several entries),
    yielding the ``(phases, per_disk)`` pair of
    :class:`FarmRoundsEstimate`.
    """
    groups: list[tuple[str, list[int], int]] = []
    for index, entry in enumerate(plan):
        if groups and groups[-1][0] == entry.name:
            name, indices, rounds = groups[-1]
            groups[-1] = (name, indices + [index], rounds + entry.rounds)
        else:
            groups.append((entry.name, [index], entry.rounds))

    grouped_per_disk = tuple(
        tuple(_column_sums(per_disk[disk][index] for index in indices)
              for _name, indices, _rounds in groups)
        for disk in range(disks))
    phases = tuple(
        FarmPhaseStats(name, group_rounds,
                       *_column_sums(row[group] for row in grouped_per_disk))
        for group, (name, _indices, group_rounds) in enumerate(groups))
    return phases, grouped_per_disk


def simulate_scenario(compiled: CompiledScenario, *, seed: int = 0,
                      jobs: int | None = None) -> FarmRoundsEstimate:
    """Price a compiled scenario on the vectorised sweep kernel.

    Disk ``d`` draws every plan entry from ``SeedSequence([seed,
    0xFA9A]).spawn(disks)[d]``, so any scenario is bit-identical across
    ``jobs`` counts.  ``jobs`` fans the disks out over
    :func:`repro.parallel.fan_out` (``None`` runs serially in-process).
    """
    disks = compiled.disks
    root = np.random.SeedSequence([seed, 0xFA9A])
    tasks = []
    for d, child in enumerate(root.spawn(disks)):
        phases = tuple(
            (entry.name, entry.batches[d], entry.rounds, entry.scales[d],
             entry.recal_probs[d], entry.recal_stalls[d])
            for entry in compiled.plan)
        tasks.append((compiled.specs[d], compiled.size_dist, compiled.t,
                      phases, child))
    if jobs is not None:
        # Looked up on the module at call time, so a wrapper installed
        # on ``repro.parallel.fan_out`` sees this fan-out too.
        from repro import parallel
        per_disk = parallel.fan_out(_simulate_disk_phases, tasks,
                                    parallel.resolve_jobs(jobs))
    else:
        per_disk = [_simulate_disk_phases(task) for task in tasks]
    phases, grouped_per_disk = _group_phase_results(compiled.plan,
                                                    per_disk, disks)
    return FarmRoundsEstimate(
        disks=disks, n_per_disk=compiled.n_per_disk, t=compiled.t,
        fail_disk=compiled.fail_disk, shedding=compiled.shedding,
        phases=phases, per_disk=grouped_per_disk)


def analytic_phase_bounds(compiled: CompiledScenario
                          ) -> dict[str, float | None]:
    """Worst-disk Chernoff lateness bound per compiled phase name.

    For every phase the bound is the maximum, over plan entries of that
    name and over serving disks, of the per-disk model's ``b_late``
    at the disk's batch -- storm entries fold the stall law in via
    :func:`repro.core.faults.with_recalibration` (the analytic
    disturbance term).  A ``slow_disk`` scale has no analytic
    transform, so any phase containing one maps to ``None`` (observed
    rates are still reported; there is just no bound to compare
    against).  Phases in which no disk serves also map to ``None``.
    """
    from repro.core.faults import with_recalibration
    from repro.core.service_time import RoundServiceTimeModel

    models = [RoundServiceTimeModel.for_disk(spec, compiled.size_dist)
              for spec in compiled.specs]
    cache: dict[tuple, float] = {}
    bounds: dict[str, float | None] = {}
    unbounded: set[str] = set()
    for entry in compiled.plan:
        name = entry.name
        bounds.setdefault(name, None)
        if name in unbounded:
            continue
        for d in range(compiled.disks):
            batch = entry.batches[d]
            if batch < 1:
                continue
            if entry.scales[d] != 1.0:
                unbounded.add(name)
                bounds[name] = None
                break
            key = (d, entry.recal_probs[d], entry.recal_stalls[d], batch)
            if key not in cache:
                model = models[d]
                if entry.recal_probs[d] > 0.0:
                    model = with_recalibration(model, entry.recal_probs[d],
                                               entry.recal_stalls[d])
                cache[key] = float(model.b_late(batch, compiled.t))
            current = bounds[name]
            if current is None or cache[key] > current:
                bounds[name] = cache[key]
    return bounds


def parse_trick_spec(text: str) -> TrickSegment:
    """Parse a CLI ``--trick START:END:NFF:K`` segment."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigurationError(
            f"--trick expects START:END:NFF:K, got {text!r}")
    try:
        start, end, n_ff, k = (int(part) for part in parts)
    except ValueError:
        raise ConfigurationError(
            f"--trick fields must be integers, got {text!r}") from None
    return TrickSegment(start=start, end=end, n_ff=n_ff, k=k)


def parse_farm_spec(text: str) -> tuple[DiskSpec, ...]:
    """Parse a CLI ``--farm-spec name,name,...`` heterogeneous layout."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ConfigurationError("--farm-spec needs at least one preset")
    specs = []
    for name in names:
        factory = DISK_PRESETS.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown disk preset {name!r}; known: "
                f"{sorted(DISK_PRESETS)}")
        specs.append(factory())
    return tuple(specs)
