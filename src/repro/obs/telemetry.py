"""Run telemetry: observed behaviour vs the analytic guarantee.

:class:`RunTelemetry` reconstructs, from a recorded trace (see
:mod:`repro.obs.trace`), the quantities the paper's guarantee speaks
about -- per-(disk, round) sweep service times, round overruns,
per-round glitch counts -- and joins them against the analytic
``b_late`` bounds the run was admitted under.  The producing side
stamps those bounds into the ``run_start`` header (the CLI's
``simulate --faults --trace`` path does), so a trace file is
self-contained: ``repro observe trace.jsonl`` needs no model rebuild.

Rounds are classified into *phases* by the fault state recorded at
dispatch time: a round is ``degraded`` when any disk was failed when
its batches were built, ``healthy`` otherwise.  The guarantee is
checked per phase -- healthy rounds against the healthy ``b_late``
bound, degraded rounds against the degraded-mode (shed doubled-batch)
bound -- and phases whose empirical overrun rate exceeds their bound
are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SweepRecord", "RoundInfo", "BoundComparison",
           "ClassLatency", "RunTelemetry", "bound_table_from_estimate"]


@dataclass(frozen=True)
class SweepRecord:
    """One disk's SCAN sweep of one round, as recorded in the trace."""

    round_index: int
    disk: int
    service: float          # sweep service time in seconds
    late: bool              # True when the sweep overran its deadline
    served: int             # physical requests served on time
    glitched: int           # physical requests late or abandoned

    @property
    def requests(self) -> int:
        """Physical requests in the sweep's batch."""
        return self.served + self.glitched


@dataclass
class RoundInfo:
    """Per-round state joined from dispatch and sweep records."""

    round_index: int
    degraded: bool = False
    active_streams: int = 0
    failed_disks: tuple[int, ...] = ()
    glitches: int = 0
    sweeps: list[SweepRecord] = field(default_factory=list)

    @property
    def max_service(self) -> float:
        """Slowest sweep of the round (0.0 when no disk had work)."""
        return max((s.service for s in self.sweeps), default=0.0)

    @property
    def late(self) -> bool:
        """Whether any disk's sweep overran in this round."""
        return any(s.late for s in self.sweeps)


@dataclass
class ClassLatency:
    """Fragment-completion latencies of one stream class.

    Latency is measured from the round boundary the fragment's batch
    was dispatched at to the simulation instant the transfer finished
    (the server's ``latency_batch`` records carry it per delivered
    fragment).  Kept as raw samples -- traces are ring-bounded -- so
    any quantile is exact.
    """

    klass: str
    samples: list[float] = field(default_factory=list)
    streams: set[int] = field(default_factory=set)

    @property
    def count(self) -> int:
        """Delivered fragments observed for this class."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Mean completion latency in seconds (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def max(self) -> float:
        """Slowest completion in seconds (0.0 when empty)."""
        return max(self.samples, default=0.0)

    def quantile(self, q: float) -> float:
        """Exact sample quantile (nearest-rank with interpolation)."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        position = q * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction

    def histogram(self, bounds) -> list[int]:
        """Counts per bucket: ``counts[i]`` holds samples <=
        ``bounds[i]``, with one overflow bucket appended."""
        edges = sorted(float(b) for b in bounds)
        counts = [0] * (len(edges) + 1)
        for sample in self.samples:
            for index, edge in enumerate(edges):
                if sample <= edge:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
        return counts


@dataclass(frozen=True)
class BoundComparison:
    """Observed overrun rate of one phase against its analytic bound."""

    phase: str              # "healthy" | "degraded"
    rounds: int             # rounds in the phase
    disk_rounds: int        # (disk, round) sweeps observed
    late_disk_rounds: int   # sweeps that overran
    observed_p_late: float
    bound: float | None     # analytic b_late; None when not recorded

    @property
    def within_bound(self) -> bool | None:
        """True/False against the bound; None when no bound is known
        or the phase is empty."""
        if self.bound is None or self.disk_rounds == 0:
            return None
        return self.observed_p_late <= self.bound


def bound_table_from_estimate(estimate, bounds) -> list[BoundComparison]:
    """Observed vs analytic ``p_late`` for a kernel-path estimate.

    The statistical engine produces a
    :class:`~repro.server.scenario.FarmRoundsEstimate` rather than a
    trace, but its per-phase records carry exactly the counts a
    :class:`BoundComparison` needs; ``bounds`` maps phase names to
    analytic ``b_late`` values (``None`` entries -- e.g. slow-disk
    phases with no analytic transform -- yield undecided comparisons,
    mirroring a trace with no recorded bound).  One row per estimate
    phase, in timeline order, so the compiled-scenario CLI path and
    ``repro observe`` render the same table shape.
    """
    table = []
    for phase in estimate.phases:
        bound = bounds.get(phase.name) if bounds else None
        table.append(BoundComparison(
            phase=phase.name, rounds=phase.rounds,
            disk_rounds=phase.disk_rounds,
            late_disk_rounds=phase.late_disk_rounds,
            observed_p_late=phase.p_late,
            bound=float(bound) if bound is not None else None))
    return table


class RunTelemetry:
    """Joined view over one recorded run.

    Build with :meth:`from_records` (a list of trace record dicts, e.g.
    from :func:`repro.obs.trace.read_trace`).  All accessors are cheap;
    the join happens once at construction.
    """

    def __init__(self, header: dict, rounds: dict[int, RoundInfo],
                 faults: list[dict], sheds: list[dict],
                 latencies: dict[str, ClassLatency] | None = None
                 ) -> None:
        self.header = header
        self.rounds = rounds
        self.faults = faults
        self.sheds = sheds
        #: Per-stream-class fragment-completion latency accumulators,
        #: keyed by class label (from ``latency_batch`` records).
        self.latencies = latencies if latencies is not None else {}

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records) -> "RunTelemetry":
        """Join a trace into per-round telemetry.

        Tolerates traces without a header (all bounds then unknown) so
        partial ring-buffer dumps still summarise.
        """
        header: dict = {}
        rounds: dict[int, RoundInfo] = {}
        faults: list[dict] = []
        sheds: list[dict] = []
        latencies: dict[str, ClassLatency] = {}

        def info(round_index: int) -> RoundInfo:
            entry = rounds.get(round_index)
            if entry is None:
                entry = rounds[round_index] = RoundInfo(round_index)
            return entry

        for record in records:
            kind = record.get("kind")
            if kind == "run_start":
                header = dict(record)
            elif kind == "round_dispatch":
                entry = info(int(record["round"]))
                failed = tuple(record.get("failed_disks") or ())
                entry.failed_disks = failed
                entry.degraded = bool(failed)
                entry.active_streams = int(
                    record.get("active_streams", 0))
            elif kind == "sweep":
                entry = info(int(record["round"]))
                entry.sweeps.append(SweepRecord(
                    round_index=int(record["round"]),
                    disk=int(record["disk"]),
                    service=float(record["service"]),
                    late=bool(record["late"]),
                    served=int(record["served"]),
                    glitched=int(record["glitched"])))
            elif kind == "fragment_glitch":
                info(int(record["round"])).glitches += 1
            elif kind == "latency_batch":
                streams = record.get("streams") or ()
                values = record.get("latencies") or ()
                classes = record.get("classes") or ()
                for position, stream in enumerate(streams):
                    if position >= len(values):
                        break
                    klass = (str(classes[position])
                             if position < len(classes) else "standard")
                    entry = latencies.get(klass)
                    if entry is None:
                        entry = latencies[klass] = ClassLatency(klass)
                    entry.samples.append(float(values[position]))
                    entry.streams.add(int(stream))
            elif kind == "fault":
                faults.append(record)
            elif kind in ("stream_shed", "stream_resume"):
                sheds.append(record)
        return cls(header, rounds, faults, sheds, latencies)

    # ------------------------------------------------------------------
    @property
    def round_count(self) -> int:
        """Rounds with any recorded activity."""
        return len(self.rounds)

    def sweeps(self) -> list[SweepRecord]:
        """Every recorded sweep, in (round, disk) order."""
        out = []
        for round_index in sorted(self.rounds):
            out.extend(sorted(self.rounds[round_index].sweeps,
                              key=lambda s: s.disk))
        return out

    def glitch_timeline(self) -> list[tuple[int, int]]:
        """``(round, glitch count)`` for every round with glitches."""
        return [(r, self.rounds[r].glitches)
                for r in sorted(self.rounds) if self.rounds[r].glitches]

    def top_latency(self, k: int = 10) -> list[SweepRecord]:
        """The ``k`` slowest sweeps -- where the run spent its rounds."""
        return sorted(self.sweeps(), key=lambda s: s.service,
                      reverse=True)[:max(0, int(k))]

    def latency_summary(self) -> list[ClassLatency]:
        """Per-stream-class latency accumulators, largest class first
        (empty when the trace carries no ``latency_batch`` records)."""
        return sorted(self.latencies.values(),
                      key=lambda c: (-c.count, c.klass))

    def phase_rounds(self, degraded: bool) -> list[RoundInfo]:
        """Rounds of one phase, ascending."""
        return [self.rounds[r] for r in sorted(self.rounds)
                if self.rounds[r].degraded == degraded]

    # ------------------------------------------------------------------
    def bound_table(self) -> list[BoundComparison]:
        """Observed vs analytic ``p_late`` per phase.

        The healthy phase compares against the header's
        ``bound_healthy``; the degraded phase against
        ``bound_degraded``.  Missing header fields yield ``None``
        bounds (comparison undecided, not failed).
        """
        table = []
        for phase, degraded, bound_key in (
                ("healthy", False, "bound_healthy"),
                ("degraded", True, "bound_degraded")):
            rounds = self.phase_rounds(degraded)
            sweeps = [s for info in rounds for s in info.sweeps]
            late = sum(1 for s in sweeps if s.late)
            bound = self.header.get(bound_key)
            table.append(BoundComparison(
                phase=phase, rounds=len(rounds), disk_rounds=len(sweeps),
                late_disk_rounds=late,
                observed_p_late=late / len(sweeps) if sweeps else 0.0,
                bound=float(bound) if bound is not None else None))
        return table

    def windowed_bound_table(self, window: int
                             ) -> list[BoundComparison]:
        """Observed vs analytic ``p_late`` over trailing round windows.

        Splits the recorded rounds (in timeline order) into
        consecutive windows of ``window`` rounds and compares each
        against the bound of its dominant phase -- the same gap the
        live controller's :class:`~repro.control.window.
        TelemetryWindow` watches, reconstructed offline from a trace.
        A window mixing healthy and degraded rounds is labelled by
        whichever phase contributes more sweeps and compared against
        that phase's bound, so a drift that only violates *locally*
        (invisible in the whole-run average) shows up in its window's
        row.  Rows are named ``"rounds[a..b]"``.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        ordered = [self.rounds[r] for r in sorted(self.rounds)]
        table = []
        for start in range(0, len(ordered), window):
            chunk = ordered[start:start + window]
            degraded_sweeps = sum(len(i.sweeps) for i in chunk
                                  if i.degraded)
            healthy_sweeps = sum(len(i.sweeps) for i in chunk
                                 if not i.degraded)
            degraded = degraded_sweeps > healthy_sweeps
            bound = self.header.get(
                "bound_degraded" if degraded else "bound_healthy")
            sweeps = [s for info in chunk for s in info.sweeps]
            late = sum(1 for s in sweeps if s.late)
            first = chunk[0].round_index
            last = chunk[-1].round_index
            table.append(BoundComparison(
                phase=f"rounds[{first}..{last}]",
                rounds=len(chunk), disk_rounds=len(sweeps),
                late_disk_rounds=late,
                observed_p_late=late / len(sweeps) if sweeps else 0.0,
                bound=float(bound) if bound is not None else None))
        return table

    def violations(self) -> list[BoundComparison]:
        """Phases whose empirical overrun rate exceeds their bound."""
        return [row for row in self.bound_table()
                if row.within_bound is False]

    def late_rounds(self) -> list[int]:
        """Rounds in which at least one sweep overran."""
        return [r for r in sorted(self.rounds) if self.rounds[r].late]

    def __repr__(self) -> str:
        return (f"RunTelemetry(rounds={self.round_count}, "
                f"faults={len(self.faults)}, "
                f"glitches={sum(i.glitches for i in self.rounds.values())})")
