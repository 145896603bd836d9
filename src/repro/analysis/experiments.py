"""Machine-readable registry of the reproduction experiments.

Maps every experiment id (paper tables/figures E1-E8 and ablations
A1-A22) to its description, the bench that regenerates it and the
result artifact it writes -- the programmatic counterpart of the
per-experiment index in DESIGN.md.  Used by tooling (e.g. the
``reproduce_paper`` example and CI summaries) to enumerate and check
coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["Experiment", "REGISTRY", "get", "all_experiments",
           "result_path"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact."""

    id: str
    title: str
    paper_artifact: str
    bench: str
    results: tuple[str, ...]

    @property
    def is_paper_artifact(self) -> bool:
        """True for the paper's own tables/figures (E*), False for
        ablations/extensions (A*)."""
        return self.id.startswith("E")


_ENTRIES = [
    Experiment("E1", "Section 3.1 worked example (single-zone)",
               "§3.1 numbers: SEEK(27), transfer moments, p_late(26/27)",
               "bench_e1_section31_example.py",
               ("e1_section31_example",)),
    Experiment("E2", "Section 3.2 worked example (multi-zone)",
               "§3.2 numbers: p_late(26/27), N_max=26",
               "bench_e2_section32_example.py",
               ("e2_section32_example",)),
    Experiment("E3", "Gamma approximation quality",
               "§3.2 '< 2 %' transfer-time approximation claim",
               "bench_e3_gamma_approx_error.py",
               ("e3_gamma_approx_error",)),
    Experiment("E4", "Section 3.3 worked example",
               "§3.3: p_error(28, 1200, 12) <= 0.14e-3",
               "bench_e4_section33_example.py",
               ("e4_section33_example",)),
    Experiment("E5", "Figure 1", "analytic vs simulated p_late over N",
               "bench_e5_figure1.py", ("e5_figure1",)),
    Experiment("E6", "Table 2", "p_error analytic vs simulated, N=28..32",
               "bench_e6_table2.py", ("e6_table2",)),
    Experiment("E7", "Worst-case comparison", "eq. (4.1): N_wc = 10 / 14",
               "bench_e7_worstcase.py", ("e7_worstcase",)),
    Experiment("E8", "Admission lookup table", "§5 precomputed N_max table",
               "bench_e8_admission_lookup.py", ("e8_admission_lookup",)),
    Experiment("A1", "Fragment-size laws",
               "§3.1 remark: Pareto/Lognormal alternatives",
               "bench_a1_size_distributions.py",
               ("a1_size_distributions", "a1_truncation_cap")),
    Experiment("A2", "Zone-count sweep / single-zone collapse",
               "what §3.2's zone modelling buys",
               "bench_a2_zone_sweep.py",
               ("a2_zone_sweep", "a2_singlezone_collapse")),
    Experiment("A3", "Round-length sweep", "§2.3 configuration parameter",
               "bench_a3_round_length.py", ("a3_round_length",)),
    Experiment("A4", "Baseline tightness",
               "§3.1's criticism of [CL96]/[CZ94]",
               "bench_a4_baselines.py", ("a4_baselines",)),
    Experiment("A5", "Oyang bound slack", "[Oya95] bound vs simulation",
               "bench_a5_seek_bound.py", ("a5_seek_bound",)),
    Experiment("A6", "Trace-driven VBR", "§2.3 workload-statistics loop",
               "bench_a6_vbr_traces.py", ("a6_vbr_traces",)),
    Experiment("A7", "Heterogeneous classes",
               "abstract: across-stream bandwidth variability",
               "bench_a7_heterogeneous.py", ("a7_heterogeneous",)),
    Experiment("A8", "Buffering + prefetch", "§6 outlook",
               "bench_a8_prefetch_buffering.py",
               ("a8_prefetch_buffering", "a8_capacity_curve")),
    Experiment("A9", "Mixed workload", "§6 outlook / [NMW97]",
               "bench_a9_mixed_workload.py", ("a9_mixed_workload",)),
    Experiment("A10", "Placement policies", "§2.2 outlook",
               "bench_a10_placement.py", ("a10_placement",)),
    Experiment("A11", "Phase balance", "§3's uniform-load assumption",
               "bench_a11_phase_balance.py", ("a11_phase_balance",)),
    Experiment("A12", "Multicast sharing", "duplicate-fetch elimination",
               "bench_a12_multicast_sharing.py",
               ("a12_multicast_sharing",)),
    Experiment("A13", "Discrete queue", "response times on the leftover",
               "bench_a13_discrete_queue.py", ("a13_discrete_queue",)),
    Experiment("A14", "Sensitivity", "which parameters move N_max",
               "bench_a14_sensitivity.py", ("a14_sensitivity",)),
    Experiment("A15", "Fault injection", "thermal recalibration",
               "bench_a15_fault_injection.py", ("a15_fault_injection",)),
    Experiment("A16", "Grouped Sweeping Scheduling",
               "[CKY93] comparator: throughput vs latency vs buffers",
               "bench_a16_gss.py", ("a16_gss",)),
    Experiment("A17", "Scheduling disciplines",
               "§2.3's SCAN choice vs FIFO/SSTF/C-SCAN",
               "bench_a17_disciplines.py", ("a17_disciplines",)),
    Experiment("A18", "Farm planning",
               "heterogeneous striped farms; degraded-mode admission",
               "bench_a18_farm_planning.py", ("a18_farm_planning",)),
    Experiment("A19", "Trick modes",
               "§2.1's no-fast-forward assumption, priced",
               "bench_a19_trickmode.py", ("a19_trickmode",)),
    Experiment("A20", "Parallel scaling + bound cache",
               "infrastructure: deterministic Monte-Carlo fan-out and "
               "memoized admission scans",
               "bench_a20_parallel_scaling.py", ("a20_parallel_scaling",)),
    Experiment("A21", "Runtime failover + load shedding",
               "degraded-mode guarantee end to end: mirror failover "
               "with shedding meets the doubled-batch Chernoff bound, "
               "without shedding it violates",
               "bench_a21_failover_shedding.py",
               ("a21_failover_shedding",)),
    Experiment("A22", "Sweep kernel speedup",
               "event engine vs vectorised farm kernel on the same "
               "failover scenario; the speedup ratio is the CI "
               "regression gate (benchmarks/report.py)",
               "bench_a22_server_kernel.py", ("a22_server_kernel",)),
    Experiment("A23", "Live daemon warm start + QPS",
               "repro serve operationally: cold vs warm admission-table "
               "build (the gated warm-start speedup) and admissions/sec "
               "over HTTP through a fault storm",
               "bench_a23_serve_qps.py", ("a23_serve_qps",)),
    Experiment("A24", "Scenario-compiler speedup",
               "a fault storm (failure + recalibration storm + "
               "recovery) through the event engine vs the scenario "
               "compiler's kernel path, plus a check that a 2-worker "
               "pool prices it bit-identically to the serial run; the "
               "compiled-path speedup is a CI regression gate",
               "bench_a24_scenario_kernel.py", ("a24_scenario_kernel",)),
    Experiment("A25", "Closed-loop adaptive admission",
               "a static and an adaptive daemon through the same "
               "deterministic slow-disk drift: static admission "
               "provably violates epsilon while the controller "
               "retunes (cached Chernoff re-solves at t/s) and holds "
               "it; the violation ratio is a CI regression gate",
               "bench_a25_adaptive_control.py",
               ("a25_adaptive_control",)),
    Experiment("A26", "Span-tracing overhead + SLO detection",
               "interleaved spans-off/spans-on request pairs against "
               "one live daemon gate the tracing overhead "
               "(median-paired admissions/sec ratio, a CI regression "
               "gate) and a deterministic drift storm gates the SLO "
               "engine's burn-rate detection latency",
               "bench_a26_trace_overhead.py",
               ("a26_trace_overhead",)),
    Experiment("A27", "Sharded admission hot path",
               "per-ticket legacy admits vs the sharded controller's "
               "batch admission API across thread counts and batch "
               "sizes; the 8-thread batch-16 admissions/sec speedup "
               "over the legacy controller is a CI regression gate",
               "bench_a27_shard_qps.py", ("a27_shard_qps",)),
]

#: Registry keyed by experiment id.
REGISTRY: dict[str, Experiment] = {e.id: e for e in _ENTRIES}


def get(experiment_id: str) -> Experiment:
    """Look up one experiment by id (e.g. ``"E5"``)."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(REGISTRY)}") from None


def all_experiments() -> list[Experiment]:
    """All experiments in registry order (E* first, then A*)."""
    return list(_ENTRIES)


def result_path(result_name: str,
                base: Path | str | None = None) -> Path:
    """Path of a bench's result artifact.

    ``base`` defaults to ``benchmarks/results`` relative to the
    repository root (resolved from this file's location; override in
    installed deployments).
    """
    if base is None:
        # Walk up from this file to the source checkout's root (the
        # first ancestor holding a benchmarks/ directory); fall back to
        # the working directory for installed deployments.
        for parent in Path(__file__).resolve().parents:
            if (parent / "benchmarks").is_dir():
                base = parent / "benchmarks" / "results"
                break
        else:
            base = Path.cwd() / "benchmarks" / "results"
    return Path(base) / f"{result_name}.txt"
