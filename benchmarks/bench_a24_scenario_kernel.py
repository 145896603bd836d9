"""A24: perf -- compiled fault-storm scenarios on the sweep kernel.

A22 pins the kernel's speedup on the plain failover shape (single
failure).  The scenario compiler (:mod:`repro.server.scenario`) takes
an arbitrary :class:`FaultSchedule` -- here a fault *storm* mixing a
disk failure, a farm-wide recalibration storm and a recovery -- and
compiles it to constant-state phase batches priced by the same
vectorised kernel.  This bench times the storm through the event
engine and through ``compile_scenario``/``simulate_scenario``, pins
the kernel speedup, checks statistical agreement, and checks that a
2-worker pool prices the identical compiled plan bit-identically to
the serial run (its wall clock is emitted for trend tracking, without
a floor).

The event leg runs under an in-memory :class:`Tracer` so the emission
also carries per-class fragment-latency histograms, the payload
``benchmarks/report.py`` collates.

``REPRO_BENCH_SMOKE=1`` shrinks the scenario so the CI regression leg
finishes in seconds; the speedup floor relaxes accordingly.
"""

import os
import time

from repro.analysis import format_probability, render_table
from repro.core.farm import degraded_mode_n_max
from repro.obs.telemetry import RunTelemetry
from repro.obs.trace import Tracer
from repro.server.faults import (FaultSchedule, SheddingPolicy, disk_fail,
                                 disk_recover, recalibration_storm,
                                 run_failover_scenario)
from repro.server.scenario import compile_scenario, simulate_scenario

T = 1.0
DELTA = 0.01
DISKS = 4
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS = 60 if SMOKE else 300
FAIL_ROUND = 10 if SMOKE else 40
RECOVER_ROUND = 40 if SMOKE else 200
MIN_SPEEDUP = 3.0 if SMOKE else 50.0
#: Histogram bucket edges as round-length multiples.
LATENCY_EDGES = (0.5, 1.0, 2.0, 4.0)


def storm_schedule() -> FaultSchedule:
    """Failure + farm-wide recalibration storm + recovery."""
    return FaultSchedule([
        disk_fail(FAIL_ROUND * T, disk=0),
        recalibration_storm((FAIL_ROUND + 5) * T, prob=0.3,
                            duration=10 * T, stall=0.05),
        disk_recover(RECOVER_ROUND * T, disk=0),
    ])


def run_both(spec, sizes):
    """Time the identical fault storm through both engines.

    The degraded-mode bound solve is pre-warmed outside the timed
    regions (both engines need it; the persistent cache would otherwise
    hand the second caller an unearned advantage).
    """
    healthy, failure_proof = degraded_mode_n_max(spec, sizes, T, DELTA)
    schedule = storm_schedule()
    tracer = Tracer(capacity=200_000)

    start = time.perf_counter()
    event = run_failover_scenario(
        spec, sizes, disks=DISKS, t=T, delta=DELTA, rounds=ROUNDS,
        schedule=schedule, shedding=True, seed=0, tracer=tracer)
    mid = time.perf_counter()
    compiled = compile_scenario(
        (spec,) * DISKS, sizes, n_per_disk=healthy, t=T, rounds=ROUNDS,
        schedule=schedule, policy=SheddingPolicy(failure_proof))
    kernel = simulate_scenario(compiled, seed=0)
    end = time.perf_counter()
    return (event, kernel, compiled, tracer,
            mid - start, end - mid, healthy, failure_proof)


def pooled_seconds(compiled):
    """Wall clock of one 2-worker pricing of the compiled plan."""
    start = time.perf_counter()
    estimate = simulate_scenario(compiled, seed=0, jobs=2)
    return estimate, time.perf_counter() - start


def latency_histograms(tracer) -> dict:
    """Per-class fragment-latency histograms from the event-leg trace."""
    telemetry = RunTelemetry.from_records(tracer.records())
    bounds = [edge * T for edge in LATENCY_EDGES]
    return {
        entry.klass: {
            "bounds": bounds,
            "counts": entry.histogram(bounds),
            "mean": entry.mean,
            "count": entry.count,
        }
        for entry in telemetry.latency_summary()
    }


def test_a24_scenario_kernel(benchmark, viking, paper_sizes, record,
                             record_json):
    (event, kernel, compiled, tracer, event_s, kernel_s,
     healthy, failure_proof) = benchmark.pedantic(
        run_both, args=(viking, paper_sizes), rounds=1, iterations=1)
    speedup = event_s / kernel_s

    pooled, pooled_s = pooled_seconds(compiled)
    assert pooled.per_disk == kernel.per_disk, (
        "the jobs=2 pool diverged from the serial run on the identical "
        "plan")

    degraded = [phase for phase in kernel.phases
                if phase.name.startswith("degraded")]
    worst_kernel = max((phase.glitch_rate for phase in degraded),
                       default=0.0)
    rows = [
        ["scenario rounds", str(ROUNDS), str(ROUNDS)],
        ["phases", "event calendar", str(len(kernel.phases))],
        ["wall clock [s]", f"{event_s:.4f}", f"{kernel_s:.4f}"],
        ["kernel speedup", "1x", f"{speedup:.1f}x"],
        ["max survivor / worst degraded glitch rate",
         format_probability(event.max_glitch_rate),
         format_probability(worst_kernel)],
        [f"within delta = {DELTA:g}",
         "yes" if event.within_bound else "NO",
         "yes" if worst_kernel <= DELTA else "NO"],
        ["jobs=2 pool [s], bit-identical", "-", f"{pooled_s:.4f}"],
    ]
    record("a24_scenario_kernel", render_table(
        ["quantity", "event engine", "scenario kernel"], rows,
        title=f"A24: fault storm, event engine vs scenario compiler "
        f"({DISKS} disks, {ROUNDS} rounds{', smoke' if SMOKE else ''})"))
    record_json("a24_scenario_kernel", {
        "smoke": SMOKE,
        "rounds": ROUNDS,
        "disks": DISKS,
        "n_per_disk": healthy,
        "degraded_n_max": failure_proof,
        "phases": len(kernel.phases),
        "event_seconds": event_s,
        "kernel_seconds": kernel_s,
        "speedup": speedup,
        "pooled_jobs2_seconds": pooled_s,
        "event_max_glitch_rate": event.max_glitch_rate,
        "kernel_worst_degraded_glitch_rate": worst_kernel,
        "latency_histograms": latency_histograms(tracer),
    })

    # The tentpole claim: storms no longer need the event calendar --
    # the compiled plan beats it by the same order of magnitude A22
    # pinned for the plain failover.
    assert speedup >= MIN_SPEEDUP, (
        f"scenario kernel only {speedup:.1f}x faster than the event "
        f"engine (floor {MIN_SPEEDUP}x)")
    # Statistical agreement: both engines keep shed survivors within
    # the degraded-mode tolerance through the storm.
    assert event.within_bound
    assert worst_kernel <= DELTA
