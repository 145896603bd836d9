"""A22: perf -- vectorised farm sweep kernel vs the event-driven server.

The event-driven :func:`run_failover_scenario` walks every request of
every round through the simulation calendar: exact arm positions,
per-stream buffers, mid-sweep fault reactions.  The farm sweep kernel
(:func:`repro.server.scenario.compile_scenario` +
:func:`~repro.server.scenario.simulate_scenario`) replays the same
scenario -- all disks, the mirror-failover phases, the shedding
populations -- as batched NumPy sweeps.  This bench times both on the
same scenario (the kernel leg includes compiling the schedule) and
pins the kernel's speedup, and checks the two agree statistically (the
kernel's degraded phase must stay within the same ``delta`` the
event-driven shed survivors meet).  The kernel leg takes a few
milliseconds, so, like bench A23's warm builds, it is timed as the
median of ``KERNEL_RUNS`` calls: one slow call on a shared host would
otherwise swing the gated ratio.

``REPRO_BENCH_SMOKE=1`` shrinks the scenario so the CI regression leg
can run it in seconds; the speedup floor relaxes accordingly (constant
per-call overheads weigh more at small round counts).
"""

import os
import statistics
import time

from repro.analysis import format_probability, render_table
from repro.core.farm import degraded_mode_n_max
from repro.server.faults import (FaultSchedule, SheddingPolicy, disk_fail,
                                 run_failover_scenario)
from repro.server.scenario import compile_scenario, simulate_scenario

T = 1.0
DELTA = 0.01
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS = 60 if SMOKE else 300
FAIL_ROUND = 15 if SMOKE else 40
MIN_SPEEDUP = 3.0 if SMOKE else 10.0
#: Timed calls of the kernel leg; the speedup divides by their median.
KERNEL_RUNS = 5


def run_both(spec, sizes):
    """Time the identical failover scenario through both engines.

    The degraded-mode bound solve is pre-warmed outside the timed
    regions (both engines need it; the persistent cache would otherwise
    hand the second caller an unearned advantage).  Returns the two
    reports, the event engine's seconds and the kernel leg's per-call
    seconds.
    """
    healthy, failure_proof = degraded_mode_n_max(spec, sizes, T, DELTA)

    start = time.perf_counter()
    event = run_failover_scenario(spec, sizes, disks=2, t=T, delta=DELTA,
                                  rounds=ROUNDS, fail_round=FAIL_ROUND,
                                  shedding=True, seed=0)
    event_s = time.perf_counter() - start
    kernel_runs = []
    for _ in range(KERNEL_RUNS):
        begin = time.perf_counter()
        compiled = compile_scenario(
            (spec, spec), sizes, n_per_disk=healthy, t=T, rounds=ROUNDS,
            schedule=FaultSchedule([disk_fail(FAIL_ROUND * T, disk=0)]),
            policy=SheddingPolicy(failure_proof))
        kernel = simulate_scenario(compiled, seed=0)
        kernel_runs.append(time.perf_counter() - begin)
    return event, kernel, event_s, kernel_runs


def test_a22_server_kernel(benchmark, viking, paper_sizes, record,
                           record_json):
    event, kernel, event_s, kernel_runs = benchmark.pedantic(
        run_both, args=(viking, paper_sizes), rounds=1, iterations=1)
    kernel_s = statistics.median(kernel_runs)
    speedup = event_s / kernel_s

    degraded = kernel.phase("degraded")
    rows = [
        ["scenario rounds", str(ROUNDS), str(ROUNDS)],
        [f"wall clock [s] (kernel: median of {KERNEL_RUNS})",
         f"{event_s:.4f}", f"{kernel_s:.4f}"],
        ["kernel speedup", "1x", f"{speedup:.1f}x"],
        ["max survivor glitch rate / degraded glitch rate",
         format_probability(event.max_glitch_rate),
         format_probability(degraded.glitch_rate)],
        [f"within delta = {DELTA:g}",
         "yes" if event.within_bound else "NO",
         "yes" if degraded.glitch_rate <= DELTA else "NO"],
    ]
    record("a22_server_kernel", render_table(
        ["quantity", "event engine", "sweep kernel"], rows,
        title=f"A22: event engine vs farm sweep kernel "
        f"({ROUNDS} rounds{', smoke' if SMOKE else ''})"))
    record_json("a22_server_kernel", {
        "smoke": SMOKE,
        "rounds": ROUNDS,
        "event_seconds": event_s,
        "kernel_seconds": kernel_s,
        "kernel_runs_s": kernel_runs,
        "speedup": speedup,
        "event_max_glitch_rate": event.max_glitch_rate,
        "kernel_degraded_glitch_rate": degraded.glitch_rate,
    })

    # The tentpole claim: batching the sweeps beats the event calendar
    # by an order of magnitude at paper scale.
    assert speedup >= MIN_SPEEDUP, (
        f"sweep kernel only {speedup:.1f}x faster than the event "
        f"engine (floor {MIN_SPEEDUP}x)")
    # Statistical agreement: both engines keep the shed survivor
    # within the degraded-mode tolerance.
    assert event.within_bound
    assert degraded.glitch_rate <= DELTA
