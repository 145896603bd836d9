"""A21: extension -- runtime mirror failover with load shedding.

The analytic side prices a RAID-1 disk failure as a doubled batch
(:func:`repro.core.farm.degraded_mode_n_max`): the survivor can keep the
per-round guarantee only for ``n`` with ``b_late(2n, t) <= delta``.
This bench closes the loop at runtime: the event-driven server loses a
disk mid-run and we measure the surviving streams' glitch rates

- **with shedding** -- the newest streams are paused until the survivor
  batch meets the degraded bound: every survivor must stay within the
  tolerance ``delta``;
- **without shedding** -- the survivor absorbs the full doubled batch
  (mean service > round length at the paper's operating point): the
  bound must be violated, demonstrating that shedding is load-bearing.

The farm sweep kernel (:func:`repro.server.scenario.compile_scenario` +
:func:`~repro.server.scenario.simulate_scenario`) cross-checks the
survivor's degraded-phase overrun rates independently of the
event-driven machinery.
"""

import numpy as np

from repro.analysis import format_probability, render_table
from repro.core import RoundServiceTimeModel
from repro.server.faults import (FaultSchedule, SheddingPolicy, disk_fail,
                                 run_failover_scenario)
from repro.server.scenario import compile_scenario, simulate_scenario

T = 1.0
DELTA = 0.01
ROUNDS = 300
FAIL_ROUND = 40
#: Healthy and degraded rounds of the vectorised cross-check.
VEC_PHASE_ROUNDS = 2000


def run_scenarios(spec, sizes):
    shed = run_failover_scenario(spec, sizes, disks=2, t=T, delta=DELTA,
                                 rounds=ROUNDS, fail_round=FAIL_ROUND,
                                 shedding=True, seed=0)
    noshed = run_failover_scenario(spec, sizes, disks=2, t=T, delta=DELTA,
                                   rounds=ROUNDS, fail_round=FAIL_ROUND,
                                   shedding=False, seed=0)
    return shed, noshed


def vectorised_survivor(spec, sizes, n_per_disk, policy):
    """Survivor-disk degraded phase of a mirrored pair on the kernel:
    ``VEC_PHASE_ROUNDS`` healthy rounds, then disk 0 fails for as many
    more."""
    compiled = compile_scenario(
        (spec, spec), sizes, n_per_disk=n_per_disk, t=T,
        rounds=2 * VEC_PHASE_ROUNDS,
        schedule=FaultSchedule([disk_fail(VEC_PHASE_ROUNDS * T, disk=0)]),
        policy=policy)
    return simulate_scenario(compiled, seed=0).survivor_degraded()


def test_a21_failover_shedding(benchmark, viking, paper_sizes, record,
                               record_json):
    shed, noshed = benchmark.pedantic(
        run_scenarios, args=(viking, paper_sizes), rounds=1, iterations=1)

    model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
    healthy, degraded = shed.healthy_n_max, shed.degraded_n_max
    # The analytic story: the shed survivor batch (2 * degraded) meets
    # the bound, the unshed doubled batch (2 * healthy) cannot.
    b_shed = model.b_late(2 * degraded, T)
    b_noshed = model.b_late(2 * healthy, T)

    # Vectorised cross-check of the survivor's degraded phase: it
    # serves 2 * degraded requests per round with shedding and
    # 2 * healthy without.
    vec_shed = vectorised_survivor(viking, paper_sizes, healthy,
                                   SheddingPolicy(degraded))
    vec_noshed = vectorised_survivor(viking, paper_sizes, healthy, None)
    assert vec_shed.requests == VEC_PHASE_ROUNDS * 2 * degraded
    assert vec_noshed.requests == VEC_PHASE_ROUNDS * 2 * healthy

    rows = [
        ["healthy N_max / disk", str(healthy), str(healthy)],
        ["degraded N_max / disk", str(degraded), "-- (no shedding)"],
        ["survivor batch", str(2 * degraded), str(2 * healthy)],
        ["analytic b_late(batch)", format_probability(b_shed),
         format_probability(b_noshed)],
        ["vectorised p_late(batch)",
         format_probability(vec_shed.p_late),
         format_probability(vec_noshed.p_late)],
        ["streams shed", str(shed.report.shed_streams),
         str(noshed.report.shed_streams)],
        ["mirror failovers", str(shed.report.failovers),
         str(noshed.report.failovers)],
        ["survivors (never shed)", str(shed.survivors),
         str(noshed.survivors)],
        ["max survivor glitch rate",
         format_probability(shed.max_glitch_rate),
         format_probability(noshed.max_glitch_rate)],
        [f"within delta = {DELTA:g}",
         "yes" if shed.within_bound else "NO",
         "yes" if noshed.within_bound else "NO"],
    ]
    table = render_table(
        ["quantity", "with shedding", "without shedding"], rows,
        title=f"A21: mirrored-pair failover at round {FAIL_ROUND} "
        f"of {ROUNDS} (t={T:g}s)")
    record("a21_failover_shedding", table)
    record_json("a21_failover_shedding", {
        "t": T, "delta": DELTA, "rounds": ROUNDS,
        "fail_round": FAIL_ROUND,
        "healthy_n_max": healthy, "degraded_n_max": degraded,
        "b_late_shed_batch": b_shed, "b_late_noshed_batch": b_noshed,
        "vectorized_p_late_shed_batch": vec_shed.p_late,
        "vectorized_p_late_noshed_batch": vec_noshed.p_late,
        "shed": {
            "max_glitch_rate": shed.max_glitch_rate,
            "aggregate_glitch_rate": shed.aggregate_glitch_rate,
            "survivors": shed.survivors,
            "shed_streams": shed.report.shed_streams,
            "failovers": shed.report.failovers,
            "within_bound": shed.within_bound,
        },
        "noshed": {
            "max_glitch_rate": noshed.max_glitch_rate,
            "aggregate_glitch_rate": noshed.aggregate_glitch_rate,
            "survivors": noshed.survivors,
            "within_bound": noshed.within_bound,
        },
    })

    # The end-to-end degraded-mode guarantee: with shedding, every
    # surviving stream stays within the analytic tolerance ...
    assert b_shed <= DELTA
    assert shed.within_bound, shed.max_glitch_rate
    assert shed.aggregate_glitch_rate <= DELTA
    # ... and without shedding the doubled batch demonstrably violates
    # it (the survivor's mean service exceeds the round length).
    assert not noshed.within_bound, noshed.max_glitch_rate
    assert noshed.max_glitch_rate > 10 * DELTA
    # The vectorised path agrees on both operating points.
    assert vec_shed.p_late <= DELTA
    assert vec_noshed.p_late > 0.5
    # Failover actually engaged, and shedding hit its target exactly:
    # each degraded round redirects the failed disk's share of the
    # batch (half the serving streams) to the survivor.
    assert shed.report.failovers > 0
    assert shed.report.shed_streams == 2 * (healthy - degraded)
    assert np.isclose(noshed.report.failovers,
                      healthy * (ROUNDS - FAIL_ROUND), rtol=0.05)
    assert np.isclose(shed.report.failovers,
                      degraded * (ROUNDS - FAIL_ROUND), rtol=0.05)
