"""A18: extension -- heterogeneous farms and degraded-mode admission.

Two farm-level results the paper's single-disk treatment leaves open:

1. With stride-1 striping, the weakest disk binds the whole farm --
   adding an old drive to a fast farm *reduces* total capacity.
2. Surviving a mirror failure invisibly requires admitting against the
   doubled-batch bound, roughly halving per-disk streams.
"""

from repro.analysis import render_table
from repro.core.farm import degraded_modes, plan_farm
from repro.disk import (
    modern_av_drive,
    quantum_viking_2_1,
    seagate_hawk_1lp,
)

T = 1.0
M, G, EPS = 1200, 12, 0.01


def run_planning(sizes):
    viking = quantum_viking_2_1()
    hawk = seagate_hawk_1lp()
    fast = modern_av_drive()
    farms = {
        "4x Viking": [viking] * 4,
        "4x Hawk": [hawk] * 4,
        "3x AV-class": [fast] * 3,
        "3x AV + 1x Hawk": [fast] * 3 + [hawk],
        "2x Viking + 2x Hawk": [viking] * 2 + [hawk] * 2,
    }
    rows = [(name, plan_farm(specs, sizes, T, M, G, EPS))
            for name, specs in farms.items()]
    drives = (viking, hawk, fast)
    limits = degraded_modes(list(drives), sizes, T, 0.01)
    degraded = {spec.name: pair for spec, pair in zip(drives, limits)}
    return rows, degraded


def test_a18_farm_planning(benchmark, paper_sizes, record):
    rows, degraded = benchmark.pedantic(run_planning,
                                        args=(paper_sizes,), rounds=1,
                                        iterations=1)
    farm_table = render_table(
        ["farm", "per-disk limits", "binding disk", "N_max total",
         "streams wasted"],
        [[name, "/".join(map(str, plan.per_disk_n_max)),
          str(plan.binding_disk), str(plan.n_max_total),
          str(plan.wasted_streams)] for name, plan in rows],
        title=f"A18: striped-farm admission (M={M}, g={G}, eps={EPS:g})")
    degraded_table = render_table(
        ["drive", "healthy N_max/disk", "failure-proof N_max/disk"],
        [[name, str(h), str(f)] for name, (h, f) in degraded.items()],
        title="A18b: degraded-mode (mirror-failure) admission")
    record("a18_farm_planning", farm_table + "\n\n" + degraded_table)

    plans = dict(rows)
    # The slow-disk poisoning result.
    assert (plans["3x AV + 1x Hawk"].n_max_total
            < plans["3x AV-class"].n_max_total)
    # Homogeneous farms waste nothing; mixed farms do.
    assert plans["4x Viking"].wasted_streams == 0
    assert plans["2x Viking + 2x Hawk"].wasted_streams > 0
    # Failure-proofing costs roughly half the streams on every drive.
    for name, (healthy, failure_proof) in degraded.items():
        assert 0.3 * healthy <= failure_proof <= 0.6 * healthy, name
