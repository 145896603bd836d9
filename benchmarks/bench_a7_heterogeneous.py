"""A7: extension -- heterogeneous stream classes.

"Variable display bandwidth both across different streams and within a
single stream" (abstract).  An audio/SD/HD class mix is pushed through
the mixture-transform pipeline; admission counts and bounds are checked
against class-mixed simulation.
"""

import _emit
from repro.analysis import format_probability, render_table
from repro.core import n_max_plate
from repro.core.heterogeneous import (
    StreamClass,
    class_mixture_model,
    fixed_mix_p_late,
)
from repro.distributions import Gamma, Mixture
from repro.server.simulation import estimate_p_late

T = 1.0
CLASSES = [
    StreamClass("audio", Gamma.from_mean_std(64_000.0, 20_000.0),
                share=0.4),
    StreamClass("sd-video", Gamma.from_mean_std(200_000.0, 100_000.0),
                share=0.4),
    StreamClass("hd-video", Gamma.from_mean_std(450_000.0, 250_000.0),
                share=0.2),
]


def run_ablation(spec):
    rows = []
    for subset, label in [
        (CLASSES[:1], "audio only"),
        (CLASSES[1:2], "sd-video only"),
        (CLASSES[2:], "hd-video only"),
        (CLASSES, "40/40/20 mix"),
    ]:
        model = class_mixture_model(spec, subset)
        n_max = n_max_plate(model, T, 0.01)
        size_mixture = Mixture([(c.share, c.size_dist) for c in subset])
        sim = estimate_p_late(spec, size_mixture, max(n_max, 1), T,
                              rounds=15_000, seed=len(label))
        rows.append((label, n_max, model.b_late(max(n_max, 1), T),
                     sim.p_late))
    # Fixed-mix check at the mixed N_max.
    mixed_n = rows[-1][1]
    counts = {
        "audio": int(0.4 * mixed_n),
        "sd-video": int(0.4 * mixed_n),
    }
    counts["hd-video"] = mixed_n - sum(counts.values())
    fixed = fixed_mix_p_late(spec, counts, CLASSES, T)
    return rows, fixed, counts


def test_a7_heterogeneous(benchmark, viking, record):
    rows, fixed, counts = benchmark.pedantic(
        run_ablation, args=(viking,), rounds=1, iterations=1)
    table = render_table(
        ["workload", "N_max(1%)", "b_late(N_max)", "sim p_late(N_max)"],
        [[label, str(n), format_probability(b), format_probability(s)]
         for label, n, b, s in rows],
        title="A7: heterogeneous stream classes (Table 1 disk, t=1s)")
    footer = (f"\nfixed-mix bound at {counts}: "
              f"{format_probability(fixed)}")
    record("a7_heterogeneous", table + footer)
    _emit.emit("a7_heterogeneous", benchmark, fixed_mix_bound=fixed,
               **{f"nmax_{label.replace(' ', '_').replace('/', '_')}": n
                  for label, n, _, _ in rows})

    by_label = {r[0]: r for r in rows}
    # Light streams pack densest, heavy least, mix in between.
    assert (by_label["audio only"][1] > by_label["40/40/20 mix"][1]
            > by_label["hd-video only"][1])
    # Bounds conservative everywhere.
    for label, n, bound, sim in rows:
        assert bound >= sim, label
