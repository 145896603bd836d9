"""A1: ablation -- fragment-size law (Gamma vs Lognormal vs Pareto).

§3.1: "the following derivation can be carried out also with other
distributions of the data fragment size (i.e., other heavy-tailed
distributions such as Pareto or Lognormal) as long as we can derive (or
approximate) the corresponding Laplace-Stieltjes transform."

All three laws are moment-matched to Table 1 (mean 200 KB, sd 100 KB);
the heavy-tailed ones are truncated at 2 MB (one round of roughly the
innermost-zone bandwidth) to obtain MGFs, and their Chernoff pipeline
runs through the numeric-quadrature transform.
"""

import zlib

import numpy as np

import _emit
from repro.analysis import format_probability, render_table
from repro.core import RoundServiceTimeModel, n_max_plate
from repro.server.simulation import estimate_p_late
from repro.workload.fragmentsize import (
    lognormal_fragment_sizes,
    paper_fragment_sizes,
    truncated_pareto_fragment_sizes,
)

CAP = 2_000_000.0
T = 1.0
N_PROBE = 27


def run_ablation(spec):
    laws = {
        "Gamma": paper_fragment_sizes(),
        "Lognormal (capped 2MB)": lognormal_fragment_sizes(
            200_000.0, 100_000.0, cap=CAP),
        "Pareto (capped 2MB)": truncated_pareto_fragment_sizes(
            200_000.0, 100_000.0, cap=CAP),
    }
    rows = []
    for name, law in laws.items():
        model = RoundServiceTimeModel.for_disk(spec, law)
        analytic = model.b_late(N_PROBE, T)
        sim = estimate_p_late(spec, law, N_PROBE, T, rounds=20_000,
                              seed=zlib.crc32(name.encode()) % 10_000)
        rows.append((name, law.mean(), law.std(), analytic, sim.p_late,
                     n_max_plate(model, T, 0.01)))
    return rows


def test_a1_size_distributions(benchmark, viking, record):
    rows = benchmark.pedantic(run_ablation, args=(viking,), rounds=1,
                              iterations=1)
    table = render_table(
        ["size law", "mean [KB]", "sd [KB]", f"b_late({N_PROBE})",
         f"sim p_late({N_PROBE})", "N_max(1%)"],
        [[name, f"{mean / 1e3:.1f}", f"{std / 1e3:.1f}",
          format_probability(analytic), format_probability(sim),
          str(nmax)]
         for name, mean, std, analytic, sim, nmax in rows],
        title="A1: fragment-size law ablation (Table 1 disk, t=1s)")
    record("a1_size_distributions", table)
    _emit.emit("a1_size_distributions", benchmark,
               nmax_gamma=rows[0][5], nmax_lognormal=rows[1][5],
               nmax_pareto=rows[2][5])

    by_name = {r[0]: r for r in rows}
    # Conservative for every law.
    for name, _, _, analytic, sim, _ in rows:
        assert analytic >= sim, name
    # All three admit a similar number of streams (moments dominate).
    nmaxes = [r[5] for r in rows]
    assert max(nmaxes) - min(nmaxes) <= 3
    assert by_name["Gamma"][5] == 26


def test_a1_truncation_cap_sensitivity(benchmark, viking, record):
    """The truncation cap is a modelling knob: a tighter cap trims the
    Pareto tail and admits slightly more streams."""

    def sweep():
        rows = []
        for cap in (0.5e6, 1e6, 2e6, 4e6):
            law = truncated_pareto_fragment_sizes(200_000.0, 100_000.0,
                                                  cap=cap)
            model = RoundServiceTimeModel.for_disk(viking, law)
            rows.append((cap, law.mean(), model.b_late(N_PROBE, T),
                         n_max_plate(model, T, 0.01)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        ["cap [MB]", "realised mean [KB]", f"b_late({N_PROBE})",
         "N_max(1%)"],
        [[f"{cap / 1e6:g}", f"{mean / 1e3:.1f}",
          format_probability(b), str(nmax)]
         for cap, mean, b, nmax in rows],
        title="A1b: Pareto truncation-cap sensitivity")
    record("a1_truncation_cap", table)
    _emit.emit("a1_truncation_cap", benchmark,
               **{f"nmax_cap{cap / 1e6:g}MB": nmax
                  for cap, _, _, nmax in rows})
    nmaxes = [r[3] for r in rows]
    assert nmaxes == sorted(nmaxes, reverse=True)
    assert np.all(np.diff([r[1] for r in rows]) > 0)  # mean grows w/ cap
