"""A10: extension -- data-placement policies (§2.2 outlook).

Compares sector-uniform placement (the paper's assumption) against a
hot-band outer-zones policy and an organ-pipe arrangement: transfer-time
moments, simulated round times, and the admitted stream count when the
analytic model is fed the policy's zone mix.
"""

import zlib

import numpy as np

import _emit
from repro.analysis import format_probability, render_table
from repro.core import MultiZoneTransferModel, RoundServiceTimeModel, n_max_plate
from repro.disk.placement import (
    OrganPipePlacement,
    OuterZonesPlacement,
    SectorUniformPlacement,
)
from repro.server.simulation import simulate_rounds

T = 1.0
N = 27
POLICIES = [
    ("sector-uniform (paper)", SectorUniformPlacement()),
    ("outer 30% band", OuterZonesPlacement(fraction=0.3)),
    ("organ-pipe @0.75", OrganPipePlacement(centre_fraction=0.75,
                                            skew=1e-3)),
]


def run_ablation(spec, sizes):
    base = RoundServiceTimeModel.for_disk(spec, sizes)
    rows = []
    for label, policy in POLICIES:
        transfer = MultiZoneTransferModel(
            spec.zone_map, sizes,
            zone_probabilities=policy.zone_probabilities(spec.geometry))
        model = RoundServiceTimeModel(
            seek_bound=lambda n: base.seek(n), rot=spec.rot,
            transfer=transfer.gamma_approximation())
        seed = zlib.crc32(label.encode()) % 997
        batch = simulate_rounds(spec, sizes, N, T, 8000,
                                np.random.default_rng(seed),
                                placement=policy)
        rows.append((
            label,
            transfer.mean(),
            policy.mean_pairwise_seek_distance(spec.geometry),
            float(np.mean(batch.service_times)),
            float(np.mean(batch.service_times > T)),
            model.b_late(N, T),
            n_max_plate(model, T, 0.01),
        ))
    return rows


def test_a10_placement(benchmark, viking, paper_sizes, record):
    rows = benchmark.pedantic(run_ablation, args=(viking, paper_sizes),
                              rounds=1, iterations=1)
    table = render_table(
        ["policy", "E[T_trans] [ms]", "E|seek dist| [cyl]",
         "sim E[T_round] [s]", f"sim p_late({N})", f"b_late({N})",
         "N_max(1%)"],
        [[label, f"{1e3 * m:.2f}", f"{d:.0f}", f"{rt:.3f}",
          format_probability(sp), format_probability(b), str(nmax)]
         for label, m, d, rt, sp, b, nmax in rows],
        title="A10: placement policies on the Table 1 disk")
    record("a10_placement", table)
    _emit.emit("a10_placement", benchmark,
               nmax_uniform=rows[0][6], nmax_outer=rows[1][6],
               nmax_organ_pipe=rows[2][6])

    by_label = dict((r[0], r) for r in rows)
    uniform = by_label["sector-uniform (paper)"]
    outer = by_label["outer 30% band"]
    organ = by_label["organ-pipe @0.75"]
    # Outer band: faster transfers, much shorter seeks, more streams.
    assert outer[1] < uniform[1]
    assert outer[2] < 0.6 * uniform[2]
    assert outer[6] >= uniform[6]
    # Organ-pipe: shorter seeks than uniform.
    assert organ[2] < uniform[2]
    # Analytic bound dominates its own simulated configuration.
    for label, _, _, _, sim_p, bound, _ in rows:
        assert bound >= sim_p, label
