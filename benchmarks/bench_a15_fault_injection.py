"""A15: extension -- thermal recalibration and admission under faults.

The paper's hardware generation suffered thermal-recalibration stalls
(the reason "AV-rated" drives existed).  The MGF algebra absorbs the
stall as one extra mixture term per round; this bench sweeps the stall
severity, validates the extended bound against fault-injected
simulation, and reports the admission head-room a recal-prone drive
must sacrifice.
"""

import zlib

import numpy as np

import _emit
from repro.analysis import format_probability, render_table
from repro.core import GlitchModel, RoundServiceTimeModel, n_max_perror
from repro.core.faults import with_recalibration
from repro.server.simulation import simulate_rounds

T = 1.0
N_PROBE = 27
SCENARIOS = [
    ("healthy", 0.0, 0.0),
    ("mild (2% x 50ms)", 0.02, 0.050),
    ("moderate (5% x 75ms)", 0.05, 0.075),
    ("severe (10% x 100ms)", 0.10, 0.100),
]


def run_sweep(spec, sizes):
    base = RoundServiceTimeModel.for_disk(spec, sizes)
    rows = []
    for label, prob, duration in SCENARIOS:
        model = (base if prob == 0.0
                 else with_recalibration(base, prob, duration))
        batch = simulate_rounds(
            spec, sizes, N_PROBE, T, 20_000,
            np.random.default_rng(zlib.crc32(label.encode()) % 313),
            recal_prob=prob, recal_duration=duration)
        simulated = float(np.mean(batch.service_times > T))
        n_max = n_max_perror(GlitchModel(model, T), 1200, 12, 0.01)
        rows.append((label, model.b_late(N_PROBE, T), simulated, n_max))
    return rows


def test_a15_fault_injection(benchmark, viking, paper_sizes, record):
    rows = benchmark.pedantic(run_sweep, args=(viking, paper_sizes),
                              rounds=1, iterations=1)
    table = render_table(
        ["drive condition", f"b_late({N_PROBE})",
         f"sim p_late({N_PROBE})", "N_max^perror(1%)"],
        [[label, format_probability(b), format_probability(s), str(n)]
         for label, b, s, n in rows],
        title="A15: thermal-recalibration fault injection "
        "(20000 rounds/point)")
    record("a15_fault_injection", table)
    _emit.emit("a15_fault_injection", benchmark,
               nmax_healthy=rows[0][3], nmax_severe=rows[-1][3])

    bounds = [r[1] for r in rows]
    nmaxes = [r[3] for r in rows]
    # Severity orders both the bound and the admission limit.
    assert bounds == sorted(bounds)
    assert nmaxes == sorted(nmaxes, reverse=True)
    assert nmaxes[0] == 28       # healthy = paper value
    assert nmaxes[-1] < nmaxes[0]  # recal costs admission head-room
    # Extended bound covers the fault-injected simulation everywhere.
    for label, bound, simulated, _ in rows:
        assert bound >= simulated, label
