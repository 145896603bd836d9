"""A11: extension -- what staggering stream starts is worth.

The paper's per-disk model assumes uniform load across disks (§3); with
stride-1 striping that is a statement about stream *phases*.  This
bench quantifies the admission gap between balanced phases (the
MediaServer staggers starts) and random phases (streams start on
arrival), and validates the random-phase binomial-mixture bound against
a farm simulation.
"""

import numpy as np

import _emit
from repro.analysis import format_probability, render_table
from repro.core import GlitchModel, RoundServiceTimeModel
from repro.core.striping import (
    balanced_glitch_bound,
    n_max_balanced,
    n_max_random_phases,
    random_phase_glitch_bound,
)
from repro.server.simulation import simulate_rounds

T = 1.0
M, G, EPS = 1200, 12, 0.01
DISKS = (1, 2, 4, 8)


def _simulate_random_phase_glitch(spec, sizes, n_total, disks, rounds,
                                  seed):
    """Per-stream glitch rate with multinomial per-disk loads.

    Loads are drawn per round; each disk's batch is simulated at its
    drawn size by slicing precomputed fixed-size batches (statistically
    equivalent, since requests are i.i.d. given the load)."""
    rng = np.random.default_rng(seed)
    glitch_events = 0
    requests = 0
    loads = rng.multinomial(n_total, np.full(disks, 1.0 / disks),
                            size=rounds)
    max_load = int(loads.max())
    # Unused, but it advances rng, which the runs below draw from.
    simulate_rounds(spec, sizes, max_load, T, rounds, rng)
    # For disk loads k < max_load, a prefix of the sweep's requests is a
    # biased subsample; instead re-simulate per distinct load value.
    by_load = {}
    for k in np.unique(loads):
        if k == 0:
            continue
        b = simulate_rounds(spec, sizes, int(k), T,
                            max(rounds // disks, 200), rng)
        by_load[int(k)] = float(np.mean(b.glitches))
    for k in loads.ravel():
        if k == 0:
            continue
        glitch_events += by_load[int(k)] * k
        requests += k
    return glitch_events / requests


def run_ablation(spec, sizes):
    model = RoundServiceTimeModel.for_disk(spec, sizes)
    glitch = GlitchModel(model, T)
    rows = []
    for disks in DISKS:
        balanced = n_max_balanced(glitch, disks, M, G, EPS)
        random_n = n_max_random_phases(glitch, disks, M, G, EPS)
        rows.append((disks, balanced, random_n,
                     balanced_glitch_bound(glitch, balanced, disks),
                     random_phase_glitch_bound(glitch, balanced, disks)))
    # Validate the mixture bound by simulation at one config.
    disks, n_total = 4, rows[2][1]
    sim_rate = _simulate_random_phase_glitch(spec, sizes, n_total, disks,
                                             rounds=2500, seed=42)
    return rows, (disks, n_total, sim_rate)


def test_a11_phase_balance(benchmark, viking, paper_sizes, record):
    rows, sim = benchmark.pedantic(run_ablation,
                                   args=(viking, paper_sizes), rounds=1,
                                   iterations=1)
    disks_s, n_s, sim_rate = sim
    table = render_table(
        ["disks", "N_max balanced", "N_max random phases",
         "b_glitch balanced", "b_glitch random @ balanced N"],
        [[str(d), str(b), str(r), format_probability(bb),
          format_probability(rb)] for d, b, r, bb, rb in rows],
        title=f"A11: phase balance on a disk farm (M={M}, g={G}, "
        f"eps={EPS:g})")
    mixture_at_sim = [r for r in rows if r[0] == disks_s][0][4]
    footer = (f"\nsimulated random-phase glitch rate at D={disks_s}, "
              f"N={n_s}: {format_probability(sim_rate)} "
              f"(mixture bound {format_probability(mixture_at_sim)})")
    record("a11_phase_balance", table + footer)
    _emit.emit("a11_phase_balance", benchmark, sim_glitch_rate=sim_rate,
               **{f"nmax_balanced_d{d}": b for d, b, _, _, _ in rows})

    by_disks = {r[0]: r for r in rows}
    assert by_disks[1][1] == by_disks[1][2]  # one disk: phases moot
    for d in (2, 4, 8):
        assert by_disks[d][2] < by_disks[d][1]  # random phases cost
    # Random-phase loss grows with farm size in absolute streams.
    losses = [by_disks[d][1] - by_disks[d][2] for d in (2, 4, 8)]
    assert losses == sorted(losses)
    # The mixture bound covers the simulated random-phase system.
    assert mixture_at_sim >= sim_rate
