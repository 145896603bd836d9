"""Vectorised Monte-Carlo simulator tests."""

import numpy as np
import pytest

from repro.core import RoundServiceTimeModel, oyang_seek_bound
from repro.errors import ConfigurationError
from repro.server.simulation import (
    estimate_p_error,
    estimate_p_late,
    simulate_rounds,
    simulate_stream_glitches,
)


class TestSimulateRounds:
    def test_shapes(self, viking, paper_sizes, rng):
        batch = simulate_rounds(viking, paper_sizes, n=10, t=1.0,
                                rounds=50, rng=rng)
        assert batch.service_times.shape == (50,)
        assert batch.glitches.shape == (50, 10)
        assert batch.seek_times.shape == (50,)
        assert batch.rounds == 50
        assert batch.n == 10

    def test_service_time_composition(self, viking, paper_sizes, rng):
        # Mean service time must sit near the analytic expectation
        # (below it, since the analytic SEEK is a worst-case constant).
        n = 26
        model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        batch = simulate_rounds(viking, paper_sizes, n, 1.0, 5000, rng)
        sim_mean = float(np.mean(batch.service_times))
        ana_mean = model.mean(n)
        assert sim_mean < ana_mean
        assert sim_mean > ana_mean - model.seek(n)  # only seek slack

    def test_seek_below_oyang_bound(self, viking, paper_sizes, rng):
        n = 26
        bound = oyang_seek_bound(viking.seek_curve, viking.cylinders, n)
        batch = simulate_rounds(viking, paper_sizes, n, 1.0, 2000, rng)
        assert float(np.max(batch.seek_times)) <= bound

    def test_glitches_follow_service_times(self, viking, paper_sizes, rng):
        batch = simulate_rounds(viking, paper_sizes, 30, 1.0, 3000, rng)
        overran = batch.service_times > 1.0
        has_glitch = batch.glitches.any(axis=1)
        assert np.array_equal(overran, has_glitch)

    def test_glitches_spread_over_streams(self, viking, paper_sizes, rng):
        # §3.3's independence condition: glitches hit streams uniformly.
        batch = simulate_rounds(viking, paper_sizes, 30, 1.0, 30_000, rng)
        per_stream = batch.glitches.sum(axis=0).astype(float)
        mean = per_stream.mean()
        assert mean > 10  # enough glitches for the check to bite
        assert np.all(np.abs(per_stream - mean) < 6 * np.sqrt(mean))

    def test_reproducible(self, viking, paper_sizes):
        a = simulate_rounds(viking, paper_sizes, 10, 1.0, 100,
                            np.random.default_rng(3))
        b = simulate_rounds(viking, paper_sizes, 10, 1.0, 100,
                            np.random.default_rng(3))
        assert np.array_equal(a.service_times, b.service_times)

    def test_chunking_invariant(self, viking, paper_sizes, monkeypatch):
        # Forcing a tiny chunk size must not change counts materially
        # (streams are i.i.d. across rounds; use statistics not equality
        # since the RNG consumption order differs).
        import repro.server.simulation as sim
        rng1 = np.random.default_rng(9)
        full = simulate_rounds(viking, paper_sizes, 20, 1.0, 2000, rng1)
        monkeypatch.setattr(sim, "DEFAULT_SIM_CHUNK", 64)
        rng2 = np.random.default_rng(9)
        chunked = sim.simulate_rounds(viking, paper_sizes, 20, 1.0, 2000,
                                      rng2)
        assert chunked.service_times.shape == full.service_times.shape
        # The patch took: 64-round chunks consume the stream differently.
        assert not np.array_equal(chunked.service_times,
                                  full.service_times)
        assert float(np.mean(chunked.service_times)) == pytest.approx(
            float(np.mean(full.service_times)), rel=0.01)

    def test_validation(self, viking, paper_sizes, rng):
        with pytest.raises(ConfigurationError):
            simulate_rounds(viking, paper_sizes, 0, 1.0, 10, rng)
        with pytest.raises(ConfigurationError):
            simulate_rounds(viking, paper_sizes, 5, -1.0, 10, rng)
        with pytest.raises(ConfigurationError):
            simulate_rounds(viking, paper_sizes, 5, 1.0, 0, rng)


class TestEstimators:
    def test_p_late_estimate_fields(self, viking, paper_sizes):
        est = estimate_p_late(viking, paper_sizes, 28, 1.0, rounds=4000,
                              seed=1)
        assert est.rounds == 4000
        assert est.p_late == est.late_rounds / 4000
        assert est.ci_low <= est.p_late <= est.ci_high

    def test_figure1_crossover(self, viking, paper_sizes):
        # Figure 1's simulated curve: N=28 still under 1 %, N=29 above.
        below = estimate_p_late(viking, paper_sizes, 28, 1.0,
                                rounds=20_000, seed=2)
        above = estimate_p_late(viking, paper_sizes, 29, 1.0,
                                rounds=20_000, seed=2)
        assert below.p_late < 0.01
        assert above.p_late > 0.01

    def test_stream_glitch_matrix(self, viking, paper_sizes):
        counts = simulate_stream_glitches(viking, paper_sizes, n=30,
                                          t=1.0, m=300, runs=4, seed=5)
        assert counts.shape == (4, 30)
        assert counts.dtype == np.int64
        assert np.all(counts >= 0)
        assert np.all(counts <= 300)

    def test_p_error_estimate(self, viking, paper_sizes):
        est = estimate_p_error(viking, paper_sizes, n=32, t=1.0, m=300,
                               g=3, runs=10, seed=5)
        assert est.streams == 320
        assert 0.0 <= est.p_error <= 1.0
        assert est.mean_glitches > 0.0

    def test_p_error_validation(self, viking, paper_sizes):
        with pytest.raises(ConfigurationError):
            estimate_p_error(viking, paper_sizes, 30, 1.0, m=100, g=200,
                             runs=2)
        with pytest.raises(ConfigurationError):
            simulate_stream_glitches(viking, paper_sizes, 30, 1.0, 100,
                                     runs=0)
