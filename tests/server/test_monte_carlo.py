"""Vectorised Monte-Carlo simulator tests."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.server.simulation as sim
from repro.core import RoundServiceTimeModel, oyang_seek_bound
from repro.disk import (OrganPipePlacement, quantum_viking_2_1,
                        seagate_hawk_1lp, single_zone_viking)
from repro.disk.sweepkernel import sample_cylinders_rates
from repro.errors import ConfigurationError
from repro.server.simulation import (
    estimate_p_error,
    estimate_p_late,
    simulate_rounds,
    simulate_stream_glitches,
)

DISKS = {"viking": quantum_viking_2_1, "single-zone": single_zone_viking,
         "hawk": seagate_hawk_1lp}


def bytes_digest(*arrays) -> str:
    """sha256 over the raw bytes of ``arrays``, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def round_digest(disk, size_dist, n, t, rounds, seed, **kwargs) -> str:
    """Digest of the four :class:`RoundBatch` arrays of one seeded run."""
    batch = simulate_rounds(DISKS[disk](), size_dist, n, t, rounds,
                            np.random.default_rng(seed), **kwargs)
    return bytes_digest(batch.service_times, batch.glitches,
                        batch.seek_times, batch.first_seek_times)


def sample_digest(disk, shape, seed, placement=None) -> str:
    """Digest of :func:`sample_cylinders_rates`' cylinders and rates."""
    cylinders, rates = sample_cylinders_rates(
        DISKS[disk](), np.random.default_rng(seed), shape,
        placement=placement)
    return bytes_digest(cylinders, rates)


def reference_rounds(spec, size_dist, n, t, rounds, rng, chunk_rounds):
    """The SCAN-round kernel written the plain way: a clamped
    ``searchsorted`` zone pick, a stable ``argsort`` reversed on odd
    rounds, ``take_along_axis`` gathers, the seek curve evaluated on
    float distances and a ``put_along_axis`` scatter.  Sector-uniform
    placement only; returns the four :class:`RoundBatch` arrays."""
    geometry = spec.geometry
    weights = geometry.zone_cylinder_counts * spec.zone_map.capacities
    cum_probs = np.cumsum(weights / np.sum(weights))
    service = np.empty(rounds)
    seek_totals = np.empty(rounds)
    first_seeks = np.empty(rounds)
    glitches = np.zeros((rounds, n), dtype=bool)
    arm, done = 0.0, 0
    while done < rounds:
        chunk = min(chunk_rounds, rounds - done)
        zone = np.searchsorted(cum_probs, rng.random((chunk, n)),
                               side="right")
        zone = np.minimum(zone, spec.zone_map.zones - 1)
        cylinders = geometry.zone_bounds[zone] + np.floor(
            rng.random((chunk, n))
            * geometry.zone_cylinder_counts[zone]).astype(np.int64)
        rates = spec.zone_map.rates[zone]
        sizes = np.asarray(size_dist.sample(rng, (chunk, n)), dtype=float)
        order = np.argsort(cylinders, axis=1, kind="stable")
        descending = (np.arange(done, done + chunk) % 2).astype(bool)
        order[descending] = order[descending, ::-1]
        sorted_cyl = np.take_along_axis(cylinders, order, axis=1)
        ends = sorted_cyl[:, -1].astype(float)
        first = np.abs(sorted_cyl[:, 0] - np.concatenate(([arm], ends[:-1])))
        inner = np.abs(np.diff(sorted_cyl, axis=1)).astype(float)
        seek = spec.seek_curve(np.concatenate((first[:, None], inner), axis=1))
        rotation = rng.uniform(0.0, spec.rot, size=(chunk, n))
        transfer = (np.take_along_axis(sizes, order, axis=1)
                    / np.take_along_axis(rates, order, axis=1))
        completion = np.cumsum(seek + rotation + transfer, axis=1)
        service[done:done + chunk] = completion[:, -1]
        seek_totals[done:done + chunk] = np.sum(seek, axis=1)
        first_seeks[done:done + chunk] = seek[:, 0]
        np.put_along_axis(glitches[done:done + chunk], order,
                          completion > t, axis=1)
        arm = float(ends[-1])
        done += chunk
    return service, glitches, seek_totals, first_seeks


#: ``round_digest`` of seeded runs, recorded with the argsort /
#: ``take_along_axis`` / ``searchsorted`` kernel that the table lookups
#: replaced, so they pin the draws, their order and every bit of the
#: arithmetic between them.  The grid covers the Table-2 and Figure-1
#: chunk shapes, n where the packed sort key's column field crosses a
#: power of two, a one-zone disk, a disk whose zone CDF ends at
#: 1 - 2**-53, a placement policy, recalibration stalls, a service
#: scale and a multi-chunk run (chunk, when set, patches
#: ``DEFAULT_SIM_CHUNK``).
PINNED_ROUNDS = [
    # (id, disk, n, t, rounds, seed, keyword arguments, chunk, digest)
    ("viking-1200x30", "viking", 30, 1.0, 1200, 2401, {}, None,
     "3c935d1433a14f11dcd0de89c74179f6e9a46ca0cd862492f423ef1089ce2f5e"),
    ("viking-2048x26", "viking", 26, 0.85, 2048, 2402, {}, None,
     "09ba4f7613bb40913b7fec9bcb88049ad8f14ad7b6569b839e4d2146bc27481b"),
    ("viking-n1", "viking", 1, 0.05, 500, 2403, {}, None,
     "da579b28fc65f3b61b44d774691b20f3c6b043be9288a8971cd62e8babbf2cdb"),
    ("viking-n64", "viking", 64, 1.95, 300, 2404, {}, None,
     "e8ba7d0eac3176074ac7b80eba890e6e35b3fef105f0994f15a5999e390e9e06"),
    ("viking-n65", "viking", 65, 2.0, 300, 2405, {}, None,
     "d8f7cb92760c360425b794d0886f0a6eacf4dd404cc09ac0077a614efa16e2e5"),
    ("single-zone", "single-zone", 30, 1.0, 600, 2406, {}, None,
     "60a76e8f1c0290ce431cab8707e84314cd8eb384b373250ae48b7d29842666b0"),
    ("hawk", "hawk", 20, 1.0, 600, 2407, {}, None,
     "b574dc923d10ea104cb3b0a328b5f04007e8f4617351c4c5cc52ea4a7eca9c2a"),
    ("organ-pipe", "viking", 30, 0.88, 600, 2408,
     {"placement": OrganPipePlacement()}, None,
     "1ad8478e8991edd993e61a5e38a2782245b96e3a6c609c304f7a1407b8956e89"),
    ("recal", "viking", 28, 0.92, 600, 2409,
     {"recal_prob": 0.05, "recal_duration": 0.1}, None,
     "144847de2f5eb65bb222b81446bca18d14a9cc5eff85d4f5e503bc3363ab3029"),
    ("service-scale", "viking", 20, 1.0, 600, 2410,
     {"service_scale": 1.7}, None,
     "7eae795b4c838ae5f71edd2e702516767c04593050b4c875fd0b930b276b9dd4"),
    ("multi-chunk", "viking", 26, 0.85, 500, 2411, {}, 97,
     "de285dc8246dd0814a501a6e08581231b3a55a2deee1398be49b7f023a580196"),
]

#: ``sample_digest`` of seeded draws, recorded like ``PINNED_ROUNDS``.
PINNED_SAMPLES = [
    # (id, disk, shape, seed, placement, digest)
    ("viking", "viking", (1200, 30), 2421, None,
     "12c4c283935d651d01b43ffca4ac5de4451a173bb80d7945b48633bc3b1e494c"),
    ("single-zone", "single-zone", (300, 26), 2422, None,
     "3b1c114ed8dbe36e8c569d204ed255556c09cb493e2c797d9ae92c944c9ffbcd"),
    ("hawk", "hawk", (1200, 30), 2423, None,
     "99398e2743d6a60dc586a8370324c1a79bb0b200679f1a620623b929748b6b5c"),
    ("organ-pipe", "viking", (300, 26), 2424, OrganPipePlacement(),
     "35affacdd8427362d2552d9ea8a9ca677d45611f541c26e186bf68bcfd300f70"),
]


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


class TestPinnedBits:
    @pytest.mark.parametrize(
        "disk, n, t, rounds, seed, kwargs, chunk, digest",
        [case[1:] for case in PINNED_ROUNDS],
        ids=[case[0] for case in PINNED_ROUNDS])
    def test_simulate_rounds(self, paper_sizes, monkeypatch, disk, n, t,
                             rounds, seed, kwargs, chunk, digest):
        if chunk is not None:
            monkeypatch.setattr(sim, "DEFAULT_SIM_CHUNK", chunk)
        assert round_digest(disk, paper_sizes, n, t, rounds, seed,
                            **kwargs) == digest

    @pytest.mark.parametrize(
        "disk, shape, seed, placement, digest",
        [case[1:] for case in PINNED_SAMPLES],
        ids=[case[0] for case in PINNED_SAMPLES])
    def test_sample_cylinders_rates(self, disk, shape, seed, placement,
                                    digest):
        assert sample_digest(disk, shape, seed, placement) == digest


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(disk=st.sampled_from(sorted(DISKS)), n=st.integers(1, 80),
           rounds=st.integers(1, 40), chunk=st.integers(1, 40),
           t=st.floats(0.02, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_the_plain_kernel(self, paper_sizes, disk, n, rounds,
                                       chunk, t, seed):
        spec = DISKS[disk]()
        expected = reference_rounds(spec, paper_sizes, n, t, rounds,
                                    np.random.default_rng(seed), chunk)
        with mock.patch.object(sim, "DEFAULT_SIM_CHUNK", chunk):
            batch = simulate_rounds(spec, paper_sizes, n, t, rounds,
                                    np.random.default_rng(seed))
        got = (batch.service_times, batch.glitches, batch.seek_times,
               batch.first_seek_times)
        for array, reference in zip(got, expected):
            assert np.array_equal(array.view(np.uint8),
                                  reference.view(np.uint8))


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
