"""The array seed scan of the Chernoff optimiser is exact.

``chernoff_tail_bound`` scores its seed grid through
``LogMGF.call_array``.  For the closed-form terms that is numpy
arithmetic whose transcendental functions may differ from the C
library's in the last bit, so the array values only pick a seed index,
which the scalar objective re-scores.  These tests pin both halves:
every ``ChernoffResult`` equals the one a scalar-only log-MGF gives,
and every array term tracks its scalar ``log_mgf`` to a few ULP.
"""

import math
import random

import numpy as np
import pytest

from repro.core.chernoff import chernoff_tail_bound
from repro.core.faults import with_recalibration
from repro.core.mgf import (
    ConstantTerm,
    GammaTerm,
    LogMGF,
    NumericTerm,
    ProductMGF,
    UniformTerm,
)
from repro.core.service_time import RoundServiceTimeModel
from repro.disk import quantum_viking_2_1, single_zone_viking
from repro.distributions import (
    Deterministic,
    Empirical,
    Gamma,
    LogNormal,
    Truncated,
    Uniform,
)


class _ScalarOnly(LogMGF):
    """Wraps a log-MGF behind its scalar call alone, so the optimiser
    falls back to ``LogMGF.call_array``'s loop over ``__call__``."""

    def __init__(self, inner: LogMGF) -> None:
        self.inner = inner

    @property
    def theta_sup(self) -> float:
        return self.inner.theta_sup

    def __call__(self, theta: float) -> float:
        return self.inner(theta)

    def mean(self) -> float:
        return self.inner.mean()

    def var(self) -> float:
        return self.inner.var()


def _assert_same(result, expected):
    for field in ("bound", "log_bound", "theta", "t"):
        got, want = getattr(result, field), getattr(expected, field)
        assert got == want, (
            f"{field}: array scan {got!r} != scalar scan {want!r}")


def _sample_points(seed: int, count: int):
    """``count`` seeded (model, n, t) points over the model space:
    Viking or single-zone disk, a Gamma size law, multi-zone on/off,
    an occasional recalibration term, n in 1..256 and t mostly in the
    region where the bound is neither trivial nor vanishing."""
    rng = random.Random(seed)
    disks = (quantum_viking_2_1(), single_zone_viking())
    models = []
    for _ in range(24):
        mean = rng.uniform(20e3, 600e3)
        sizes = Gamma.from_mean_std(mean, mean * rng.uniform(0.05, 2.0))
        model = RoundServiceTimeModel.for_disk(
            rng.choice(disks), sizes, multizone=rng.random() < 0.5)
        if rng.random() < 0.2:
            model = with_recalibration(model, rng.uniform(0.001, 0.1),
                                       rng.uniform(0.005, 0.1))
        models.append(model)
    points = []
    for _ in range(count):
        model = rng.choice(models)
        n = rng.randint(1, 256)
        mean, sd = model.mean(n), math.sqrt(model.var(n))
        roll = rng.random()
        if roll < 0.8:
            t = mean + sd * rng.uniform(0.01, 12.0)
        elif roll < 0.9:
            t = mean * rng.uniform(1.0, 3.0)
        else:
            t = mean * rng.uniform(0.3, 1.0)
        points.append((model, n, t))
    return points


class TestSeedScanExact:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_scalar_fallback(self, seed):
        points = _sample_points(seed, 160)
        nontrivial = 0
        for model, n, t in points:
            logmgf = model.log_mgf(n)
            result = chernoff_tail_bound(logmgf, t)
            _assert_same(result, chernoff_tail_bound(_ScalarOnly(logmgf), t))
            nontrivial += 0.0 < result.bound < 1.0
        # The sample must exercise the optimiser, not the early exits.
        assert nontrivial >= 0.6 * len(points)

    @pytest.mark.parametrize("logmgf, t", [
        (GammaTerm(Gamma(1e31, 1.0)), 1e31 + 5.0 * math.sqrt(1e31)),
        (GammaTerm(Gamma(4.0, 2.0)), 4.0),
        (ProductMGF([(ConstantTerm(0.02), 1), (UniformTerm(0.011), 30),
                     (GammaTerm(Gamma(2.0, 300.0)), 30)]), 0.7),
    ])
    def test_zoom_and_closed_form_cases(self, logmgf, t):
        _assert_same(chernoff_tail_bound(logmgf, t),
                     chernoff_tail_bound(_ScalarOnly(logmgf), t))


def _ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestArrayTerms:
    """Each closed-form array ``log_mgf`` against its scalar one."""

    @staticmethod
    def _scalar(dist, theta):
        return np.array([dist.log_mgf(float(x)) for x in theta])

    @staticmethod
    def _uniform_scale(dist, theta, value):
        """Largest part of ``Uniform.log_mgf``'s sum at ``theta``.

        ``log(expm1(z)) - log(z)`` cancels for small ``|z|``: the result
        can be far smaller than its parts, so one ULP of difference in
        a part is many ULPs of the result.  Errors are measured at the
        magnitude of the largest part instead."""
        z = theta * (dist.high - dist.low)
        parts = [value, theta * dist.low]
        if z > 30.0:
            parts += [z, math.log(z)]
        elif z != 0.0:
            parts += [math.log(abs(math.expm1(z))), math.log(abs(z))]
        return max(abs(part) for part in parts)

    @pytest.mark.parametrize("dist", [Uniform(0.0, 0.011),
                                      Uniform(1.0, 3.0)])
    def test_uniform_every_branch(self, dist):
        theta = np.concatenate((
            [0.0], np.geomspace(1e-14, 1e6, 1500),
            -np.geomspace(1e-14, 1e6, 1500)))
        z = theta * (dist.high - dist.low)
        branches = {
            "|z| < 1e-8": np.abs(z) < 1e-8,
            "0 < z <= 30": (z >= 1e-8) & (z <= 30.0),
            "z > 30": z > 30.0,
            "z < 0": z <= -1e-8,
        }
        got = dist.log_mgf_array(theta)
        want = self._scalar(dist, theta)
        scale = np.array([self._uniform_scale(dist, float(x), value)
                          for x, value in zip(theta, want)])
        for name, mask in branches.items():
            assert mask.sum() >= 100, name
            error = np.abs(got[mask] - want[mask])
            assert np.all(error <= 4.0 * np.spacing(scale[mask])), name
        # The Taylor branch is pure arithmetic: identical bits.
        small = branches["|z| < 1e-8"]
        assert np.array_equal(got[small], want[small])

    def test_gamma_up_to_the_pole(self):
        dist = Gamma(3.7, 250.0)
        below = np.concatenate((
            [0.0], np.geomspace(1e-12, dist.rate, 1000, endpoint=False),
            dist.rate * (1.0 - np.geomspace(1e-15, 1e-1, 200))))
        got, want = dist.log_mgf_array(below), self._scalar(dist, below)
        assert np.all(np.isfinite(got))
        assert np.all(_ulp_distance(got, want) <= 4)
        beyond = np.array([dist.rate, np.nextafter(dist.rate, np.inf),
                           2.0 * dist.rate, 1e300])
        assert np.all(dist.log_mgf_array(beyond) == math.inf)
        assert np.all(self._scalar(dist, beyond) == math.inf)

    def test_deterministic_is_exact(self):
        dist = Deterministic(0.0231)
        theta = np.concatenate(([0.0], np.geomspace(1e-12, 1e6, 300),
                                -np.geomspace(1e-12, 1e6, 300)))
        assert np.array_equal(dist.log_mgf_array(theta),
                              self._scalar(dist, theta))

    def test_product_sums_terms_and_maps_the_pole_to_inf(self):
        gamma = Gamma(2.0, 300.0)
        seek, rot, transfer = (ConstantTerm(0.02), UniformTerm(0.011),
                               GammaTerm(gamma))
        product = ProductMGF([(seek, 1), (rot, 40), (transfer, 40)])
        theta = np.concatenate((
            [0.0], np.geomspace(1e-9, gamma.rate, 600, endpoint=False),
            [gamma.rate, 1.5 * gamma.rate, 1e12]))
        got = product.call_array(theta)
        inside = theta < gamma.rate
        # The scalar call's sum, in its order: 0 + 1*seek + 40*rot + ...
        within = theta[inside]
        assert np.array_equal(got[inside],
                              1 * seek.call_array(within)
                              + 40 * rot.call_array(within)
                              + 40 * transfer.call_array(within))
        assert np.all(got[~inside] == math.inf)
        assert np.all(transfer.call_array(theta[~inside]) == math.inf)
        assert all(product(float(x)) == math.inf for x in theta[~inside])

    @pytest.mark.parametrize("dist", [
        Truncated(LogNormal.from_mean_std(1.0, 0.5), 0.0, 6.0),
        Empirical(np.linspace(0.5, 2.5, 41)),
    ])
    def test_fallback_loops_the_scalar_call(self, dist):
        term = NumericTerm(dist)
        theta = np.concatenate(([0.0], np.geomspace(1e-6, 20.0, 50)))
        want = np.array([term(float(x)) for x in theta])
        assert np.array_equal(term.call_array(theta), want)
        assert np.array_equal(_ScalarOnly(term).call_array(theta), want)
