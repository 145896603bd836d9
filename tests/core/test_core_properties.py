"""Property-based tests on the core analytic machinery (hypothesis).

The strongest check exploits closure: a sum of n i.i.d. Gamma(beta,
alpha) variables is exactly Gamma(n*beta, alpha), so the Chernoff bound
built from the n-fold MGF power can be compared against the *exact*
tail probability -- the bound must dominate it for every generated
configuration, at every threshold.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import GlitchModel, RoundServiceTimeModel, n_max_plate
from repro.core.chernoff import chernoff_tail_bound
from repro.core.mgf import GammaTerm
from repro.distributions import Gamma, hagerup_rub_tail

shapes = st.floats(min_value=0.3, max_value=30.0)
rates = st.floats(min_value=0.01, max_value=100.0)
counts = st.integers(min_value=1, max_value=60)


class TestChernoffExactness:
    @settings(max_examples=60, deadline=None)
    @given(shapes, rates, counts,
           st.floats(min_value=1.05, max_value=8.0))
    def test_dominates_exact_gamma_sum_tail(self, shape, rate, n,
                                            mean_multiple):
        """Chernoff(n-fold Gamma MGF) >= exact Gamma(n*shape, rate)
        tail at any threshold above the mean."""
        term = GammaTerm(Gamma(shape, rate))
        logmgf = term.pow(n)
        t = mean_multiple * n * shape / rate
        bound = chernoff_tail_bound(logmgf, t)
        exact = float(stats.gamma.sf(t, a=n * shape,
                                     scale=1.0 / rate))
        assert bound.bound >= exact - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(shapes, rates, counts,
           st.floats(min_value=1.5, max_value=6.0))
    def test_within_polynomial_factor_of_exact(self, shape, rate, n,
                                               mean_multiple):
        """Chernoff bounds lose only a sub-exponential factor: the
        log-bound must track the exact log-tail within a generous
        additive margin that grows slowly with the tail depth."""
        term = GammaTerm(Gamma(shape, rate))
        logmgf = term.pow(n)
        t = mean_multiple * n * shape / rate
        bound = chernoff_tail_bound(logmgf, t)
        exact = float(stats.gamma.logsf(t, a=n * shape,
                                        scale=1.0 / rate))
        if exact < -600:  # beyond double-precision interest
            return
        # log bound in [exact, exact * 0.2] roughly; allow wide slack.
        assert bound.log_bound >= exact
        assert bound.log_bound <= 0.5 * exact + 10.0

    @settings(max_examples=40, deadline=None)
    @given(shapes, rates, st.floats(min_value=0.2, max_value=1.0))
    def test_trivial_at_or_below_mean(self, shape, rate, fraction):
        term = GammaTerm(Gamma(shape, rate))
        t = fraction * shape / rate
        assert chernoff_tail_bound(term, t).bound == 1.0

    @settings(max_examples=40, deadline=None)
    @given(shapes, rates, counts)
    def test_monotone_in_threshold(self, shape, rate, n):
        logmgf = GammaTerm(Gamma(shape, rate)).pow(n)
        mean = n * shape / rate
        ts = [mean * m for m in (1.2, 1.7, 2.5, 4.0)]
        bounds = [chernoff_tail_bound(logmgf, t).bound for t in ts]
        assert all(b1 >= b2 - 1e-15
                   for b1, b2 in zip(bounds, bounds[1:]))


class TestRoundModelProperties:
    @st.composite
    @staticmethod
    def round_configs(draw):
        rot = draw(st.floats(min_value=1e-3, max_value=30e-3))
        seek_per_req = draw(st.floats(min_value=1e-4, max_value=8e-3))
        mean = draw(st.floats(min_value=5e-3, max_value=60e-3))
        cv = draw(st.floats(min_value=0.1, max_value=1.2))
        return rot, seek_per_req, mean, cv

    @settings(max_examples=30, deadline=None)
    @given(round_configs(), st.integers(min_value=2, max_value=40))
    def test_mean_var_additivity(self, config, n):
        rot, seek_per_req, mean, cv = config
        model = RoundServiceTimeModel(
            seek_bound=lambda k: seek_per_req * (k + 1), rot=rot,
            transfer=Gamma.from_mean_std(mean, cv * mean))
        expected_mean = (seek_per_req * (n + 1) + n * rot / 2
                         + n * mean)
        expected_var = n * rot ** 2 / 12 + n * (cv * mean) ** 2
        assert math.isclose(model.mean(n), expected_mean, rel_tol=1e-9)
        assert math.isclose(model.var(n), expected_var, rel_tol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(round_configs())
    def test_b_late_monotone_in_n(self, config):
        rot, seek_per_req, mean, cv = config
        model = RoundServiceTimeModel(
            seek_bound=lambda k: seek_per_req * (k + 1), rot=rot,
            transfer=Gamma.from_mean_std(mean, cv * mean))
        t = 20 * (mean + rot)  # keeps some n feasible
        bounds = [model.b_late(n, t) for n in (1, 5, 10, 20, 40)]
        assert all(a <= b + 1e-15 for a, b in zip(bounds, bounds[1:]))

    @settings(max_examples=20, deadline=None)
    @given(round_configs())
    def test_n_max_consistent_with_bound(self, config):
        rot, seek_per_req, mean, cv = config
        model = RoundServiceTimeModel(
            seek_bound=lambda k: seek_per_req * (k + 1), rot=rot,
            transfer=Gamma.from_mean_std(mean, cv * mean))
        t = 15 * (mean + rot)
        n_max = n_max_plate(model, t, 0.01, n_cap=200)
        if n_max > 0:
            assert model.b_late(n_max, t) <= 0.01
        if n_max < 200:
            assert model.b_late(n_max + 1, t) > 0.01


class TestGlitchTelescoping:
    def test_eq_3_3_2_against_direct_monte_carlo(self, rng):
        """Validate the telescoping identity with a direct simulation
        of the abstract §3.3 model: N streams in random service order,
        T_k = SEEK + sum of k (rot + trans), stream glitches iff its
        position k has T_k > t."""
        n, t = 8, 0.35
        seek = 0.05
        rot = 8.34e-3
        trans = Gamma.from_mean_std(0.03, 0.015)
        trials = 120_000
        rot_draws = rng.uniform(0, rot, size=(trials, n))
        trans_draws = trans.sample(rng, size=(trials, n))
        completion = seek + np.cumsum(rot_draws + trans_draws, axis=1)
        # Tagged stream occupies a uniformly random service position.
        positions = rng.integers(0, n, size=trials)
        tagged_late = completion[np.arange(trials), positions] > t
        p_tagged = float(np.mean(tagged_late))

        # Right-hand side of eq. (3.3.2): (1/N) sum_k P[T_k > t].
        p_late_k = np.mean(completion > t, axis=0)
        rhs = float(np.mean(p_late_k))
        assert p_tagged == pytest.approx(rhs, rel=0.03)

    def test_b_glitch_dominates_abstract_model(self, rng):
        """The Chernoff-based b_glitch covers the abstract model's
        tagged-stream glitch probability."""
        n, t = 8, 0.35
        seek = 0.05
        rot = 8.34e-3
        trans = Gamma.from_mean_std(0.03, 0.015)
        model = RoundServiceTimeModel(
            seek_bound=lambda k, s=seek: s, rot=rot, transfer=trans)
        glitch = GlitchModel(model, t)
        bound = glitch.b_glitch(n)

        trials = 60_000
        rot_draws = rng.uniform(0, rot, size=(trials, n))
        trans_draws = trans.sample(rng, size=(trials, n))
        completion = seek + np.cumsum(rot_draws + trans_draws, axis=1)
        positions = rng.integers(0, n, size=trials)
        p_tagged = float(
            np.mean(completion[np.arange(trials), positions] > t))
        assert bound >= p_tagged


class TestHagerupRubProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=10, max_value=5000),
           st.floats(min_value=1e-5, max_value=0.3),
           st.floats(min_value=1.2, max_value=10.0))
    def test_dominates_exact_binomial(self, m, p, g_factor):
        g = min(int(math.ceil(g_factor * m * p)) + 1, m)
        exact = float(stats.binom.sf(g - 1, m, p))
        assert hagerup_rub_tail(m, p, g) >= exact - 1e-12
