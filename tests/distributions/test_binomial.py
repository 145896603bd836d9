"""Binomial tail and Hagerup-Rüb bound tests (eq. 3.3.4/3.3.5)."""

import math
import random

import pytest
from scipy import stats

from repro.distributions import (
    binomial_tail,
    hagerup_rub_tail,
    log_hagerup_rub_tail,
)
from repro.errors import ConfigurationError


class TestExactTail:
    def test_matches_direct_sum(self):
        m, p, g = 20, 0.1, 4
        direct = sum(math.comb(m, k) * p ** k * (1 - p) ** (m - k)
                     for k in range(g, m + 1))
        assert binomial_tail(m, p, g) == pytest.approx(direct, rel=1e-12)

    def test_g_zero_is_one(self):
        assert binomial_tail(100, 0.3, 0) == 1.0

    def test_p_zero(self):
        assert binomial_tail(100, 0.0, 1) == 0.0

    def test_p_one(self):
        assert binomial_tail(10, 1.0, 10) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            binomial_tail(0, 0.5, 0)
        with pytest.raises(ConfigurationError):
            binomial_tail(10, 0.5, 11)
        with pytest.raises(ConfigurationError):
            binomial_tail(10, 1.5, 2)
        with pytest.raises(ConfigurationError):
            binomial_tail(10, 0.5, -1)


def _exact_tail(m, p, g):
    """``P[Binomial(m, p) >= g]`` in exact rational arithmetic (``p`` is
    a dyadic rational), rounded once to the nearest float."""
    num, den = p.as_integer_ratio()
    total = sum(math.comb(m, k) * num ** k * (den - num) ** (m - k)
                for k in range(g, m + 1))
    return total / den ** m


def _random_p(rng):
    """A rate on a linear, a log or a near-one scale."""
    roll = rng.random()
    if roll < 0.4:
        return rng.random()
    if roll < 0.8:
        return 10.0 ** rng.uniform(-6.0, 0.0)
    return 1.0 - 10.0 ** rng.uniform(-6.0, 0.0)


class TestExactTailAccuracy:
    def test_against_exact_arithmetic(self):
        rng = random.Random(20240)
        branches = set()
        for _ in range(300):
            m = rng.randint(1, 200)
            p = _random_p(rng)
            g = rng.randint(0, m)
            exact = _exact_tail(m, p, g)
            got = binomial_tail(m, p, g)
            if exact >= 1e-200:
                assert got == pytest.approx(exact, rel=1e-12, abs=0.0), (
                    m, p, g)
            else:
                assert got <= 1e-199, (m, p, g)
            branches.add(g > math.floor((m + 1) * p))
        assert branches == {False, True}

    def test_against_scipy_up_to_m_20000(self):
        rng = random.Random(20241)
        checked = 0
        for _ in range(200):
            m = rng.randint(1, 20000)
            p = _random_p(rng)
            sd = math.sqrt(m * p * (1.0 - p))
            g = max(0, min(m, int(m * p + sd * rng.uniform(-8.0, 30.0))))
            want = float(stats.binom.sf(g - 1, m, p))
            if want < 1e-200:
                continue
            assert binomial_tail(m, p, g) == pytest.approx(
                want, rel=1e-11, abs=0.0), (m, p, g)
            checked += 1
        assert checked >= 150

    def test_deep_tail_against_exact_arithmetic(self):
        # A tail near 1e-287, where scipy's sf is off in the fifth digit.
        m, p, g = 100, 1.2312392379525103e-05, 64
        exact = _exact_tail(m, p, g)
        assert 0.0 < exact < 1e-280
        assert binomial_tail(m, p, g) == pytest.approx(exact, rel=1e-13,
                                                       abs=0.0)


class TestHagerupRub:
    def test_upper_bounds_exact_tail(self):
        # The HR bound must dominate the exact tail wherever it applies.
        for m, p, g in [(1200, 0.002, 12), (100, 0.05, 20),
                        (50, 0.01, 5), (1200, 0.008, 12)]:
            assert hagerup_rub_tail(m, p, g) >= binomial_tail(m, p, g)

    def test_paper_order_of_magnitude(self):
        # §3.3 example: N=28, M=1200, g=12, p_glitch ~ b_glitch gives
        # p_error ~ 1e-4..1e-3; sanity-check the formula at p=0.002.
        bound = hagerup_rub_tail(1200, 0.002, 12)
        assert 1e-6 < bound < 1e-2

    def test_trivial_when_precondition_fails(self):
        # g/M <= p: bound saturates at 1 (paper's Table 2 rows N>=30).
        assert hagerup_rub_tail(1200, 0.02, 12) == 1.0
        assert hagerup_rub_tail(1200, 0.01, 12) == 1.0

    def test_p_zero_gives_zero(self):
        assert hagerup_rub_tail(100, 0.0, 1) == 0.0
        assert hagerup_rub_tail(100, 0.0, 0) == 1.0

    def test_g_equals_m(self):
        # ((M-Mp)/(M-g))^(M-g) -> 1; bound = p^M... check no crash and
        # correct value (Mp/g)^g = p^M when g = M.
        m, p = 10, 0.1
        assert hagerup_rub_tail(m, p, m) == pytest.approx(p ** m, rel=1e-9)

    def test_log_version_consistent(self):
        m, p, g = 1200, 0.003, 12
        assert math.exp(log_hagerup_rub_tail(m, p, g)) == pytest.approx(
            hagerup_rub_tail(m, p, g), rel=1e-12)

    def test_deep_tail_stays_in_log_space(self):
        # With p tiny the linear bound underflows but the log survives.
        log_bound = log_hagerup_rub_tail(100_000, 1e-8, 100)
        assert log_bound < -500.0
        assert hagerup_rub_tail(100_000, 1e-8, 100) == 0.0

    def test_monotone_in_p(self):
        values = [hagerup_rub_tail(1200, p, 12)
                  for p in (0.001, 0.002, 0.004, 0.008)]
        assert values == sorted(values)

    def test_tighter_than_markov_for_small_p(self):
        m, p, g = 1200, 0.002, 12
        markov = m * p / g
        assert hagerup_rub_tail(m, p, g) < markov

    def test_matches_scipy_shape(self):
        # The exact tail should track scipy's sf.
        m, p, g = 500, 0.01, 10
        assert binomial_tail(m, p, g) == pytest.approx(
            float(stats.binom.sf(g - 1, m, p)), rel=1e-12)
