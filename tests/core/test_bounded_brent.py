"""The Chernoff optimiser's bounded Brent port equals scipy's.

``repro.core.chernoff._bounded_brent`` is a port of scipy's
``_minimize_scalar_bounded`` onto Python floats, so that solving a bound
does not import scipy.  These tests run scipy beside it on every solve
of a seeded sample of the model space, and on hand-made objectives that
reach the method's edges, and require ``==`` on both the minimiser and
the minimum.
"""

import math

import pytest
from scipy import optimize

from repro.cache import cache_disabled
from repro.core import (
    AdmissionTable,
    GlitchModel,
    RoundServiceTimeModel,
    chernoff,
)
from repro.core.mgf import GammaTerm
from repro.distributions import Gamma
from test_chernoff_array_scan import _sample_points

_PORT = chernoff._bounded_brent


def _scipy_bounded(g, lo, hi, xatol):
    return optimize.minimize_scalar(
        g, bounds=(lo, hi), method="bounded", options={"xatol": xatol})


def _assert_matches_scipy(g, lo, hi, xatol):
    """Run the port and scipy on one problem; returns the port's
    ``(x, fun)`` and scipy's result."""
    floats_only = []

    def checked(theta):
        floats_only.append(type(theta) is float)
        return g(theta)

    x, fun = _PORT(checked, lo, hi, xatol)
    ref = _scipy_bounded(g, lo, hi, xatol)
    problem = f"bounds=({lo!r}, {hi!r}), xatol={xatol!r}"
    assert x == ref.x, f"x: port {x!r} != scipy {ref.x!r} ({problem})"
    assert fun == ref.fun, (
        f"fun: port {fun!r} != scipy {ref.fun!r} ({problem})")
    assert all(floats_only), "the port passed a non-float to g"
    return x, fun, ref


class _Spy:
    """Stands in for ``_bounded_brent`` inside ``chernoff_tail_bound``
    and checks every solve against scipy."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, g, lo, hi, xatol):
        x, fun, _ = _assert_matches_scipy(g, lo, hi, xatol)
        self.calls += 1
        return x, fun


@pytest.fixture
def spy(monkeypatch):
    watcher = _Spy()
    monkeypatch.setattr(chernoff, "_bounded_brent", watcher)
    return watcher


class TestChernoffSolvesMatchScipy:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_seeded_model_points(self, spy, seed):
        points = _sample_points(seed, 160)
        for model, n, t in points:
            chernoff.chernoff_tail_bound(model.log_mgf(n), t)
        # Most points reach the refine; the rest exit on the trivial or
        # the deep-tail path before it.
        assert spy.calls >= 0.6 * len(points)

    def test_paper_admission_grid(self, spy, viking, viking_single_zone,
                                  paper_sizes):
        # The N_max searches of the paper's admission tables, solved
        # afresh (the bound cache would answer repeats unsolved).
        thresholds = (0.001, 0.01, 0.05)
        with cache_disabled():
            for spec in (viking, viking_single_zone):
                model = RoundServiceTimeModel.for_disk(spec, paper_sizes)
                for t in (0.6, 1.0, 1.32):
                    AdmissionTable(GlitchModel(model, t), m=1200, g=12).build(
                        plate_thresholds=thresholds,
                        perror_thresholds=thresholds)
        assert spy.calls >= 100


class TestDirectCases:
    def test_quadratic(self):
        for xatol in (1e-5, 1e-11):
            x, fun, ref = _assert_matches_scipy(
                lambda v: (v - 0.3) ** 2 + 1.0, 0.0, 1.0, xatol)
            assert x == pytest.approx(0.3, abs=1e-4)
            assert ref.status == 0

    def test_minimum_at_a_bracket_end(self):
        x, fun, _ = _assert_matches_scipy(lambda v: v, 0.5, 2.0, 1e-9)
        assert x == pytest.approx(0.5, abs=1e-8)
        assert fun == x

    def test_bracket_reaching_the_big_plateau(self):
        # A Gamma term has its pole at theta = rate = 1; past it the
        # objective sits on the _BIG plateau.
        g = chernoff._objective(GammaTerm(Gamma(2.0, 1.0)), 6.0)
        x, fun, _ = _assert_matches_scipy(g, 0.0, 2.0, 1e-11)
        assert g(1.5) == chernoff._BIG
        assert 0.0 < x < 1.0 and fun < 0.0
        # The closed-form optimum of -6 theta - 2 log(1 - theta).
        assert x == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_maxiter_cap(self):
        # |x| defeats the parabolic step, and an xatol of 1e-300 cannot
        # be met before the 500-evaluation cap.
        evaluations = []

        def g(v):
            evaluations.append(v)
            return abs(v)

        x, fun, ref = _assert_matches_scipy(g, -1.0, 1.0, 1e-300)
        assert ref.status == 1 and ref.nfev == chernoff._BRENT_MAXITER
        assert len(evaluations) == 2 * chernoff._BRENT_MAXITER
        assert math.isfinite(x) and fun == abs(x)
