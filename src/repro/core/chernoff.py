"""Chernoff tail bounds.

For a random variable ``X`` with log-MGF ``L(theta)``, Chernoff's theorem
(eq. 3.1.5) gives for every ``t``::

    P[X >= t] <= inf_{theta >= 0} exp(-theta*t + L(theta))

The objective ``g(theta) = -theta*t + L(theta)`` is convex with
``g(0) = 0`` and ``g'(0) = E[X] - t``; the infimum is interior iff
``t > E[X]`` (otherwise the trivial bound 1 results).  The paper solves
``h' = 0`` numerically; we do the same via bounded scalar minimisation
(Brent's method, ported from scipy) on a log-spaced bracket inside the
MGF's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.mgf import LogMGF
from repro.errors import ChernoffError, ConfigurationError

__all__ = ["ChernoffResult", "chernoff_tail_bound"]

#: Largest finite stand-in for "objective is +inf here"; keeps Brent's
#: method away from the MGF pole without breaking its arithmetic.
_BIG = 1e300

#: Relative margin kept between the search interval and the MGF pole.
_POLE_MARGIN = 1e-12

#: Objective evaluations after which Brent's method stops (scipy's
#: ``maxiter`` default).
_BRENT_MAXITER = 500

#: Log-bound below which the tail is indistinguishable from zero in
#: double precision; the optimiser stops refining past it.
_DEEP_TAIL_LOG = -800.0


@dataclass(frozen=True)
class ChernoffResult:
    """Outcome of one Chernoff-bound optimisation.

    Attributes
    ----------
    bound:
        ``min(1, exp(log_bound))`` -- the usable tail probability bound.
    log_bound:
        The optimised exponent ``-theta* t + L(theta*)`` (not clipped,
        so deep tails keep full precision, e.g. ``log_bound = -40``).
    theta:
        The optimising ``theta*`` (0 when the trivial bound applies).
    t:
        The threshold the tail was evaluated at.
    """

    bound: float
    log_bound: float
    theta: float
    t: float

    @property
    def trivial(self) -> bool:
        """True when the bound degenerated to 1."""
        return self.theta == 0.0


def _objective(logmgf: LogMGF, t: float):
    def g(theta: float) -> float:
        value = -theta * t + logmgf(theta)
        if math.isnan(value) or math.isinf(value):
            return _BIG
        return value
    return g


def _largest_finite_theta(g, lo: float, hi: float) -> float:
    """Largest ``theta`` (to float resolution) with ``g`` finite, given
    ``g(lo)`` finite and ``g(hi)`` on the ``_BIG`` plateau.  Bisects the
    numeric domain boundary so the search interval can use the whole
    finite region instead of being clamped a factor of two short."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if g(mid) >= _BIG:
            hi = mid
        else:
            lo = mid
    return lo


def _seed(logmgf: LogMGF, t: float, g, grid: np.ndarray
          ) -> tuple[int, float]:
    """Index of the smallest objective value on ``grid`` and that value.

    The whole grid is scored in one array expression, which only picks
    a candidate index: numpy's ``log``/``expm1``/``log1p``/``exp`` may
    differ from the C library's in the last bit.  The candidate and its
    neighbours are then re-scored with the scalar objective ``g``,
    stepping to a strictly smaller neighbour, with ties going to the
    lower index as ``np.argmin`` does.  The objective is convex, so the
    index and the value returned are the ones a scalar scan of the
    whole grid finds, and everything downstream is scalar arithmetic.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = -grid * t + logmgf.call_array(grid)
    values[~np.isfinite(values)] = _BIG
    idx = int(np.argmin(values))
    best = g(float(grid[idx]))
    moved = False
    while idx > 0:
        left = g(float(grid[idx - 1]))
        if left > best:
            break
        idx, best, moved = idx - 1, left, True
    while not moved and idx + 1 < len(grid):
        right = g(float(grid[idx + 1]))
        if right >= best:
            break
        idx, best = idx + 1, right
    return idx, best


def _bounded_brent(g, lo: float, hi: float, xatol: float
                   ) -> tuple[float, float]:
    """Minimise ``g`` on ``[lo, hi]`` by Brent's bounded method; returns
    ``(x, g(x))``.

    A line-for-line port of ``_minimize_scalar_bounded`` from SciPy 1.17
    (``scipy/optimize/_optimize.py``; Copyright (c) 2001-2002 Enthought,
    Inc. and 2003-2024 SciPy Developers; BSD-3-Clause) onto Python
    floats, with ``maxiter=500``.  Only ``np.abs``/``np.maximum``/
    ``np.sign`` became ``abs``/``max``/a comparison.  IEEE ``+ - * /``
    round the same on ``float`` and ``np.float64``, so ``x`` and ``g(x)``
    equal ``minimize_scalar(g, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol})``'s, which the tests check against scipy.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = g(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    # np.sign(xm - xf) + ((xm - xf) == 0): a zero steps +1.
                    si = -1.0 if xm - xf < 0.0 else 1.0
                    rat = tol1 * si
            else:      # do a golden-section step
                golden = True

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = -1.0 if rat < 0.0 else 1.0
        x = xf + si * max(abs(rat), tol1)
        fu = g(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _BRENT_MAXITER:
            break
    return xf, fx


def chernoff_tail_bound(logmgf: LogMGF, t: float) -> ChernoffResult:
    """Tightest Chernoff bound on ``P[X >= t]`` for the given log-MGF.

    Implements eq. (3.1.5)/(3.1.6) and (3.2.12).  Returns the trivial
    bound 1 when ``t <= E[X]`` (no exponential decay is available there).
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ConfigurationError(f"threshold t must be positive, got {t!r}")
    mean = logmgf.mean()
    if t <= mean:
        return ChernoffResult(bound=1.0, log_bound=0.0, theta=0.0, t=t)

    sup = logmgf.theta_sup
    g = _objective(logmgf, t)

    if math.isinf(sup):
        # Expand until the objective turns upward; convexity guarantees
        # the minimum is then inside [0, hi].  If the objective keeps
        # falling below any useful precision (e.g. a bounded variable
        # whose support lies strictly below t), the infimum is 0 and we
        # report the deepest point reached.
        hi = 1.0
        best = g(hi)
        # theta_sup is infinite, but the *numeric* domain may not be
        # (quadrature/naive MGFs overflow); if the unit seed already
        # sits on the _BIG plateau, shrink into finite territory first.
        shrinks = 0
        while best >= _BIG and shrinks < 400:
            hi *= 0.5
            best = g(hi)
            shrinks += 1
        if best >= _BIG:  # pragma: no cover - pathological MGF
            raise ChernoffError(
                "objective is non-finite arbitrarily close to theta=0; "
                "MGF looks inconsistent")
        for _ in range(200):
            if best <= _DEEP_TAIL_LOG:
                return ChernoffResult(bound=0.0, log_bound=best,
                                      theta=hi, t=t)
            nxt = g(hi * 2.0)
            if nxt >= _BIG:
                # Doubling would land on the pole/overflow plateau:
                # clamp to the finite side and refine the boundary so
                # the seed grid spans the whole usable domain.
                hi = _largest_finite_theta(g, hi, hi * 2.0)
                break
            if nxt >= best:
                hi *= 2.0
                break
            best = nxt
            hi *= 2.0
        else:  # pragma: no cover - pathological MGF
            raise ChernoffError(
                "objective kept decreasing; MGF looks inconsistent")
    else:
        hi = sup * (1.0 - _POLE_MARGIN)

    # Coarse log-spaced scan to seed the bounded minimiser: the optimum
    # can sit anywhere between ~1e-6 and the pole depending on how deep
    # the tail is, and Brent started blind occasionally stalls on the
    # huge flat region near the pole.
    grid = np.concatenate(([0.0], np.geomspace(hi * 1e-9, hi, 512)))
    seed_idx, seed_value = _seed(logmgf, t, g, grid)

    # An argmin at index 0 means every *positive* grid point is worse
    # than theta = 0 -- either the bound is genuinely trivial, or the
    # dip is narrower than the grid's smallest positive point (huge-N
    # or near-deterministic models).  Zoom the grid toward zero until
    # the argmin is interior instead of handing the minimiser the
    # degenerate bracket (0, first_grid_point) with a tolerance coarser
    # than the dip it must locate.
    zooms = 0
    while seed_idx == 0 and grid[1] > 0.0 and zooms < 8:
        grid = np.concatenate(
            ([0.0], np.geomspace(grid[1] * 1e-9, grid[1], 512)))
        seed_idx, seed_value = _seed(logmgf, t, g, grid)
        zooms += 1

    lo_idx = max(seed_idx - 1, 0)
    hi_idx = min(seed_idx + 1, len(grid) - 1)
    bracket_lo = float(grid[lo_idx])
    bracket_hi = float(grid[hi_idx])
    x, fun = _bounded_brent(
        g, bracket_lo, bracket_hi,
        max(bracket_hi - bracket_lo, 1e-300) * 1e-11)
    theta_star = float(x)
    log_bound = float(min(fun, seed_value))
    if seed_value < fun:
        theta_star = float(grid[seed_idx])

    if log_bound >= 0.0:
        return ChernoffResult(bound=1.0, log_bound=0.0, theta=0.0, t=t)
    return ChernoffResult(bound=math.exp(log_bound), log_bound=log_bound,
                          theta=theta_star, t=t)
