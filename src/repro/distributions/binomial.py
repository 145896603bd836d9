"""Binomial tails and the Hagerup-Rüb Chernoff bound.

Section 3.3 models the glitch count of one stream over ``M`` rounds as
``Binomial(M, p_glitch)`` (eq. 3.3.4) and bounds its upper tail with the
bound of Hagerup and Rüb [HR89] (eq. 3.3.5)::

    P[X >= g] <= (M p / g)^g * ((M - M p)/(M - g))^(M-g)     for g/M > p.

All evaluation is done in log space; the bound is reported as 1 whenever
its precondition ``g/M > p`` fails (the paper's Table 2 likewise saturates
at 1).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = ["binomial_tail", "hagerup_rub_tail", "log_hagerup_rub_tail"]


def _validate(m: int, p: float, g: int) -> None:
    if not isinstance(m, int) or m <= 0:
        raise ConfigurationError(f"M must be a positive int, got {m!r}")
    if not isinstance(g, int) or g < 0:
        raise ConfigurationError(f"g must be a non-negative int, got {g!r}")
    if g > m:
        raise ConfigurationError(f"g={g} cannot exceed M={m}")
    if not (0.0 <= p <= 1.0):
        raise ConfigurationError(f"p must be in [0, 1], got {p!r}")


#: A tail sum stops once a term falls below this share of the running sum.
_TAIL_RTOL = 1e-17


def binomial_tail(m: int, p: float, g: int) -> float:
    """Exact upper tail ``P[Binomial(M, p) >= g]``.

    This is the quantity eq. (3.3.4) sums up; the paper calls evaluating
    it "feasible but computationally expensive".  The sum is cheap when
    it starts at its largest term: that term ``k`` comes from logs,
    ``exp(log C(M, k) + k log p + (M - k) log(1 - p))``, and the pmf
    ratio ``(M - k)/(k + 1) * p/(1 - p)`` steps to its neighbours.
    Above the mode the terms fall from ``g`` upward and are summed
    directly; at or below it the lower tail from ``g - 1`` downward is
    summed, and subtracted from 1.  Either sum stops once a term is
    at most 1e-17 of the running sum.  The tests check the result
    against exact rational arithmetic and against scipy.
    """
    _validate(m, p, g)
    if g == 0 or p == 1.0:
        return 1.0
    if p == 0.0:
        return 0.0
    p = float(p)
    odds = p / (1.0 - p)
    upper = g > math.floor((m + 1) * p)
    k = g if upper else g - 1
    term = math.exp(math.log(math.comb(m, k)) + k * math.log(p)
                    + (m - k) * math.log1p(-p))
    total = term
    if upper:
        while k < m:
            term *= (m - k) / (k + 1) * odds
            k += 1
            total += term
            if term <= _TAIL_RTOL * total:
                break
        return total
    while k > 0:
        term *= k / (m - k + 1) / odds
        k -= 1
        total += term
        if term <= _TAIL_RTOL * total:
            break
    return 1.0 - total


def log_hagerup_rub_tail(m: int, p: float, g: int) -> float:
    """Natural log of the Hagerup-Rüb bound (eq. 3.3.5).

    Returns ``0.0`` (i.e. bound 1) when the precondition ``g/M > p``
    fails or when ``p`` saturates the trivial cases.
    """
    _validate(m, p, g)
    if p == 0.0:
        return -math.inf if g > 0 else 0.0
    if g == 0 or g / m <= p:
        return 0.0
    mp = m * p
    log_first = g * math.log(mp / g)
    if g == m:
        # ((M - Mp)/(M - g))^(M-g) -> 1 as the exponent is 0.
        log_second = 0.0
    else:
        log_second = (m - g) * math.log((m - mp) / (m - g))
    return log_first + log_second


def hagerup_rub_tail(m: int, p: float, g: int) -> float:
    """The Hagerup-Rüb bound on ``P[Binomial(M, p) >= g]`` (eq. 3.3.5)."""
    return min(1.0, math.exp(log_hagerup_rub_tail(m, p, g)))
