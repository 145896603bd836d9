"""Prior-work baselines the paper argues against (§1, §3.1, §4).

- **Deterministic worst case** (eq. 4.1): every component at its maximum;
  see :func:`repro.core.admission.worst_case_n_max` plus the helper here
  that derives the component maxima from a disk/size configuration.
- **CLT / normal approximation** ([CZ94]-style): assume ``T_N`` is
  normal with the model's mean and variance; questionable for realistic
  ``N`` of 10..50 and *not* an upper bound.
- **Tschebyscheff bound** ([CL96]-style): ``P[T_N >= t] <=
  Var[T_N]/(t - E[T_N])^2``; a valid but coarse bound.
- **Independent seeks**: prior stochastic models let every request seek
  from a random position instead of using SCAN; the resulting seek time
  per request is a random variable whose law is derived here, and whose
  (numeric) MGF can be fed through the same Chernoff machinery to show
  what SCAN buys.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.service_time import RoundServiceTimeModel
from repro.disk.presets import DiskSpec
from repro.distributions import Distribution, Empirical
from repro.errors import ConfigurationError

__all__ = [
    "normal_approximation_p_late",
    "tschebyscheff_p_late",
    "independent_seek_time_distribution",
    "worst_case_components",
]


def normal_approximation_p_late(service_model: RoundServiceTimeModel,
                                n: int, t: float) -> float:
    """CLT estimate ``P[T_N >= t] ~= 1 - Phi((t - E)/sqrt(Var))``.

    This is the [CZ94] approach: treat the round service time as normal.
    It is an *approximation*, not a bound -- for small ``N`` it can
    underestimate the true tail, which is exactly the criticism in §3.1.
    """
    from scipy import stats

    mean = service_model.mean(n)
    std = math.sqrt(service_model.var(n))
    if std == 0.0:
        return 0.0 if t > mean else 1.0
    return float(stats.norm.sf((t - mean) / std))


def tschebyscheff_p_late(service_model: RoundServiceTimeModel,
                         n: int, t: float) -> float:
    """One-sided Tschebyscheff bound ``Var/(t - E)^2`` (clipped to 1).

    The [CL96]-style "relatively coarse bound"; valid only for
    ``t > E[T_N]`` (returns 1 otherwise).
    """
    mean = service_model.mean(n)
    var = service_model.var(n)
    if t <= mean:
        return 1.0
    return min(var / (t - mean) ** 2, 1.0)


def independent_seek_time_distribution(spec: DiskSpec, samples: int = 200_000,
                                       seed: int = 0) -> Distribution:
    """Empirical law of one *independent* (non-SCAN) seek's time.

    Successive positions are independent and uniform over cylinders, so
    the seek distance is ``|U1 - U2| * CYL`` with triangular density
    ``2(1 - d/CYL)/CYL``; pushing it through the seek curve has no closed
    form for the piecewise sqrt/linear curve, so we return a large
    empirical sample (which plugs into :class:`NumericTerm` /
    :class:`DistributionTerm` for Chernoff work).
    """
    if samples < 1000:
        raise ConfigurationError(
            f"need >= 1000 samples for a usable law, got {samples!r}")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, spec.cylinders, size=samples)
    b = rng.integers(0, spec.cylinders, size=samples)
    times = np.asarray(spec.seek_curve(np.abs(a - b)))
    return Empirical(times)


def worst_case_components(spec: DiskSpec, size_dist: Distribution,
                          size_quantile: float = 0.99,
                          rate: str = "min") -> tuple[float, float, float]:
    """The ``(T_rot^max, T_seek^max, T_trans^max)`` triple of eq. (4.1).

    Parameters
    ----------
    size_quantile:
        Fragment-size percentile standing in for "maximum" (the paper
        uses 0.99, or optimistically 0.95).
    rate:
        ``"min"`` charges transfers at the innermost-zone rate
        ``C_min/ROT`` (the paper's conservative choice); ``"mean"`` uses
        ``(C_min + C_max)/(2 ROT)`` (the optimistic variant).
    """
    if not (0.0 < size_quantile < 1.0):
        raise ConfigurationError(
            f"size_quantile must be in (0, 1), got {size_quantile!r}")
    if rate == "min":
        transfer_rate = spec.zone_map.r_min
    elif rate == "mean":
        transfer_rate = 0.5 * (spec.zone_map.r_min + spec.zone_map.r_max)
    else:
        raise ConfigurationError(
            f"rate must be 'min' or 'mean', got {rate!r}")
    rot_max = spec.rot
    seek_max = spec.seek_curve.max_time(spec.cylinders)
    size_max = float(size_dist.ppf(size_quantile))
    return rot_max, seek_max, size_max / transfer_rate
