"""Fitting fragment-size laws to observed samples.

§2.3: "Workload statistics, e.g., on the distribution of fragment
sizes, are fed into the admission control."  In practice those
statistics come from ingested traces; this module fits the parametric
laws to a sample (moment matching, the paper's method) and scores the
fits (Kolmogorov-Smirnov) so the operator can pick a law with evidence
rather than habit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.gamma import Gamma
from repro.distributions.lognormal import LogNormal
from repro.distributions.pareto import Pareto
from repro.distributions.truncated import Truncated
from repro.errors import ConfigurationError

__all__ = ["FitResult", "fit_fragment_sizes", "best_fit"]


@dataclass(frozen=True)
class FitResult:
    """One candidate law fitted to the sample."""

    name: str
    distribution: Distribution
    ks_statistic: float
    ks_pvalue: float

    def __repr__(self) -> str:
        return (f"FitResult({self.name}, KS={self.ks_statistic:.4f}, "
                f"p={self.ks_pvalue:.3g})")


def _ks(sample: np.ndarray, dist: Distribution) -> tuple[float, float]:
    from scipy import stats

    result = stats.ks_1samp(sample, lambda x: np.asarray(dist.cdf(x)))
    return float(result.statistic), float(result.pvalue)


def fit_fragment_sizes(samples, cap: float | None = None
                       ) -> list[FitResult]:
    """Moment-match Gamma, Lognormal and Pareto to a size sample.

    Heavy-tailed candidates are truncated at ``cap`` when given (so the
    returned laws are Chernoff-ready); Gamma needs no cap.  Results are
    sorted best-fit first (smallest KS statistic).
    """
    data = np.asarray(samples, dtype=float).ravel()
    if data.size < 20:
        raise ConfigurationError(
            f"need >= 20 samples for a meaningful fit, got {data.size}")
    if np.any(data <= 0):
        raise ConfigurationError("fragment sizes must be positive")
    mean = float(np.mean(data))
    std = float(np.std(data))
    if std == 0.0:
        raise ConfigurationError("degenerate sample (zero variance)")
    if cap is not None and cap <= float(np.max(data)):
        raise ConfigurationError(
            f"cap ({cap}) must exceed the largest sample "
            f"({float(np.max(data))})")

    candidates: list[tuple[str, Distribution]] = [
        ("gamma", Gamma.from_mean_std(mean, std)),
    ]
    lognormal: Distribution = LogNormal.from_mean_std(mean, std)
    pareto: Distribution = Pareto.from_mean_std(mean, std)
    if cap is not None:
        lognormal = Truncated(lognormal, 0.0, cap)
        pareto = Truncated(pareto, Pareto.from_mean_std(mean, std).xm,
                           cap)
    candidates.append(("lognormal", lognormal))
    candidates.append(("pareto", pareto))

    results = []
    for name, dist in candidates:
        ks_stat, ks_p = _ks(data, dist)
        results.append(FitResult(name=name, distribution=dist,
                                 ks_statistic=ks_stat, ks_pvalue=ks_p))
    return sorted(results, key=lambda r: r.ks_statistic)


def best_fit(samples, cap: float | None = None) -> FitResult:
    """The best-scoring candidate of :func:`fit_fragment_sizes`."""
    return fit_fragment_sizes(samples, cap=cap)[0]
