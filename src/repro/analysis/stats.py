"""Confidence intervals and estimators for simulation output."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["wilson_interval", "mean_confidence_interval", "batch_means"]


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal ("Wald") interval because the estimated
    probabilities here are tiny (glitch rates of 1e-2..1e-4) where Wald
    intervals collapse to zero width around zero counts.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials!r}")
    if not (0 <= successes <= trials):
        raise ConfigurationError(
            f"successes must be in [0, {trials}], got {successes!r}")
    if not (0.0 < confidence < 1.0):
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence!r}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, centre - half), min(1.0, centre + half)


def mean_confidence_interval(samples, confidence: float = 0.95
                             ) -> tuple[float, float, float]:
    """``(mean, low, high)`` Student-t confidence interval of the mean."""
    from scipy import stats

    data = np.asarray(samples, dtype=float).ravel()
    if data.size < 2:
        raise ConfigurationError(
            f"need >= 2 samples for a CI, got {data.size}")
    if not (0.0 < confidence < 1.0):
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence!r}")
    mean = float(np.mean(data))
    sem = float(stats.sem(data))
    if sem == 0.0:
        return mean, mean, mean
    half = sem * float(stats.t.ppf(0.5 + confidence / 2.0, data.size - 1))
    return mean, mean - half, mean + half


def batch_means(samples, batches: int = 20) -> tuple[float, float]:
    """Batch-means estimate ``(mean, standard error)`` for possibly
    autocorrelated simulation output.

    Splits the sample into ``batches`` contiguous batches and treats
    batch averages as approximately independent -- the standard
    steady-state simulation estimator.
    """
    data = np.asarray(samples, dtype=float).ravel()
    if batches < 2:
        raise ConfigurationError(f"batches must be >= 2, got {batches!r}")
    if data.size < 2 * batches:
        raise ConfigurationError(
            f"need >= {2 * batches} samples for {batches} batches, "
            f"got {data.size}")
    usable = (data.size // batches) * batches
    means = data[:usable].reshape(batches, -1).mean(axis=1)
    grand = float(np.mean(means))
    se = float(np.std(means, ddof=1) / math.sqrt(batches))
    return grand, se
