"""Lognormal distribution.

Listed by the paper as an alternative heavy-tailed fragment-size law.
The lognormal has **no** finite moment generating function for any
``theta > 0``, so Chernoff bounds require the truncated variant
(:class:`repro.distributions.truncated.Truncated`); the class itself
raises :class:`DistributionError` from :meth:`log_mgf`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import Distribution
from repro.errors import ConfigurationError

__all__ = ["LogNormal"]


class LogNormal(Distribution):
    """Lognormal distribution: ``log X ~ Normal(mu, sigma^2)``."""

    def __init__(self, mu: float, sigma: float) -> None:
        if not math.isfinite(mu):
            raise ConfigurationError(f"mu must be finite, got {mu!r}")
        self.mu = float(mu)
        self.sigma = self._require_positive("sigma", sigma)

    # ------------------------------------------------------------------
    @classmethod
    def from_mean_var(cls, mean: float, var: float) -> "LogNormal":
        """Moment-matched lognormal with the given mean and variance."""
        if not (mean > 0.0):
            raise ConfigurationError(f"mean must be positive, got {mean!r}")
        if not (var > 0.0):
            raise ConfigurationError(f"var must be positive, got {var!r}")
        sigma2 = math.log1p(var / (mean * mean))
        mu = math.log(mean) - 0.5 * sigma2
        return cls(mu=mu, sigma=math.sqrt(sigma2))

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "LogNormal":
        """Moment-matched lognormal from mean and standard deviation."""
        return cls.from_mean_var(mean, std * std)

    # ------------------------------------------------------------------
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma ** 2)

    def var(self) -> float:
        s2 = self.sigma ** 2
        return math.expm1(s2) * math.exp(2.0 * self.mu + s2)

    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k] = exp(k*mu + k^2 sigma^2 / 2)``."""
        if k < 0:
            raise ConfigurationError("moment order must be >= 0")
        return math.exp(k * self.mu + 0.5 * (k * self.sigma) ** 2)

    # As in Gamma: scipy is imported by these three calls alone, and
    # nothing is cached on the instance.
    def pdf(self, x):
        from scipy import stats

        return stats.lognorm.pdf(x, s=self.sigma, scale=math.exp(self.mu))

    def cdf(self, x):
        from scipy import stats

        return stats.lognorm.cdf(x, s=self.sigma, scale=math.exp(self.mu))

    def ppf(self, q):
        from scipy import stats

        return stats.lognorm.ppf(q, s=self.sigma, scale=math.exp(self.mu))

    def sample(self, rng: np.random.Generator, size=None):
        return rng.lognormal(self.mu, self.sigma, size=size)

    def __repr__(self) -> str:
        return f"LogNormal(mu={self.mu:.6g}, sigma={self.sigma:.6g})"
