"""Continuous uniform distribution.

Rotational latency in the paper is ``Uniform(0, ROT)`` (eq. 3.1.2); its
Laplace-Stieltjes transform ``(1 - e^{-s ROT})/(s ROT)`` (eq. 3.1.3) is
the MGF evaluated at ``-s``.  The :meth:`log_mgf` implementation is
numerically careful around ``theta = 0``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import Distribution
from repro.errors import ConfigurationError

__all__ = ["Uniform"]


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ConfigurationError("uniform bounds must be finite")
        if not (high > low):
            raise ConfigurationError(
                f"require high > low, got low={low!r}, high={high!r}")
        self.low = float(low)
        self.high = float(high)

    # ------------------------------------------------------------------
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def var(self) -> float:
        width = self.high - self.low
        return width * width / 12.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        return self.low + q * (self.high - self.low)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.low, self.high, size=size)

    # ------------------------------------------------------------------
    @property
    def theta_sup(self) -> float:
        return math.inf

    def log_mgf(self, theta: float) -> float:
        """``log((e^{theta*high} - e^{theta*low}) / (theta*(high-low)))``.

        Uses a Taylor expansion for ``|theta|*(high-low)`` near zero and a
        max-factoring for large arguments so the result never overflows in
        the intermediate exponentials.
        """
        width = self.high - self.low
        z = theta * width
        if abs(z) < 1e-8:
            # log E = theta*mid + z^2/24 + O(z^4)
            return theta * self.mean() + z * z / 24.0
        # E[e^{tX}] = e^{t*low} * (e^{z} - 1) / z
        if z > 0:
            # log(expm1(z)) computed stably for large z
            if z > 30.0:
                log_expm1 = z + math.log1p(-math.exp(-z))
            else:
                log_expm1 = math.log(math.expm1(z))
            return theta * self.low + log_expm1 - math.log(z)
        # z < 0: (e^z - 1)/z = (1 - e^z)/(-z), both factors positive
        return theta * self.low + math.log(-math.expm1(z)) - math.log(-z)

    def log_mgf_array(self, theta):
        """:meth:`log_mgf` branch by branch over an array, with the
        same operations in the same order."""
        theta = np.asarray(theta, dtype=float)
        z = theta * (self.high - self.low)
        out = np.empty_like(z)
        small = np.abs(z) < 1e-8
        large = ~small & (z > 30.0)
        positive = ~small & ~large & (z > 0)
        rest = ~(small | large | positive)
        w = z[small]
        out[small] = theta[small] * self.mean() + w * w / 24.0
        w = z[large]
        log_expm1 = w + np.log1p(-np.exp(-w))
        out[large] = theta[large] * self.low + log_expm1 - np.log(w)
        w = z[positive]
        out[positive] = (theta[positive] * self.low
                         + np.log(np.expm1(w)) - np.log(w))
        w = z[rest]
        out[rest] = theta[rest] * self.low + np.log(-np.expm1(w)) - np.log(-w)
        return out

    @property
    def support(self) -> tuple[float, float]:
        return (self.low, self.high)

    def __repr__(self) -> str:
        return f"Uniform(low={self.low:.6g}, high={self.high:.6g})"
