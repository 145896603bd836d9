"""Degenerate (point-mass) distribution.

Used for the constant ``SEEK`` term of the round service time (§3.1: the
Oyang bound turns the lumped seek time into a constant) and for the
constant-bit-rate workloads of the deterministic baselines.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import Distribution
from repro.errors import ConfigurationError

__all__ = ["Deterministic"]


class Deterministic(Distribution):
    """Point mass at ``value``."""

    def __init__(self, value: float) -> None:
        if not math.isfinite(value):
            raise ConfigurationError(f"value must be finite, got {value!r}")
        self.value = float(value)

    def mean(self) -> float:
        return self.value

    def var(self) -> float:
        return 0.0

    def pdf(self, x):
        # Densities of point masses are not functions; return an indicator
        # scaled as "infinite at the atom" is useless numerically, so we
        # return 0 everywhere and document that pdf is not meaningful here.
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.value, 1.0, 0.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        return np.full_like(q, self.value, dtype=float)

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=float)

    @property
    def theta_sup(self) -> float:
        return math.inf

    def log_mgf(self, theta: float) -> float:
        """``log E[e^{theta X}] = theta * value`` (eq. 3.1.3's e^{-s SEEK})."""
        return theta * self.value

    def log_mgf_array(self, theta):
        return np.asarray(theta, dtype=float) * self.value

    @property
    def support(self) -> tuple[float, float]:
        return (self.value, self.value)

    def __repr__(self) -> str:
        return f"Deterministic(value={self.value:.6g})"
