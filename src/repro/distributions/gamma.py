"""Gamma distribution.

This is the fragment-size and transfer-time law of the paper (eq. 3.1.2).
The paper parameterises the Gamma density as::

    f(x) = alpha * (alpha*x)^(beta-1) * exp(-alpha*x) / Gamma(beta)

i.e. ``alpha`` is a *rate* and ``beta`` a *shape*, with
``alpha = E[X]/Var[X]`` and ``beta = E[X]^2/Var[X]`` (moment matching).
We keep that naming through the :attr:`rate`/:attr:`shape` attributes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import Distribution
from repro.errors import ConfigurationError

__all__ = ["Gamma"]


class Gamma(Distribution):
    """Gamma distribution with shape ``beta`` and rate ``alpha``.

    Parameters
    ----------
    shape:
        Shape parameter ``beta > 0``.
    rate:
        Rate parameter ``alpha > 0`` (inverse scale).
    """

    def __init__(self, shape: float, rate: float) -> None:
        self.shape = self._require_positive("shape", shape)
        self.rate = self._require_positive("rate", rate)

    # ------------------------------------------------------------------
    @classmethod
    def from_mean_var(cls, mean: float, var: float) -> "Gamma":
        """Moment-matched Gamma: ``alpha = mean/var``, ``beta = mean^2/var``.

        This is exactly the matching the paper uses in eq. (3.1.2) and for
        the multi-zone transfer-time approximation (eq. 3.2.10).
        """
        if not (mean > 0.0):
            raise ConfigurationError(f"mean must be positive, got {mean!r}")
        if not (var > 0.0):
            raise ConfigurationError(f"var must be positive, got {var!r}")
        return cls(shape=mean * mean / var, rate=mean / var)

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "Gamma":
        """Moment-matched Gamma from mean and standard deviation."""
        return cls.from_mean_var(mean, std * std)

    # ------------------------------------------------------------------
    def mean(self) -> float:
        return self.shape / self.rate

    def var(self) -> float:
        return self.shape / (self.rate * self.rate)

    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k]`` (closed form)."""
        if k < 0:
            raise ConfigurationError("moment order must be >= 0")
        value = 1.0
        for j in range(k):
            value *= (self.shape + j) / self.rate
        return value

    # pdf/cdf/ppf call scipy's generic law with this instance's
    # parameters -- what a frozen law does inside -- and import scipy
    # only here, so that building a Gamma (the model and the daemon do)
    # does not load it.  Nothing is cached on the instance: the content
    # fingerprint (repro.cache) reads its attributes.
    def pdf(self, x):
        from scipy import stats

        return stats.gamma.pdf(x, a=self.shape, scale=1.0 / self.rate)

    def cdf(self, x):
        from scipy import stats

        return stats.gamma.cdf(x, a=self.shape, scale=1.0 / self.rate)

    def ppf(self, q):
        from scipy import stats

        return stats.gamma.ppf(q, a=self.shape, scale=1.0 / self.rate)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    # ------------------------------------------------------------------
    @property
    def theta_sup(self) -> float:
        return self.rate

    def log_mgf(self, theta: float) -> float:
        """``log E[e^{theta X}] = -beta * log(1 - theta/alpha)``.

        Matches eq. (3.1.3): ``T*(s) = (alpha/(alpha+s))^beta`` with
        ``theta = -s``.  Finite only for ``theta < alpha``.
        """
        if theta >= self.rate:
            return math.inf
        return -self.shape * math.log1p(-theta / self.rate)

    def log_mgf_array(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, math.inf)
        inside = ~(theta >= self.rate)
        out[inside] = -self.shape * np.log1p(-theta[inside] / self.rate)
        return out

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def __repr__(self) -> str:
        return f"Gamma(shape={self.shape:.6g}, rate={self.rate:.6g})"
