"""Abstract distribution protocol used across the library."""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DistributionError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

__all__ = ["Distribution"]


class Distribution(abc.ABC):
    """A univariate probability distribution.

    Subclasses must implement :meth:`mean`, :meth:`var`, :meth:`pdf`,
    :meth:`cdf`, :meth:`ppf` and :meth:`sample`.  Distributions with a
    finite moment generating function in a right neighbourhood of zero
    additionally override :meth:`log_mgf` and :attr:`theta_sup`;
    the default implementations raise :class:`DistributionError`.
    """

    # ------------------------------------------------------------------
    # moments
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def mean(self) -> float:
        """First moment ``E[X]``."""

    @abc.abstractmethod
    def var(self) -> float:
        """Variance ``Var[X]``."""

    def std(self) -> float:
        """Standard deviation ``sqrt(Var[X])``."""
        return math.sqrt(self.var())

    def second_moment(self) -> float:
        """Raw second moment ``E[X^2] = Var[X] + E[X]^2``."""
        return self.var() + self.mean() ** 2

    def cv(self) -> float:
        """Coefficient of variation ``std/mean``.

        Raises :class:`DistributionError` for zero-mean distributions.
        """
        mean = self.mean()
        if mean == 0.0:
            raise DistributionError(
                "coefficient of variation undefined for zero mean")
        return self.std() / abs(mean)

    # ------------------------------------------------------------------
    # densities and quantiles
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pdf(self, x: ArrayLike) -> NDArray[np.float64]:
        """Probability density at ``x`` (vectorised)."""

    @abc.abstractmethod
    def cdf(self, x: ArrayLike) -> NDArray[np.float64]:
        """Cumulative distribution function ``P[X <= x]`` (vectorised)."""

    @abc.abstractmethod
    def ppf(self, q: ArrayLike) -> NDArray[np.float64]:
        """Quantile function (inverse cdf), vectorised over ``q``."""

    def sf(self, x: ArrayLike) -> NDArray[np.float64]:
        """Survival function ``P[X > x]``."""
        return 1.0 - self.cdf(x)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sample(self, rng: np.random.Generator,
               size: int | tuple[int, ...] | None = None
               ) -> float | NDArray[np.float64]:
        """Draw samples using the supplied NumPy generator."""

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    @property
    def theta_sup(self) -> float:
        """Supremum of the domain of :meth:`log_mgf` on the positive axis.

        ``E[exp(theta*X)]`` is finite for ``theta`` in ``[0, theta_sup)``.
        ``math.inf`` means the MGF exists everywhere (bounded support).
        """
        raise DistributionError(
            f"{type(self).__name__} has no moment generating function; "
            "wrap it in Truncated(...) to obtain one")

    def log_mgf(self, theta: float) -> float:
        """Natural log of the moment generating function at ``theta``.

        The Laplace-Stieltjes transform of the paper is recovered as
        ``exp(log_mgf(-s))``.
        """
        raise DistributionError(
            f"{type(self).__name__} has no moment generating function; "
            "wrap it in Truncated(...) to obtain one")

    def log_mgf_array(self, theta: NDArray[np.float64]
                      ) -> NDArray[np.float64]:
        """:meth:`log_mgf` at every point of a 1-d ``theta`` array.

        The default loops the scalar method.  Closed-form laws override
        it with numpy arithmetic that mirrors the scalar formula
        operation by operation; numpy's transcendental functions may
        still differ from the C library's in the last bit.
        """
        return np.array([self.log_mgf(float(x)) for x in theta],
                        dtype=float)

    def has_mgf(self) -> bool:
        """Whether a finite MGF is available on some ``(0, theta_sup)``."""
        try:
            sup = self.theta_sup
        except DistributionError:
            return False
        return sup > 0.0

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    @property
    def support(self) -> tuple[float, float]:
        """Closure of the support as ``(lower, upper)``."""
        return (0.0, math.inf)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(mean={self.mean():.6g}, "
                f"std={self.std():.6g})")

    # Helper for subclasses -------------------------------------------------
    @staticmethod
    def _require_positive(name: str, value: float) -> float:
        from repro.errors import ConfigurationError
        if not (value > 0.0) or not math.isfinite(value):
            raise ConfigurationError(
                f"{name} must be a positive finite number, got {value!r}")
        return float(value)
