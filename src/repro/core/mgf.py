"""Log-moment-generating-function algebra.

The paper composes the Laplace-Stieltjes transform of the round service
time as a *product* of independent component transforms (eq. 3.1.4)::

    T_N*(s) = e^{-s SEEK} * (T_rot*(s))^N * (T_trans*(s))^N

Working with the moment generating function ``M(theta) = T*(-theta)`` and
in log space, products become sums and N-fold convolutions become integer
multiples, which is exactly what :class:`ProductMGF` implements.  Every
term reports the supremum ``theta_sup`` of its domain so the Chernoff
optimiser knows where the objective stays finite, plus its mean and
variance so the assembled model can report ``E[T_N]``/``Var[T_N]``
without numeric differentiation.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence

import numpy as np

from repro.distributions import Deterministic, Distribution, Gamma, Uniform
from repro.errors import ConfigurationError, ModelError

__all__ = [
    "LogMGF",
    "DistributionTerm",
    "ConstantTerm",
    "UniformTerm",
    "GammaTerm",
    "NumericTerm",
    "ProductMGF",
]


class LogMGF(abc.ABC):
    """A log-moment-generating function ``theta -> log E[e^{theta X}]``."""

    @property
    @abc.abstractmethod
    def theta_sup(self) -> float:
        """Supremum of the positive domain: finite for ``theta`` in
        ``[0, theta_sup)``."""

    @abc.abstractmethod
    def __call__(self, theta: float) -> float:
        """Evaluate ``log E[e^{theta X}]``; ``math.inf`` outside the
        domain."""

    def call_array(self, theta: np.ndarray) -> np.ndarray:
        """The log-MGF at every point of a 1-d ``theta`` array.

        The default loops the scalar call.  Terms built on the
        closed-form laws override it (through
        :meth:`~repro.distributions.base.Distribution.log_mgf_array`);
        their values may differ from the scalar call in the last bit.
        """
        return np.array([self(float(x)) for x in theta], dtype=float)

    @abc.abstractmethod
    def mean(self) -> float:
        """``E[X]`` of the underlying random variable."""

    @abc.abstractmethod
    def var(self) -> float:
        """``Var[X]`` of the underlying random variable."""

    # ------------------------------------------------------------------
    def __mul__(self, other: "LogMGF") -> "ProductMGF":
        """MGF of the sum of two independent variables."""
        if not isinstance(other, LogMGF):
            return NotImplemented
        return ProductMGF([(self, 1), (other, 1)])

    def pow(self, n: int) -> "ProductMGF":
        """MGF of the sum of ``n`` i.i.d. copies (N-fold convolution)."""
        if not isinstance(n, int) or n < 0:
            raise ConfigurationError(f"power must be an int >= 0, got {n!r}")
        return ProductMGF([(self, n)])


class DistributionTerm(LogMGF):
    """Adapter turning any :class:`Distribution` with an MGF into a term."""

    def __init__(self, dist: Distribution) -> None:
        if not dist.has_mgf():
            raise ModelError(
                f"{dist!r} has no MGF; truncate it before building terms")
        self.dist = dist

    @property
    def theta_sup(self) -> float:
        return self.dist.theta_sup

    def __call__(self, theta: float) -> float:
        if theta >= self.theta_sup:
            return math.inf
        return self.dist.log_mgf(theta)

    def call_array(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, math.inf)
        inside = ~(theta >= self.theta_sup)
        out[inside] = self.dist.log_mgf_array(theta[inside])
        return out

    def mean(self) -> float:
        return self.dist.mean()

    def var(self) -> float:
        return self.dist.var()

    def __repr__(self) -> str:
        return f"DistributionTerm({self.dist!r})"


class ConstantTerm(DistributionTerm):
    """MGF term of a constant: ``log M = theta * value``.

    Used for the ``SEEK`` component (eq. 3.1.3's ``e^{-s SEEK}``).
    """

    def __init__(self, value: float) -> None:
        super().__init__(Deterministic(value))
        self.value = float(value)

    def __repr__(self) -> str:
        return f"ConstantTerm({self.value:.6g})"


class UniformTerm(DistributionTerm):
    """MGF term of ``Uniform(0, rot)`` -- the rotational latency
    (eq. 3.1.3's ``(1 - e^{-s ROT})/(s ROT)``)."""

    def __init__(self, rot: float) -> None:
        super().__init__(Uniform(0.0, rot))
        self.rot = float(rot)

    def __repr__(self) -> str:
        return f"UniformTerm(rot={self.rot:.6g})"


class GammaTerm(DistributionTerm):
    """MGF term of a Gamma -- the transfer time
    (eq. 3.1.3's ``(alpha/(alpha+s))^beta``)."""

    def __init__(self, gamma: Gamma) -> None:
        super().__init__(gamma)
        self.gamma = gamma

    @classmethod
    def from_mean_var(cls, mean: float, var: float) -> "GammaTerm":
        """Moment-matched Gamma term (eq. 3.1.2 / 3.2.10)."""
        return cls(Gamma.from_mean_var(mean, var))

    def __repr__(self) -> str:
        return f"GammaTerm({self.gamma!r})"


class NumericTerm(DistributionTerm):
    """MGF term evaluated numerically from any bounded-support law.

    This is the escape hatch the paper mentions for "other heavy-tailed
    distributions ... as long as we can derive (or approximate) the
    corresponding Laplace-Stieltjes transform": wrap the law in
    :class:`~repro.distributions.truncated.Truncated` (or use an
    :class:`~repro.distributions.empirical.Empirical` sample) and this
    term computes its MGF by quadrature.
    """

    def __repr__(self) -> str:
        return f"NumericTerm({self.dist!r})"


class ProductMGF(LogMGF):
    """Product of powers of terms: the MGF of an independent sum.

    ``ProductMGF([(a, 1), (b, n)])`` is the MGF of ``A + B_1 + ... + B_n``
    with all summands independent -- the shape of eq. (3.1.4).
    """

    def __init__(self, factors: Sequence[tuple[LogMGF, int]]) -> None:
        flat: list[tuple[LogMGF, int]] = []
        for term, count in factors:
            if not isinstance(count, int) or count < 0:
                raise ConfigurationError(
                    f"factor multiplicity must be an int >= 0, got {count!r}")
            if count == 0:
                continue
            if isinstance(term, ProductMGF):
                flat.extend((inner, count * c) for inner, c in term.factors)
            else:
                flat.append((term, count))
        self.factors: tuple[tuple[LogMGF, int], ...] = tuple(flat)

    @property
    def theta_sup(self) -> float:
        if not self.factors:
            return math.inf
        return min(term.theta_sup for term, _ in self.factors)

    def __call__(self, theta: float) -> float:
        total = 0.0
        for term, count in self.factors:
            value = term(theta)
            if math.isinf(value):
                return math.inf
            total += count * value
        return total

    def call_array(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        total = np.zeros(theta.shape)
        infinite = np.zeros(theta.shape, dtype=bool)
        with np.errstate(invalid="ignore"):  # inf terms are masked below
            for term, count in self.factors:
                values = term.call_array(theta)
                infinite |= np.isinf(values)
                total += count * values
        total[infinite] = math.inf
        return total

    def mean(self) -> float:
        return sum(count * term.mean() for term, count in self.factors)

    def var(self) -> float:
        return sum(count * term.var() for term, count in self.factors)

    def pow(self, n: int) -> "ProductMGF":
        if not isinstance(n, int) or n < 0:
            raise ConfigurationError(f"power must be an int >= 0, got {n!r}")
        return ProductMGF([(term, count * n) for term, count in self.factors])

    def laplace_stieltjes(self, s: float) -> float:
        """The paper's ``T*(s) = E[e^{-sX}] = exp(log_mgf(-s))``."""
        return math.exp(self(-s))

    def __repr__(self) -> str:
        inner = ", ".join(f"{term!r}^{count}" for term, count in self.factors)
        return f"ProductMGF({inner})"
