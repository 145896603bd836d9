"""Parametric fragment-size laws.

All sizes are in bytes.  The paper's Table 1 uses decimal KBytes
(1000 bytes): mean 200 KBytes, standard deviation 100 KBytes -- the
convention under which the eq. (4.1) worst-case numbers reproduce.
"""

from __future__ import annotations

from repro.distributions import (
    Distribution,
    Gamma,
    LogNormal,
    Pareto,
    Truncated,
)
from repro.errors import ConfigurationError

__all__ = [
    "paper_fragment_sizes",
    "lognormal_fragment_sizes",
    "truncated_pareto_fragment_sizes",
]

#: Table 1: E[S] = 200 KBytes.
PAPER_MEAN_BYTES = 200_000.0

#: Table 1: Var[S] = (100 KBytes)^2.
PAPER_STD_BYTES = 100_000.0


def paper_fragment_sizes() -> Gamma:
    """The exact Table-1 law: Gamma with mean 200 KB and sd 100 KB
    (shape 4, i.e. moderately skewed -- cv = 0.5)."""
    return Gamma.from_mean_std(PAPER_MEAN_BYTES, PAPER_STD_BYTES)


def lognormal_fragment_sizes(mean: float, std: float,
                             cap: float | None = None) -> Distribution:
    """Lognormal fragment sizes, optionally truncated at ``cap`` bytes.

    Untruncated lognormals have no MGF; pass ``cap`` (e.g. one round of
    the innermost-zone bandwidth) to obtain a law the Chernoff machinery
    accepts.
    """
    base = LogNormal.from_mean_std(mean, std)
    if cap is None:
        return base
    if cap <= mean:
        raise ConfigurationError(
            f"cap ({cap}) must exceed the mean ({mean})")
    return Truncated(base, low=0.0, high=cap)


def truncated_pareto_fragment_sizes(mean: float, std: float,
                                    cap: float) -> Truncated:
    """Pareto fragment sizes truncated at ``cap`` bytes.

    The Pareto is moment-matched *before* truncation; the truncated
    law's realised moments are therefore slightly below the targets (the
    ablation A1 reports both).  ``cap`` is physically the largest
    fragment a round can display (§2.2: display bandwidth below the
    innermost-zone rate).
    """
    if cap <= mean:
        raise ConfigurationError(
            f"cap ({cap}) must exceed the mean ({mean})")
    base = Pareto.from_mean_std(mean, std)
    return Truncated(base, low=base.xm, high=cap)
