"""Stream-phase balance across a striped disk farm.

The paper analyses a single disk "assuming that the load is uniformly
distributed across disks" (§3).  With stride-1 round-robin striping a
stream's disk in round ``r`` is ``(c + r) mod D`` for a per-stream
constant *phase* ``c``, so the per-disk batch size in every round equals
the population of each phase class -- the uniform-load assumption is a
statement about phases.

This module quantifies what phase management is worth:

- **Balanced phases** (the server staggers stream starts,
  :meth:`repro.server.MediaServer.open_stream`): every disk serves
  ``ceil(N/D)`` requests per round -- the paper's per-disk model applies
  directly.
- **Random phases** (streams start whenever they arrive): a disk's
  batch is ``Binomial(N, 1/D)``-distributed, and a given stream shares
  its disk with ``Binomial(N-1, 1/D)`` others.  The per-stream glitch
  bound becomes the binomial mixture of the per-load bounds, which is
  *worse* than the balanced bound at the same total N because
  ``b_glitch`` is convex in the load.
"""

from __future__ import annotations

import math

from repro.core.glitch import GlitchModel
from repro.distributions import hagerup_rub_tail
from repro.errors import ConfigurationError

__all__ = [
    "balanced_glitch_bound",
    "random_phase_glitch_bound",
    "n_max_balanced",
    "n_max_random_phases",
]


def _validate(n_total: int, disks: int) -> None:
    if disks < 1:
        raise ConfigurationError(f"disks must be >= 1, got {disks!r}")
    if n_total < 1:
        raise ConfigurationError(
            f"n_total must be >= 1, got {n_total!r}")


def balanced_glitch_bound(glitch_model: GlitchModel, n_total: int,
                          disks: int) -> float:
    """Per-stream per-round glitch bound with staggered (balanced)
    phases: every disk's batch is at most ``ceil(N/D)``."""
    _validate(n_total, disks)
    return glitch_model.b_glitch(math.ceil(n_total / disks))


def random_phase_glitch_bound(glitch_model: GlitchModel, n_total: int,
                              disks: int) -> float:
    """Per-stream per-round glitch bound with uniformly random phases.

    The tagged stream's disk carries ``1 + Binomial(N-1, 1/D)`` requests
    in its round; conditioning on that load ``k`` the §3.3 argument
    gives ``b_glitch(k)``, so the unconditional bound is the binomial
    mixture ``E[b_glitch(1 + B)]``.
    """
    from scipy import stats

    _validate(n_total, disks)
    if disks == 1:
        return glitch_model.b_glitch(n_total)
    pmf = stats.binom.pmf(range(n_total), n_total - 1, 1.0 / disks)
    total = sum(p * glitch_model.b_glitch(1 + k)
                for k, p in enumerate(pmf) if p > 1e-15)
    return min(float(total), 1.0)


def _scan_total(bound_fn, glitch_model: GlitchModel, disks: int, m: int,
                g: int, epsilon: float, n_cap: int) -> int:
    best = 0
    for n in range(1, n_cap + 1):
        p = bound_fn(glitch_model, n, disks)
        if hagerup_rub_tail(m, p, g) <= epsilon:
            best = n
        else:
            break
    return best


def n_max_balanced(glitch_model: GlitchModel, disks: int, m: int, g: int,
                   epsilon: float, n_cap: int = 2048) -> int:
    """Farm-wide ``N_max`` (total streams) with balanced phases --
    ``disks`` times the per-disk eq. (3.3.6) limit, recovered through
    the same machinery for comparability."""
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(
            f"epsilon must be in (0, 1), got {epsilon!r}")
    return _scan_total(balanced_glitch_bound, glitch_model, disks, m, g,
                       epsilon, n_cap)


def n_max_random_phases(glitch_model: GlitchModel, disks: int, m: int,
                        g: int, epsilon: float, n_cap: int = 2048) -> int:
    """Farm-wide ``N_max`` when stream phases are left random.

    Always at most :func:`n_max_balanced`; the gap is the admission
    price of not staggering stream starts.
    """
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(
            f"epsilon must be in (0, 1), got {epsilon!r}")
    return _scan_total(random_phase_glitch_bound, glitch_model, disks, m,
                       g, epsilon, n_cap)
