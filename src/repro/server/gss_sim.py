"""Grouped Sweeping Scheduling simulation.

The analytic GSS treatment (:mod:`repro.core.gss`) rescales a group to
a §3 round -- exact *per group in isolation*.  A real GSS disk serves
``g`` groups back to back, so the arm enters each group's sweep from
wherever the previous group finished; this simulator models that
coupling and lets the tests confirm the rescaled bound still covers the
coupled system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.presets import DiskSpec
from repro.disk.sweepkernel import sample_cylinders_rates
from repro.distributions import Distribution
from repro.errors import ConfigurationError
from repro.server.simulation import _validate

__all__ = ["GssBatch", "simulate_gss_rounds"]


@dataclass(frozen=True)
class GssBatch:
    """Result of a GSS simulation."""

    groups: int
    sub_round_length: float
    group_service_times: np.ndarray   # (rounds, groups)
    group_late: np.ndarray            # (rounds, groups) bool

    @property
    def p_late_group(self) -> float:
        """Fraction of (round, group) pairs overrunning their
        sub-round."""
        return float(np.mean(self.group_late))

    @property
    def rounds(self) -> int:
        """Simulated full rounds."""
        return self.group_service_times.shape[0]


def simulate_gss_rounds(spec: DiskSpec, size_dist: Distribution, n: int,
                        groups: int, t: float, rounds: int,
                        rng: np.random.Generator) -> GssBatch:
    """Simulate GSS: ``groups`` sub-rounds of ``ceil(n/groups)``
    requests within each round of length ``t``.

    Each group's sweep alternates direction (per sub-round, like a real
    elevator) and starts from the previous group's arm position.  A
    group overruns when its batch does not finish within its sub-round
    slot ``t/groups`` (measured from the slot start; a late previous
    group delays the next one, which the simulation propagates).
    """
    _validate(spec, n, t, rounds)
    if groups < 1 or groups > n:
        raise ConfigurationError(
            f"groups must be in [1, n], got {groups!r}")
    group_size = -(-n // groups)
    slot = t / groups

    service = np.empty((rounds, groups))
    late = np.zeros((rounds, groups), dtype=bool)
    arm = 0.0
    parity = 0

    for r in range(rounds):
        clock = 0.0  # time within the round
        for g in range(groups):
            cylinders, rates = sample_cylinders_rates(
                spec, rng, (1, group_size))
            cylinders, rates = cylinders[0], rates[0]
            sizes = np.asarray(size_dist.sample(rng, group_size),
                               dtype=float)
            order = np.argsort(cylinders, kind="stable")
            if parity % 2:
                order = order[::-1]
            parity += 1
            sorted_cyl = cylinders[order].astype(float)
            hops = np.concatenate(([abs(sorted_cyl[0] - arm)],
                                   np.abs(np.diff(sorted_cyl))))
            seek = float(np.sum(spec.seek_curve(hops)))
            rotation = float(np.sum(rng.uniform(0.0, spec.rot,
                                                group_size)))
            transfer = float(np.sum(sizes[order] / rates[order]))
            duration = seek + rotation + transfer
            arm = float(sorted_cyl[-1])

            slot_start = g * slot
            start = max(clock, slot_start)
            finish = start + duration
            service[r, g] = duration
            late[r, g] = finish > slot_start + slot
            clock = finish
        # The round boundary is hard: a drastically late final group
        # would eat into the next round; rounds here start clean (the
        # admission regime keeps overruns rare and small).

    return GssBatch(groups=groups, sub_round_length=slot,
                    group_service_times=service, group_late=late)
