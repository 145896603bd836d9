"""Prefetching server simulation (§6 extension).

Simulates the policy analysed by :class:`repro.core.buffering.PrefetchPlan`:
every round each of the ``n`` streams requests its due fragment, and the
``headroom`` streams with the lowest client buffers additionally request
their next fragment ahead of time.  The whole batch is served with one
SCAN sweep; fetches completing after the deadline fail.  Client buffers
absorb failed dues -- a *visible hiccup* only happens when a client's
buffer is empty at consumption time.

The loop is sequential over rounds (the prefetch decision feeds back
through buffer state) with numpy vectorisation inside each round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.presets import DiskSpec
from repro.disk.sweepkernel import sample_cylinders_rates
from repro.distributions import Distribution
from repro.errors import ConfigurationError
from repro.server.simulation import _validate

__all__ = ["PrefetchResult", "simulate_prefetch"]


@dataclass(frozen=True)
class PrefetchResult:
    """Outcome of a prefetching-server simulation."""

    rounds: int
    n: int
    headroom: int
    capacity: int
    hiccups: np.ndarray          # visible hiccups per stream
    glitches: np.ndarray         # failed due fetches per stream
    mean_buffer: float           # time-average buffer occupancy
    prefetches_issued: int
    prefetches_delivered: int

    @property
    def hiccup_rate(self) -> float:
        """Visible hiccups per stream-round."""
        return float(np.sum(self.hiccups)) / (self.rounds * self.n)

    @property
    def glitch_rate(self) -> float:
        """Failed due fetches per stream-round."""
        return float(np.sum(self.glitches)) / (self.rounds * self.n)


def simulate_prefetch(spec: DiskSpec, size_dist: Distribution, n: int,
                      t: float, rounds: int, headroom: int, capacity: int,
                      prefill: int = 1, seed: int = 0) -> PrefetchResult:
    """Run the prefetching server for ``rounds`` rounds.

    Parameters
    ----------
    headroom:
        Maximum prefetch fetches added per round (0 disables prefetch).
    capacity:
        Client buffer capacity in fragments.
    prefill:
        Fragments prefilled into every client buffer before round 0
        (bounded startup delay).
    """
    _validate(spec, n, t, rounds)
    if headroom < 0:
        raise ConfigurationError(
            f"headroom must be >= 0, got {headroom!r}")
    if capacity < 1:
        raise ConfigurationError(
            f"capacity must be >= 1, got {capacity!r}")
    if not (0 <= prefill <= capacity):
        raise ConfigurationError(
            f"prefill must be in [0, {capacity}], got {prefill!r}")

    rng = np.random.default_rng(seed)
    rot = spec.rot
    buffers = np.full(n, prefill, dtype=np.int64)
    hiccups = np.zeros(n, dtype=np.int64)
    glitches = np.zeros(n, dtype=np.int64)
    buffer_area = 0.0
    issued = delivered = 0
    arm = 0.0

    for round_index in range(rounds):
        # --- consume ---------------------------------------------------
        empty = buffers == 0
        hiccups[empty] += 1
        buffers[~empty] -= 1
        buffer_area += float(np.sum(buffers))

        # --- choose the batch -------------------------------------------
        owners = np.arange(n)
        is_due = np.ones(n, dtype=bool)
        if headroom > 0:
            fillable = np.flatnonzero(buffers < capacity)
            if fillable.size:
                order = fillable[np.argsort(buffers[fillable],
                                            kind="stable")]
                chosen = order[:headroom]
                owners = np.concatenate([owners, chosen])
                is_due = np.concatenate(
                    [is_due, np.zeros(chosen.size, dtype=bool)])
                issued += int(chosen.size)
        k = owners.size

        # --- serve one SCAN sweep ---------------------------------------
        cylinders, rates = sample_cylinders_rates(spec, rng, (1, k))
        cylinders, rates = cylinders[0], rates[0]
        sizes = np.asarray(size_dist.sample(rng, k), dtype=float)
        order = np.argsort(cylinders, kind="stable")
        if round_index % 2:
            order = order[::-1]
        sorted_cyl = cylinders[order].astype(float)
        distances = np.concatenate((
            [abs(sorted_cyl[0] - arm)], np.abs(np.diff(sorted_cyl))))
        seek_times = np.asarray(spec.seek_curve(distances))
        rotation = rng.uniform(0.0, rot, size=k)
        transfer = sizes[order] / rates[order]
        completion = np.cumsum(seek_times + rotation + transfer)
        arm = float(sorted_cyl[-1])

        ok_sorted = completion <= t
        ok = np.empty(k, dtype=bool)
        ok[order] = ok_sorted

        # --- deliver -----------------------------------------------------
        due_ok = ok[:n]
        glitches[~due_ok] += 1
        gains = np.zeros(n, dtype=np.int64)
        gains[due_ok] += 1
        if k > n:
            pf_owners = owners[n:]
            pf_ok = ok[n:]
            np.add.at(gains, pf_owners[pf_ok], 1)
            delivered += int(np.sum(pf_ok))
        buffers = np.minimum(buffers + gains, capacity)

    return PrefetchResult(
        rounds=rounds, n=n, headroom=headroom, capacity=capacity,
        hiccups=hiccups, glitches=glitches,
        mean_buffer=buffer_area / (rounds * n),
        prefetches_issued=issued, prefetches_delivered=delivered)
