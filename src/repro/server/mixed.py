"""Mixed-workload simulation (continuous streams + discrete requests).

Validates :class:`repro.core.mixed.MixedWorkloadModel`.  Each round the
disk receives ``n`` continuous requests and ``k`` discrete requests.

- ``integrated`` policy: one SCAN sweep over all ``n + k`` requests;
  any request past the deadline fails (continuous ones glitch).
- ``continuous-first`` policy: the sweep serves the continuous batch
  first, then turns around and serves the discrete batch with the
  remaining time; discrete requests that do not finish are carried as
  "missed" (a real server would queue them, which only needs the
  per-round completion counts this function reports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.presets import DiskSpec
from repro.disk.sweepkernel import sample_cylinders_rates
from repro.distributions import Distribution
from repro.errors import ConfigurationError
from repro.server.simulation import _validate

__all__ = ["MixedBatch", "simulate_mixed_rounds", "DiscreteQueueResult",
           "simulate_discrete_queue"]


@dataclass(frozen=True)
class MixedBatch:
    """Result of a mixed-workload simulation."""

    policy: str
    service_times: np.ndarray        # total busy time per round
    continuous_glitches: np.ndarray  # (rounds, n) boolean
    discrete_served: np.ndarray      # discrete completions per round

    @property
    def rounds(self) -> int:
        """Number of simulated rounds."""
        return self.service_times.shape[0]

    @property
    def continuous_glitch_rate(self) -> float:
        """Continuous glitches per stream-round."""
        return float(np.mean(self.continuous_glitches))

    @property
    def mean_discrete_throughput(self) -> float:
        """Discrete completions per round."""
        return float(np.mean(self.discrete_served))


def _sweep(spec: DiskSpec, rng: np.random.Generator, arm: float,
           cylinders: np.ndarray, transfer: np.ndarray,
           descending: bool, start_time: float
           ) -> tuple[np.ndarray, np.ndarray, float]:
    """Serve one sorted sweep; returns (completion times in input order,
    sort order, arm end)."""
    order = np.argsort(cylinders, kind="stable")
    if descending:
        order = order[::-1]
    sorted_cyl = cylinders[order].astype(float)
    distances = np.concatenate((
        [abs(sorted_cyl[0] - arm)], np.abs(np.diff(sorted_cyl))))
    seek = np.asarray(spec.seek_curve(distances))
    rotation = rng.uniform(0.0, spec.rot, size=cylinders.size)
    completion = start_time + np.cumsum(seek + rotation + transfer[order])
    return completion, order, float(sorted_cyl[-1])


def simulate_mixed_rounds(spec: DiskSpec, continuous_sizes: Distribution,
                          discrete_sizes: Distribution, n: int, k: int,
                          t: float, rounds: int,
                          rng: np.random.Generator,
                          policy: str = "continuous-first") -> MixedBatch:
    """Simulate ``rounds`` rounds of ``n`` continuous + ``k`` discrete
    requests under the chosen policy."""
    _validate(spec, n, t, rounds)
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k!r}")
    if policy not in ("integrated", "continuous-first"):
        raise ConfigurationError(
            f"policy must be 'integrated' or 'continuous-first', "
            f"got {policy!r}")

    service_times = np.empty(rounds, dtype=float)
    glitches = np.zeros((rounds, n), dtype=bool)
    disc_served = np.zeros(rounds, dtype=np.int64)
    arm = 0.0

    for r in range(rounds):
        cont_cyl, cont_rate = sample_cylinders_rates(spec, rng, (1, n))
        cont_cyl, cont_rate = cont_cyl[0], cont_rate[0]
        cont_transfer = (np.asarray(continuous_sizes.sample(rng, n),
                                    dtype=float) / cont_rate)
        if k:
            disc_cyl, disc_rate = sample_cylinders_rates(spec, rng,
                                                         (1, k))
            disc_cyl, disc_rate = disc_cyl[0], disc_rate[0]
            disc_transfer = (np.asarray(discrete_sizes.sample(rng, k),
                                        dtype=float) / disc_rate)

        if policy == "integrated" and k:
            cylinders = np.concatenate([cont_cyl, disc_cyl])
            transfer = np.concatenate([cont_transfer, disc_transfer])
            completion, order, arm = _sweep(spec, rng, arm, cylinders,
                                            transfer, bool(r % 2), 0.0)
            in_order = np.empty(n + k)
            in_order[order] = completion
            glitches[r] = in_order[:n] > t
            disc_served[r] = int(np.sum(in_order[n:] <= t))
            service_times[r] = float(completion[-1])
        else:
            completion, order, arm = _sweep(spec, rng, arm, cont_cyl,
                                            cont_transfer, bool(r % 2),
                                            0.0)
            in_order = np.empty(n)
            in_order[order] = completion
            glitches[r] = in_order > t
            elapsed = float(completion[-1])
            if k:
                completion_d, _, arm = _sweep(
                    spec, rng, arm, disc_cyl, disc_transfer,
                    not bool(r % 2), elapsed)
                disc_served[r] = int(np.sum(completion_d <= t))
                elapsed = float(completion_d[-1])
            service_times[r] = elapsed

    return MixedBatch(policy=policy, service_times=service_times,
                      continuous_glitches=glitches,
                      discrete_served=disc_served)


@dataclass(frozen=True)
class DiscreteQueueResult:
    """Steady-state behaviour of the discrete request queue."""

    rounds: int
    arrival_rate: float
    arrived: int
    served: int
    response_times: np.ndarray    # rounds from arrival to completion
    queue_lengths: np.ndarray     # backlog at each round start
    continuous_glitches: np.ndarray

    @property
    def mean_response_rounds(self) -> float:
        """Mean discrete response time in rounds (served requests)."""
        if self.response_times.size == 0:
            return float("nan")
        return float(np.mean(self.response_times))

    @property
    def mean_queue_length(self) -> float:
        """Time-average backlog."""
        return float(np.mean(self.queue_lengths))

    @property
    def saturated(self) -> bool:
        """Whether the backlog is still growing at the end of the run
        (arrival rate above the leftover-time capacity)."""
        half = self.queue_lengths.size // 2
        return (float(np.mean(self.queue_lengths[half:]))
                > 2.0 * float(np.mean(self.queue_lengths[:half])) + 2.0)


def simulate_discrete_queue(spec: DiskSpec,
                            continuous_sizes: Distribution,
                            discrete_sizes: Distribution, n: int,
                            arrival_rate: float, t: float, rounds: int,
                            rng: np.random.Generator
                            ) -> DiscreteQueueResult:
    """Continuous-first server with a queued discrete workload.

    Discrete requests arrive Poisson(``arrival_rate`` per round) and
    queue FIFO; each round, after the continuous sweep, the server
    works the queue head-first until the deadline.  Response time is
    measured in rounds from arrival to the round of completion
    (requests completing in their arrival round score 1).
    """
    _validate(spec, n, t, rounds)
    if arrival_rate < 0:
        raise ConfigurationError(
            f"arrival_rate must be >= 0, got {arrival_rate!r}")
    queue_arrival_round: list[int] = []
    response: list[int] = []
    queue_lengths = np.empty(rounds, dtype=np.int64)
    glitches = np.zeros((rounds, n), dtype=bool)
    arrived = served = 0
    arm = 0.0

    for r in range(rounds):
        new = int(rng.poisson(arrival_rate))
        arrived += new
        queue_arrival_round.extend([r] * new)
        queue_lengths[r] = len(queue_arrival_round)

        cont_cyl, cont_rate = sample_cylinders_rates(spec, rng, (1, n))
        cont_cyl, cont_rate = cont_cyl[0], cont_rate[0]
        cont_transfer = (np.asarray(continuous_sizes.sample(rng, n),
                                    dtype=float) / cont_rate)
        completion, order, arm = _sweep(spec, rng, arm, cont_cyl,
                                        cont_transfer, bool(r % 2), 0.0)
        in_order = np.empty(n)
        in_order[order] = completion
        glitches[r] = in_order > t
        elapsed = float(completion[-1])

        # Work the queue until the deadline (FIFO, one at a time --
        # queued discrete requests are latency-sensitive, so the server
        # does not hold them back to batch a sweep).
        while queue_arrival_round and elapsed < t:
            disc_cyl, disc_rate = sample_cylinders_rates(spec, rng,
                                                         (1, 1))
            size = float(np.asarray(discrete_sizes.sample(rng, 1))[0])
            seek = float(spec.seek_curve(abs(int(disc_cyl[0, 0]) - arm)))
            service = (seek + rng.uniform(0.0, spec.rot)
                       + size / float(disc_rate[0, 0]))
            if elapsed + service > t:
                break
            elapsed += service
            arm = float(disc_cyl[0, 0])
            response.append(r - queue_arrival_round.pop(0) + 1)
            served += 1

    return DiscreteQueueResult(
        rounds=rounds, arrival_rate=arrival_rate, arrived=arrived,
        served=served, response_times=np.asarray(response, dtype=float),
        queue_lengths=queue_lengths, continuous_glitches=glitches)
