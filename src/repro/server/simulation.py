"""Vectorised Monte-Carlo simulation of round-based SCAN service.

This is the workhorse behind the paper's validation experiments
(Figure 1 and Table 2): it simulates, for a single disk under
multiprogramming level ``N``, a long run of scheduling rounds with

- fragment positions drawn uniformly over *sectors* (zone-weighted
  cylinder choice, matching §3.2's placement assumption),
- one SCAN sweep per round with alternating direction (elevator), the
  first seek starting from the previous sweep's end position,
- rotational latency ``Uniform(0, ROT)`` per request, and
- transfers at the request's zone rate.

A request whose completion time exceeds the round length ``t`` is a
glitch for its stream; the round always ends on time (overrun work is
dropped, matching the paper's "missed or delayed fragment" reading --
``carry_over`` is intentionally not modelled here because the paper's
rounds are independent).

Vectorisation note: the arm position at the start of a round is taken to
be the final cylinder of the previous round's *full* sweep even if that
round overran.  The exact position would be the last *served* request's
cylinder, but overruns are (by design) rare events that end near the
sweep's end anyway, so the approximation changes the first seek of the
following round by a sub-millisecond amount on a ~1 % subset of rounds.
The event-driven scheduler (:mod:`repro.server.scheduler`) models the arm
exactly and the two paths are cross-validated statistically in the test
suite.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import wilson_interval
from repro.disk.presets import DiskSpec
from repro.disk.sweepkernel import sample_cylinders_rates
from repro.distributions import Distribution
from repro.errors import ConfigurationError

__all__ = [
    "RoundBatch",
    "resolve_sim_chunk",
    "simulate_rounds",
    "estimate_p_late",
    "simulate_stream_glitches",
    "estimate_p_error",
    "PLateEstimate",
    "PErrorEstimate",
]

#: Rounds per vectorised chunk; bounds peak memory at roughly
#: ``6 * chunk * N * 8`` bytes.
DEFAULT_SIM_CHUNK = 65536

#: Environment override for :data:`DEFAULT_SIM_CHUNK` (validated int
#: >= 1).  Chunking changes how the RNG stream is consumed, so results
#: under a non-default chunk are statistically equivalent but not
#: bit-equal to the default -- see ``docs/PERFORMANCE.md``.  Its main
#: use is making the multi-chunk code path cheap to exercise in tests
#: (it is inherited by :mod:`repro.parallel` workers through the
#: environment).
SIM_CHUNK_ENV = "REPRO_SIM_CHUNK"


def resolve_sim_chunk() -> int:
    """The vectorised-chunk size: ``REPRO_SIM_CHUNK`` or the default."""
    raw = os.environ.get(SIM_CHUNK_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_SIM_CHUNK
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{SIM_CHUNK_ENV} must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"{SIM_CHUNK_ENV} must be >= 1, got {raw!r}")
    return value


@dataclass(frozen=True)
class RoundBatch:
    """Result of a batch of simulated rounds.

    Attributes
    ----------
    service_times:
        Total service time of each round, shape ``(rounds,)``.
    glitches:
        Boolean matrix ``(rounds, n)``: ``glitches[r, s]`` is True when
        stream ``s``'s request missed the deadline in round ``r``.
    seek_times:
        Lumped seek time per round, including the cross-round
        repositioning hop (for the A5 seek-bound ablation).
    first_seek_times:
        The repositioning hop alone: the seek from the previous round's
        arm position to the first request of this round's sweep.  The
        Oyang bound covers a sweep anchored at the disk edge, so the
        *in-sweep* seek time is ``seek_times - first_seek_times``.
    """

    service_times: np.ndarray
    glitches: np.ndarray
    seek_times: np.ndarray
    first_seek_times: np.ndarray

    @property
    def sweep_seek_times(self) -> np.ndarray:
        """Lumped seek of the monotone sweep itself (excluding the
        cross-round repositioning hop)."""
        return self.seek_times - self.first_seek_times

    @property
    def rounds(self) -> int:
        """Number of simulated rounds."""
        return self.service_times.shape[0]

    @property
    def n(self) -> int:
        """Multiprogramming level."""
        return self.glitches.shape[1]


def _validate(spec: DiskSpec, n: int, t: float, rounds: int) -> None:
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n!r}")
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds!r}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ConfigurationError(f"round length must be positive, got {t!r}")
    if spec.cylinders < 2:
        raise ConfigurationError("disk needs >= 2 cylinders")


def _sample_cylinders_rates(spec: DiskSpec, rng: np.random.Generator,
                            shape: tuple[int, int],
                            placement=None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Cylinders and their zone transfer rates under a placement policy
    (default: sector-uniform, eq. 3.2.1).

    Thin alias of :func:`repro.disk.sweepkernel.sample_cylinders_rates`
    (the machinery was factored there so the event-driven path can share
    it); RNG consumption -- and therefore every seeded result -- is
    unchanged.
    """
    return sample_cylinders_rates(spec, rng, shape, placement=placement)


def simulate_rounds(spec: DiskSpec, size_dist: Distribution, n: int,
                    t: float, rounds: int, rng: np.random.Generator,
                    initial_arm: int = 0, placement=None,
                    recal_prob: float = 0.0,
                    recal_duration: float = 0.0,
                    service_scale: float = 1.0) -> RoundBatch:
    """Simulate ``rounds`` SCAN rounds of ``n`` requests each.

    Rounds are simulated back-to-back on one drive: sweep direction
    alternates and the arm carries over between rounds, so lumped seek
    times reflect real elevator behaviour rather than independent sweeps.

    ``placement`` optionally replaces the sector-uniform access law with
    a :class:`repro.disk.placement.PlacementPolicy`.

    ``recal_prob``/``recal_duration`` inject a thermal-recalibration
    stall at the start of a round with the given probability (see
    :mod:`repro.core.faults`; stalling before the sweep delays every
    request of the round, matching the analytic disturbance term).

    ``service_scale`` multiplies every per-request service time
    (seek + rotation + transfer), matching the event engine's
    ``slow_disk`` semantics where the :class:`DiskScheduler` scales
    ``breakdown.total``; recalibration stalls are *not* scaled, also
    matching the event path (the arm seizure precedes the sweep).
    """
    _validate(spec, n, t, rounds)
    if recal_prob < 0.0 or recal_prob >= 1.0:
        raise ConfigurationError(
            f"recal_prob must be in [0, 1), got {recal_prob!r}")
    if recal_prob > 0.0 and recal_duration <= 0.0:
        raise ConfigurationError(
            "recal_duration must be positive when recal_prob > 0")
    if not (service_scale > 0.0 and math.isfinite(service_scale)):
        raise ConfigurationError(
            f"service_scale must be positive, got {service_scale!r}")
    service_times = np.empty(rounds, dtype=float)
    seek_totals = np.empty(rounds, dtype=float)
    first_seeks = np.empty(rounds, dtype=float)
    glitches = np.zeros((rounds, n), dtype=bool)
    rot = spec.rot

    arm = float(initial_arm)
    direction_offset = 0
    done = 0
    chunk_cap = resolve_sim_chunk()
    while done < rounds:
        chunk = min(chunk_cap, rounds - done)
        cylinders, rates = _sample_cylinders_rates(spec, rng, (chunk, n),
                                                   placement=placement)
        sizes = np.asarray(size_dist.sample(rng, (chunk, n)), dtype=float)
        if np.any(sizes <= 0):
            raise ConfigurationError(
                "size distribution produced non-positive fragment sizes")

        order = np.argsort(cylinders, axis=1, kind="stable")
        # Alternate sweep direction: even global round index ascends.
        descending = ((np.arange(chunk) + direction_offset) % 2).astype(bool)
        order[descending] = order[descending, ::-1]

        sorted_cyl = np.take_along_axis(cylinders, order, axis=1)
        sorted_sizes = np.take_along_axis(sizes, order, axis=1)
        sorted_rates = np.take_along_axis(rates, order, axis=1)

        # Seek distances along the sweep; first hop from the previous
        # round's arm position.
        inner = np.abs(np.diff(sorted_cyl, axis=1)).astype(float)
        ends = sorted_cyl[:, -1].astype(float)
        prev_end = np.concatenate(([arm], ends[:-1]))
        first = np.abs(sorted_cyl[:, 0] - prev_end)
        distances = np.concatenate((first[:, None], inner), axis=1)
        seek_times = np.asarray(spec.seek_curve(distances))

        rotation = rng.uniform(0.0, rot, size=(chunk, n))
        transfer = sorted_sizes / sorted_rates
        completion = np.cumsum(seek_times + rotation + transfer, axis=1)
        if service_scale != 1.0:
            completion = completion * service_scale
        if recal_prob > 0.0:
            stall = np.where(rng.random(chunk) < recal_prob,
                             recal_duration, 0.0)
            completion = completion + stall[:, None]

        service_times[done:done + chunk] = completion[:, -1]
        seek_totals[done:done + chunk] = np.sum(seek_times, axis=1)
        first_seeks[done:done + chunk] = seek_times[:, 0]

        late = completion > t
        np.put_along_axis(glitches[done:done + chunk], order, late, axis=1)

        arm = float(ends[-1])
        direction_offset = (direction_offset + chunk) % 2
        done += chunk

    return RoundBatch(service_times=service_times, glitches=glitches,
                      seek_times=seek_totals, first_seek_times=first_seeks)


@dataclass(frozen=True)
class PLateEstimate:
    """Simulated estimate of ``p_late(N, t)`` with a Wilson 95 % CI."""

    n: int
    t: float
    rounds: int
    late_rounds: int
    p_late: float
    ci_low: float
    ci_high: float


def estimate_p_late(spec: DiskSpec, size_dist: Distribution, n: int,
                    t: float, rounds: int = 20_000, seed: int = 0,
                    jobs: int | None = None) -> PLateEstimate:
    """Monte-Carlo estimate of the probability a round overruns
    (Figure 1's simulated series).

    ``jobs=None`` keeps the historical single-stream RNG layout
    (byte-identical to earlier releases for a given seed).  Any explicit
    ``jobs`` value -- including 1 -- switches to the chunk-parallel
    decomposition of :mod:`repro.parallel`, whose results are
    bit-identical across worker counts but use per-chunk substreams.
    """
    if jobs is not None:
        from repro.parallel import estimate_p_late_parallel
        return estimate_p_late_parallel(spec, size_dist, n, t,
                                        rounds=rounds, seed=seed, jobs=jobs)
    rng = np.random.default_rng(seed)
    batch = simulate_rounds(spec, size_dist, n, t, rounds, rng)
    late = int(np.sum(batch.service_times > t))
    low, high = wilson_interval(late, rounds)
    return PLateEstimate(n=n, t=t, rounds=rounds, late_rounds=late,
                         p_late=late / rounds, ci_low=low, ci_high=high)


def simulate_stream_glitches(spec: DiskSpec, size_dist: Distribution,
                             n: int, t: float, m: int, runs: int,
                             seed: int = 0,
                             jobs: int | None = None) -> np.ndarray:
    """Per-stream glitch counts over ``m`` rounds, repeated ``runs``
    times.  Returns an integer array of shape ``(runs, n)``.

    Each run is an independent server lifetime of ``m`` rounds with the
    same ``n`` streams active throughout (the paper's Table 2 setting:
    streams of M = 1200 rounds).

    Runs already draw from per-run ``SeedSequence`` children, so the
    ``jobs`` fan-out (via :mod:`repro.parallel`) is bit-identical to
    this serial loop for every worker count.
    """
    if jobs is not None:
        from repro.parallel import simulate_stream_glitches_parallel
        return simulate_stream_glitches_parallel(spec, size_dist, n, t,
                                                 m, runs, seed=seed,
                                                 jobs=jobs)
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs!r}")
    counts = np.empty((runs, n), dtype=np.int64)
    root = np.random.SeedSequence(seed)
    for run, child in enumerate(root.spawn(runs)):
        rng = np.random.default_rng(child)
        batch = simulate_rounds(spec, size_dist, n, t, m, rng)
        counts[run] = np.sum(batch.glitches, axis=0)
    return counts


@dataclass(frozen=True)
class PErrorEstimate:
    """Simulated estimate of ``p_error = P[#glitches >= g]``."""

    n: int
    t: float
    m: int
    g: int
    streams: int
    bad_streams: int
    p_error: float
    ci_low: float
    ci_high: float
    mean_glitches: float


def estimate_p_error(spec: DiskSpec, size_dist: Distribution, n: int,
                     t: float, m: int, g: int, runs: int = 100,
                     seed: int = 0,
                     jobs: int | None = None) -> PErrorEstimate:
    """Monte-Carlo estimate of the per-stream error probability
    (Table 2's simulated column).  ``jobs`` fans the runs out over
    worker processes with bit-identical results (see
    :func:`simulate_stream_glitches`)."""
    if not (0 <= g <= m):
        raise ConfigurationError(f"g must be in [0, m], got {g!r}")
    counts = simulate_stream_glitches(spec, size_dist, n, t, m, runs,
                                      seed, jobs=jobs)
    streams = counts.size
    bad = int(np.sum(counts >= g))
    low, high = wilson_interval(bad, streams)
    return PErrorEstimate(n=n, t=t, m=m, g=g, streams=streams,
                          bad_streams=bad, p_error=bad / streams,
                          ci_low=low, ci_high=high,
                          mean_glitches=float(np.mean(counts)))
