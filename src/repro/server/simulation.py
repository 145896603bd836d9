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
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import wilson_interval
from repro.disk.presets import DiskSpec
from repro.disk.sweepkernel import sample_cylinders_rates, seek_table
from repro.distributions import Distribution
from repro.errors import ConfigurationError

__all__ = [
    "RoundBatch",
    "simulate_rounds",
    "estimate_p_late",
    "simulate_stream_glitches",
    "estimate_p_error",
    "PLateEstimate",
    "PErrorEstimate",
]

#: Rounds per vectorised chunk; bounds the working arrays at about
#: ``9 * chunk * N * 8`` bytes at peak (tracemalloc, beyond the
#: returned batch).  :func:`simulate_rounds` reads it at
#: call time, so a test can shrink it to exercise the multi-chunk path.
#: A different chunk consumes the RNG stream in a different order:
#: results stay statistically equivalent but are not bit-equal.
DEFAULT_SIM_CHUNK = 65536


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


def simulate_rounds(spec: DiskSpec, size_dist: Distribution, n: int,
                    t: float, rounds: int, rng: np.random.Generator,
                    placement=None, recal_prob: float = 0.0,
                    recal_duration: float = 0.0,
                    service_scale: float = 1.0) -> RoundBatch:
    """Simulate ``rounds`` SCAN rounds of ``n`` requests each.

    Rounds are simulated back-to-back on one drive: the arm starts at
    cylinder 0, sweep direction alternates and the arm carries over
    between rounds, so lumped seek times reflect real elevator behaviour
    rather than independent sweeps.

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
    seeks = seek_table(spec.seek_curve, spec.cylinders)
    # Sort key: cylinder in the high bits, column in the low ``bits``.
    bits = max(1, (n - 1).bit_length())
    columns = np.arange(n)

    arm = 0
    direction_offset = 0
    done = 0
    while done < rounds:
        chunk = min(DEFAULT_SIM_CHUNK, rounds - done)
        cylinders, rates = sample_cylinders_rates(spec, rng, (chunk, n),
                                                  placement=placement)
        sizes = np.asarray(size_dist.sample(rng, (chunk, n)), dtype=float)
        if np.any(sizes <= 0):
            raise ConfigurationError(
                "size distribution produced non-positive fragment sizes")

        # SCAN order in one in-place sort.  Keys are unique per row, so
        # ascending rows come out in stable-argsort order; negating the
        # keys of descending rows (odd global round index) reverses it:
        # cylinders descend, ties by descending column.
        keys = cylinders << bits
        keys |= columns
        descending = keys[1 - direction_offset::2]
        np.negative(descending, out=descending)
        keys.sort(axis=1)
        np.abs(keys, out=keys)
        sorted_cyl = keys >> bits
        # The low bits, offset by row, index the chunk's flat arrays.
        keys &= (1 << bits) - 1
        keys += np.arange(0, chunk * n, n)[:, None]
        flat = keys

        # Seek distances along the sweep.  Row-major, each round's first
        # hop starts where the previous round's sweep ended, and the
        # chunk's first where the arm was left.
        flat_cyl = sorted_cyl.reshape(-1)
        distances = np.empty_like(flat_cyl)
        distances[0] = flat_cyl[0] - arm
        np.subtract(flat_cyl[1:], flat_cyl[:-1], out=distances[1:])
        np.abs(distances, out=distances)
        seek_times = seeks[distances.reshape(chunk, n)]

        # Elementwise, so dividing before the gather gives the same bits.
        transfer = np.divide(sizes, rates, out=rates).reshape(-1)[flat]
        # Seek + rotation + transfer, summed in place into the rotation
        # draw, then accumulated along the sweep.
        completion = rng.uniform(0.0, rot, size=(chunk, n))
        completion += seek_times
        completion += transfer
        np.cumsum(completion, axis=1, out=completion)
        if service_scale != 1.0:
            completion *= service_scale
        if recal_prob > 0.0:
            stall = np.where(rng.random(chunk) < recal_prob,
                             recal_duration, 0.0)
            completion += stall[:, None]

        service_times[done:done + chunk] = completion[:, -1]
        seek_totals[done:done + chunk] = np.sum(seek_times, axis=1)
        first_seeks[done:done + chunk] = seek_times[:, 0]

        glitches[done:done + chunk].reshape(-1)[flat] = completion > t

        arm = int(sorted_cyl[-1, -1])
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

    @classmethod
    def from_count(cls, n: int, t: float, rounds: int,
                   late_rounds: int) -> "PLateEstimate":
        """The estimate from ``late_rounds`` overruns in ``rounds``
        simulated rounds."""
        low, high = wilson_interval(late_rounds, rounds)
        return cls(n=n, t=t, rounds=rounds, late_rounds=late_rounds,
                   p_late=late_rounds / rounds, ci_low=low, ci_high=high)


def estimate_p_late(spec: DiskSpec, size_dist: Distribution, n: int,
                    t: float, rounds: int = 20_000, seed: int = 0,
                    jobs: int | None = None) -> PLateEstimate:
    """Monte-Carlo estimate of the probability a round overruns
    (Figure 1's simulated series).

    ``jobs=None`` keeps the historical single-stream RNG layout
    (byte-identical to earlier releases for a given seed).  Any explicit
    ``jobs`` value -- including 1 -- runs the one-point grid of
    :func:`repro.parallel.sweep_p_late_parallel`, whose chunked
    decomposition is bit-identical across worker counts but uses
    per-chunk substreams.
    """
    if jobs is not None:
        from repro.parallel import sweep_p_late_parallel
        return sweep_p_late_parallel(spec, size_dist, [n], t, rounds,
                                     seeds=[seed], jobs=jobs)[0]
    rng = np.random.default_rng(seed)
    batch = simulate_rounds(spec, size_dist, n, t, rounds, rng)
    return PLateEstimate.from_count(n, t, rounds,
                                    int(np.sum(batch.service_times > t)))


def _check_glitch_query(t: float, m: int, runs: int, g: int = 0) -> None:
    """Reject a stream-glitch query before any run starts, so a pooled
    query fails in the caller rather than inside its workers."""
    if not (t > 0.0 and math.isfinite(t)):
        raise ConfigurationError(f"round length must be positive, got {t!r}")
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m!r}")
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs!r}")
    if not (0 <= g <= m):
        raise ConfigurationError(f"g must be in [0, m], got {g!r}")


def _glitch_row(task) -> np.ndarray:
    """One stream lifetime of ``m`` rounds drawn from its own
    ``SeedSequence``; returns per-stream glitch counts, shape ``(n,)``.
    Module-level so :func:`repro.parallel.fan_out` can pickle it."""
    spec, size_dist, n, t, m, seed_seq = task
    batch = simulate_rounds(spec, size_dist, n, t, m,
                            np.random.default_rng(seed_seq))
    return np.sum(batch.glitches, axis=0)


def simulate_stream_glitches(spec: DiskSpec, size_dist: Distribution,
                             n: int, t: float, m: int, runs: int,
                             seed: int = 0,
                             jobs: int | None = None) -> np.ndarray:
    """Per-stream glitch counts over ``m`` rounds, repeated ``runs``
    times.  Returns an integer array of shape ``(runs, n)``.

    Each run is an independent server lifetime of ``m`` rounds with the
    same ``n`` streams active throughout (the paper's Table 2 setting:
    streams of M = 1200 rounds).

    Run ``i`` draws from ``SeedSequence(seed).spawn(runs)[i]``, so the
    result depends only on ``seed``: ``jobs=None`` loops over the runs
    in-process, and any ``jobs`` value fans them out through
    :func:`repro.parallel.fan_out` with bit-identical counts.
    """
    _check_glitch_query(t, m, runs)
    tasks = [(spec, size_dist, n, t, m, child)
             for child in np.random.SeedSequence(seed).spawn(runs)]
    if jobs is None:
        rows = [_glitch_row(task) for task in tasks]
    else:
        from repro.parallel import fan_out, resolve_jobs
        rows = fan_out(_glitch_row, tasks, resolve_jobs(jobs))
    return np.stack(rows).astype(np.int64)


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

    @classmethod
    def from_counts(cls, n: int, t: float, m: int, g: int,
                    counts: np.ndarray) -> "PErrorEstimate":
        """The estimate from a ``(runs, n)`` per-stream glitch-count
        matrix (:func:`simulate_stream_glitches`)."""
        streams = counts.size
        bad = int(np.sum(counts >= g))
        low, high = wilson_interval(bad, streams)
        return cls(n=n, t=t, m=m, g=g, streams=streams, bad_streams=bad,
                   p_error=bad / streams, ci_low=low, ci_high=high,
                   mean_glitches=float(np.mean(counts)))


def estimate_p_error(spec: DiskSpec, size_dist: Distribution, n: int,
                     t: float, m: int, g: int, runs: int = 100,
                     seed: int = 0,
                     jobs: int | None = None) -> PErrorEstimate:
    """Monte-Carlo estimate of the per-stream error probability
    (Table 2's simulated column).  ``jobs`` fans the runs out over
    worker processes with bit-identical results (see
    :func:`simulate_stream_glitches`)."""
    _check_glitch_query(t, m, runs, g)
    counts = simulate_stream_glitches(spec, size_dist, n, t, m, runs,
                                      seed, jobs=jobs)
    return PErrorEstimate.from_counts(n, t, m, g, counts)
