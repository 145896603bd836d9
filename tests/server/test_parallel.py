"""Determinism and equivalence tests for the parallel execution layer.

The contract under test: for a fixed seed, every estimate is
bit-identical no matter how many worker processes compute it (and
equal to literals pinned before the single-point ``*_parallel`` entry
points were folded into :mod:`repro.server.simulation`), the
stream-glitch fan-out matches the serial loop exactly, ``jobs=None``
never touches the pool, a worker failure fails fast, and a killed
worker is retried bit-identically.
"""

import os
import signal

import numpy as np
import pytest

from repro.distributions import Gamma
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.obs.metrics import get_registry
from repro.parallel import (
    DEFAULT_CHUNK_ROUNDS,
    JOBS_ENV,
    WORKER_RETRIES,
    fan_out,
    resolve_jobs,
    simulate_rounds_parallel,
    sweep_p_error_parallel,
    sweep_p_late_parallel,
)
from repro.server import simulation as sim
from repro.server.simulation import PErrorEstimate, PLateEstimate

ROUNDS = 5_000
N = 28
T = 1.0

# Golden pins (Viking 2.1, Gamma(200 kB, 100 kB)), recorded at jobs 1
# and 2 from the separate ``*_parallel`` single-point functions that
# the ``jobs=`` paths of the estimates in repro.server.simulation
# replaced.
PINNED_P_LATE_28 = PLateEstimate(
    n=28, t=1.0, rounds=5000, late_rounds=21, p_late=0.0042,
    ci_low=0.0027487744103146723, ci_high=0.006412478838403972)
PINNED_P_LATE_30 = PLateEstimate(
    n=30, t=1.0, rounds=5000, late_rounds=200, p_late=0.04,
    ci_low=0.034912144402327185, ci_high=0.04579414138712538)
PINNED_P_ERROR = PErrorEstimate(
    n=30, t=1.0, m=120, g=2, streams=180, bad_streams=3,
    p_error=0.016666666666666666, ci_low=0.005684086620487441,
    ci_high=0.047848228037071824, mean_glitches=0.2611111111111111)
#: Non-zero cells of ``simulate_stream_glitches(..., 30, 1.0, 100, 5,
#: seed=4)`` as ``{(run, stream): glitches}``.
PINNED_GLITCHES_30 = {
    (1, 15): 1, (1, 20): 1, (2, 9): 1, (2, 10): 1, (2, 11): 1,
    (2, 25): 1, (3, 6): 1, (3, 8): 1, (3, 13): 1, (3, 20): 1,
    (4, 0): 1, (4, 4): 1, (4, 8): 1, (4, 19): 1, (4, 20): 2}


def _mul_ten(task):
    return task * 10


def _explode_on_two(task):
    if task == 2:
        raise ValueError("task two blew up")
    return task * 10


def _raise_config_error(task):
    raise ConfigurationError("invalid worker input")


class _ExplodingSizes(Gamma):
    """Fragment-size law whose sampler raises mid-simulation (module
    level so pool workers can unpickle it)."""

    def sample(self, rng, size=None):
        raise RuntimeError("sampler exploded")


#: Path of the kamikaze sentinel file, handed to pool workers through
#: the environment (inherited on fork and spawn alike).
_KILL_SENTINEL_ENV = "REPRO_TEST_KILL_SENTINEL"


def _draw_from_seed(task):
    """The retry contract's worker shape: output depends only on the
    task's own SeedSequence, never on which process ran it."""
    _index, seed_seq = task
    return float(np.random.default_rng(seed_seq).random())


def _draw_or_die_once(task):
    """SIGKILL the worker process the first time task 2 is attempted
    (simulating the OOM killer); the retry serves it normally."""
    index, _seed_seq = task
    sentinel = os.environ.get(_KILL_SENTINEL_ENV)
    if sentinel and index == 2:
        if not os.path.exists(sentinel):
            open(sentinel, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
    return _draw_from_seed(task)


def _die_always(task):
    """Unconditional worker death on task 2: exhausts any retry budget."""
    index, _seed_seq = task
    if index == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return _draw_from_seed(task)


def _seeded_tasks(count, seed=0):
    return list(enumerate(np.random.SeedSequence(seed).spawn(count)))


class TestResolveJobs:
    def test_none_and_zero_mean_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_env_overrides_all_cores_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(0) == 3
        # An explicit argument always wins over the environment.
        assert resolve_jobs(1) == 1

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "zero")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)
        monkeypatch.setenv(JOBS_ENV, "0")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)
        monkeypatch.setenv(JOBS_ENV, "  ")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_explicit_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)


class TestFanOutFailFast:
    def test_results_in_task_order(self):
        assert fan_out(_mul_ten, [3, 1, 2], jobs=2) == [30, 10, 20]

    def test_worker_exception_wrapped_with_cause(self):
        with pytest.raises(ParallelExecutionError) as info:
            fan_out(_explode_on_two, [1, 2, 3], jobs=2)
        assert "task 2 of 3" in str(info.value)
        assert "ValueError" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)

    def test_repro_errors_propagate_unwrapped(self):
        # Validation errors raised inside a worker keep their type so
        # callers can catch them exactly as in the serial path.
        with pytest.raises(ConfigurationError):
            fan_out(_raise_config_error, [1, 2], jobs=2)

    def test_in_process_path_raises_directly(self):
        with pytest.raises(ValueError):
            fan_out(_explode_on_two, [1, 2, 3], jobs=1)

    def test_round_fan_out_fails_fast(self, viking):
        sizes = _ExplodingSizes.from_mean_std(200_000.0, 100_000.0)
        with pytest.raises(ParallelExecutionError) as info:
            simulate_rounds_parallel(viking, sizes, 4, T, 3000, seed=0,
                                     jobs=2, chunk_rounds=512)
        assert "sampler exploded" in str(info.value)


class TestWorkerRetries:
    def test_sigkilled_worker_retried_bit_identically(self, tmp_path,
                                                      monkeypatch):
        # A worker is SIGKILLed mid-fan-out (the OOM-killer scenario):
        # the broken pool is replaced, only unfinished tasks rerun, and
        # -- because every task re-seeds from its own SeedSequence --
        # the result matches the undisturbed jobs=1 run bit for bit.
        monkeypatch.setenv(_KILL_SENTINEL_ENV,
                           str(tmp_path / "killed-once"))
        expected = fan_out(_draw_from_seed, _seeded_tasks(6), jobs=1)
        survived = fan_out(_draw_or_die_once, _seeded_tasks(6), jobs=2)
        assert survived == expected
        assert os.path.exists(os.environ[_KILL_SENTINEL_ENV])

    def test_budget_exhaustion_surfaces(self, monkeypatch):
        # A worker that dies on every attempt outlives the one pool
        # replacement the fan-out allows.
        monkeypatch.delenv(_KILL_SENTINEL_ENV, raising=False)
        with pytest.raises(ParallelExecutionError) as info:
            fan_out(_die_always, _seeded_tasks(6), jobs=2)
        assert f"broke {WORKER_RETRIES + 1} time(s)" in str(info.value)
        assert "retry budget" in str(info.value)


class TestGoldenPins:
    @pytest.mark.parametrize("jobs", [None, 1, 2, 3])
    def test_p_late(self, viking, paper_sizes, jobs):
        # jobs=None keeps the single-generator layout, which draws
        # differently from the chunked one.
        expected = (PLateEstimate.from_count(N, T, ROUNDS, 19)
                    if jobs is None else PINNED_P_LATE_28)
        assert sim.estimate_p_late(viking, paper_sizes, N, T,
                                   rounds=ROUNDS, seed=7,
                                   jobs=jobs) == expected

    @pytest.mark.parametrize("jobs", [None, 1, 2, 3])
    def test_p_error(self, viking, paper_sizes, jobs):
        assert sim.estimate_p_error(viking, paper_sizes, 30, T, 120, 2,
                                    runs=6, seed=3,
                                    jobs=jobs) == PINNED_P_ERROR

    @pytest.mark.parametrize("jobs", [None, 1, 2, 3])
    def test_stream_glitches(self, viking, paper_sizes, jobs):
        quiet = sim.simulate_stream_glitches(viking, paper_sizes, 12, T,
                                             100, 5, seed=4, jobs=jobs)
        assert quiet.dtype == np.int64
        assert np.array_equal(quiet, np.zeros((5, 12), dtype=np.int64))
        loaded = sim.simulate_stream_glitches(viking, paper_sizes, 30, T,
                                              100, 5, seed=4, jobs=jobs)
        expected = np.zeros((5, 30), dtype=np.int64)
        for cell, count in PINNED_GLITCHES_30.items():
            expected[cell] = count
        assert np.array_equal(loaded, expected)

    def test_jobs_none_starts_no_fan_out(self, viking, paper_sizes):
        registry = get_registry()
        counters = [registry.counter("parallel_fanouts_total"),
                    registry.counter("parallel_tasks_total")]
        before = [counter.value for counter in counters]
        sim.estimate_p_late(viking, paper_sizes, 8, T, rounds=200)
        sim.simulate_stream_glitches(viking, paper_sizes, 8, T, 20, 2)
        sim.estimate_p_error(viking, paper_sizes, 8, T, 20, 1, runs=2)
        assert [counter.value for counter in counters] == before


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_p_late_bit_identical(self, viking, paper_sizes, jobs):
        base = sim.estimate_p_late(viking, paper_sizes, N, T,
                                   rounds=ROUNDS, seed=11, jobs=1)
        other = sim.estimate_p_late(viking, paper_sizes, N, T,
                                    rounds=ROUNDS, seed=11, jobs=jobs)
        assert base == other

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_round_batch_bit_identical(self, viking, paper_sizes, jobs):
        a = simulate_rounds_parallel(viking, paper_sizes, 8, T, 3000,
                                     seed=5, jobs=1, chunk_rounds=512)
        b = simulate_rounds_parallel(viking, paper_sizes, 8, T, 3000,
                                     seed=5, jobs=jobs, chunk_rounds=512)
        assert np.array_equal(a.service_times, b.service_times)
        assert np.array_equal(a.glitches, b.glitches)
        assert np.array_equal(a.seek_times, b.seek_times)
        assert np.array_equal(a.first_seek_times, b.first_seek_times)

    def test_p_error_bit_identical(self, viking, paper_sizes):
        kw = dict(runs=8, seed=3)
        base = sim.estimate_p_error(viking, paper_sizes, 30, T, 120, 2,
                                    **kw, jobs=1)
        par = sim.estimate_p_error(viking, paper_sizes, 30, T, 120, 2,
                                   **kw, jobs=2)
        assert base == par

    def test_different_seeds_differ(self, viking, paper_sizes):
        a = simulate_rounds_parallel(viking, paper_sizes, 8, T, 1024,
                                     seed=1, jobs=1, chunk_rounds=256)
        b = simulate_rounds_parallel(viking, paper_sizes, 8, T, 1024,
                                     seed=2, jobs=1, chunk_rounds=256)
        assert not np.array_equal(a.service_times, b.service_times)


class TestGlitchFanOutMatchesSerial:
    def test_bit_identical_to_serial_function(self, viking,
                                              paper_sizes):
        serial = sim.simulate_stream_glitches(viking, paper_sizes, 30,
                                              T, 40, 6, seed=9)
        par = sim.simulate_stream_glitches(viking, paper_sizes, 30, T,
                                           40, 6, seed=9, jobs=2)
        assert serial.dtype == par.dtype == np.int64
        assert np.array_equal(serial, par)

    def test_simulation_module_delegates(self, viking, paper_sizes):
        # An explicit ``jobs`` hands one task per run to the shared
        # fan-out instead of looping in-process.
        registry = get_registry()
        fanouts = registry.counter("parallel_fanouts_total")
        tasks = registry.counter("parallel_tasks_total")
        before = (fanouts.value, tasks.value)
        sim.simulate_stream_glitches(viking, paper_sizes, 12, T, 40, 6,
                                     seed=9, jobs=2)
        assert (fanouts.value, tasks.value) == (before[0] + 1,
                                                before[1] + 6)

    def test_estimate_p_error_delegates(self, viking, paper_sizes):
        serial = sim.estimate_p_error(viking, paper_sizes, 30, T, 120,
                                      2, runs=6, seed=4)
        par = sim.estimate_p_error(viking, paper_sizes, 30, T, 120, 2,
                                   runs=6, seed=4, jobs=2)
        assert serial == par


class TestChunking:
    def test_shapes_and_chunk_concatenation(self, viking, paper_sizes):
        rounds = 2 * DEFAULT_CHUNK_ROUNDS + 17  # ragged tail chunk
        batch = simulate_rounds_parallel(viking, paper_sizes, 4, T,
                                         rounds, seed=0, jobs=2)
        assert batch.rounds == rounds
        assert batch.glitches.shape == (rounds, 4)

    def test_jobs_none_legacy_path_unchanged(self, viking,
                                             paper_sizes):
        # estimate_p_late without jobs must keep the historical
        # single-stream RNG layout: one Generator consumed sequentially.
        legacy = sim.estimate_p_late(viking, paper_sizes, 8, T,
                                     rounds=1000, seed=7)
        rng = np.random.default_rng(7)
        batch = sim.simulate_rounds(viking, paper_sizes, 8, T, 1000,
                                    rng)
        assert legacy.late_rounds == int(
            np.sum(batch.service_times > T))

    def test_rejects_bad_rounds_and_chunks(self, viking, paper_sizes):
        with pytest.raises(ConfigurationError):
            simulate_rounds_parallel(viking, paper_sizes, 4, T, 0,
                                     jobs=1)
        with pytest.raises(ConfigurationError):
            simulate_rounds_parallel(viking, paper_sizes, 4, T, 100,
                                     jobs=1, chunk_rounds=0)
        with pytest.raises(ConfigurationError):
            sim.simulate_stream_glitches(viking, paper_sizes, 4, T, 10,
                                         0, jobs=1)


class TestSweeps:
    def test_sweep_p_late_matches_per_point_estimates(self, viking,
                                                      paper_sizes):
        # Each point draws exactly what a standalone estimate with its
        # own seed drew before the fold (the golden pins).
        swept = sweep_p_late_parallel(viking, paper_sizes, [N, 30], T,
                                      rounds=ROUNDS, seeds=[7, 8], jobs=2)
        assert swept == [PINNED_P_LATE_28, PINNED_P_LATE_30]

    def test_sweep_p_late_jobs_invariant(self, viking, paper_sizes):
        kw = dict(rounds=2000, seed=4, chunk_rounds=512)
        assert (sweep_p_late_parallel(viking, paper_sizes, [6, 9], T,
                                      jobs=1, **kw)
                == sweep_p_late_parallel(viking, paper_sizes, [6, 9], T,
                                         jobs=2, **kw))

    def test_sweep_p_error_matches_serial_estimates(self, viking,
                                                    paper_sizes):
        ns = (29, 31)
        seeds = [2000 + n for n in ns]
        swept = sweep_p_error_parallel(viking, paper_sizes, ns, T, 60,
                                       2, runs=5, seeds=seeds, jobs=2)
        for n, seed, est in zip(ns, seeds, swept):
            serial = sim.estimate_p_error(viking, paper_sizes, n, T, 60,
                                          2, runs=5, seed=seed)
            assert est == serial

    def test_sweep_validation(self, viking, paper_sizes):
        with pytest.raises(ConfigurationError):
            sweep_p_late_parallel(viking, paper_sizes, [], T, jobs=1)
        with pytest.raises(ConfigurationError):
            sweep_p_late_parallel(viking, paper_sizes, [5], T,
                                  rounds=1000, seeds=[1, 2], jobs=1)
        with pytest.raises(ConfigurationError):
            sweep_p_error_parallel(viking, paper_sizes, [5], T, 10, 20,
                                   runs=2, jobs=1)
