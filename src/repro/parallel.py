"""Deterministic process-parallel execution of the Monte-Carlo hot paths.

The validation experiments (Figure 1, Table 2, the A-series ablations)
burn almost all of their wall-clock in
:func:`~repro.server.simulation.simulate_rounds`.  Its work is
embarrassingly parallel at the right granularity -- independent blocks
of rounds, independent stream lifetimes -- so this module fans it out
over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Two parallelism axes are exposed:

- **within one run** -- :func:`simulate_rounds_parallel` splits one long
  run into fixed chunks;
- **across an estimate sweep** -- :func:`sweep_p_late_parallel` /
  :func:`sweep_p_error_parallel` flatten the per-``N`` points of a
  Figure-1 / Table-2 grid into one global task list, so a full sweep
  saturates all cores even when a single point has too few chunks to.

The single-point estimates of :mod:`repro.server.simulation` ride on
these: ``estimate_p_late(jobs=k)`` is a one-point
:func:`sweep_p_late_parallel`, and ``simulate_stream_glitches(jobs=k)``
(hence ``estimate_p_error``) hands one task per stream lifetime to
:func:`fan_out`.

Fan-out
-------
Every fan-out runs on one :class:`~concurrent.futures.
ProcessPoolExecutor`, and each worker pickles its result back through
the pool.  Worker processes isolate the tasks: a worker killed by the
OOM killer costs a retry, not the run (:func:`fan_out`).
``docs/PERFORMANCE.md`` has the measurements behind keeping this one
executor.

Determinism contract
--------------------
Results are **bit-identical for the same seed regardless of the worker
count**.  The work decomposition is fixed up front
(``rounds`` split into ``chunk_rounds``-sized blocks; one task per
stream-glitch run) and each task draws from its own
:class:`numpy.random.SeedSequence` child stream
(``SeedSequence(seed).spawn(...)``), so the random numbers a task
consumes depend only on ``(seed, task index)`` -- never on which
process ran it or in what order tasks finished.  ``jobs=1`` executes
the identical decomposition in-process, which is what the equivalence
tests assert against.

The chunked round decomposition is *statistically* equivalent to one
long serial simulation but not bit-equal to it: the disk arm's
carry-over position resets at chunk boundaries (each chunk starts
with the arm at cylinder 0), perturbing one repositioning seek per
``chunk_rounds`` rounds -- the same order of approximation the serial
path already accepts at its internal block boundaries (see
``docs/SIMULATOR.md``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.disk.presets import DiskSpec
from repro.distributions import Distribution
from repro.errors import ConfigurationError, ParallelExecutionError, ReproError
from repro.server.simulation import (
    PErrorEstimate,
    PLateEstimate,
    RoundBatch,
    _check_glitch_query,
    _glitch_row,
    simulate_rounds,
)

__all__ = [
    "resolve_jobs",
    "fan_out",
    "simulate_rounds_parallel",
    "sweep_p_late_parallel",
    "sweep_p_error_parallel",
]

#: Rounds per fan-out task.  Small enough that typical workloads
#: (20k-100k rounds) split into tens of tasks and load-balance well,
#: large enough that per-task IPC overhead stays negligible.
DEFAULT_CHUNK_ROUNDS = 2048

#: Environment override for the all-cores default of :func:`resolve_jobs`
#: (used by the CI ``jobs=2`` matrix leg to exercise the pool on shared
#: runners without oversubscribing them).
JOBS_ENV = "REPRO_JOBS"

#: Pool replacements tolerated per fan-out: one transient worker death
#: (OOM kill, node preemption) is absorbed; a second failure surfaces.
WORKER_RETRIES = 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all cores.

    The all-cores default can be overridden with the ``REPRO_JOBS``
    environment variable (an explicit ``jobs`` argument always wins).
    """
    if jobs is None or jobs == 0:
        env = os.environ.get(JOBS_ENV)
        if env is not None and env.strip():
            try:
                value = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{JOBS_ENV} must be an integer >= 1, got {env!r}"
                ) from None
            if value < 1:
                raise ConfigurationError(
                    f"{JOBS_ENV} must be >= 1, got {env!r}")
            return value
        return os.cpu_count() or 1
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs!r}")
    return jobs


def _chunk_sizes(total: int, chunk: int) -> list[int]:
    """Split ``total`` rounds into fixed-size blocks (last one ragged).

    The decomposition depends only on ``(total, chunk)`` -- never on the
    worker count -- which is what makes results worker-invariant.
    """
    if chunk < 1:
        raise ConfigurationError(f"chunk_rounds must be >= 1, got {chunk!r}")
    full, rem = divmod(total, chunk)
    return [chunk] * full + ([rem] if rem else [])


# ----------------------------------------------------------------------
# Fail-fast fan-out (with bounded recovery from worker death)
# ----------------------------------------------------------------------

def _timed_call(payload):
    """Pool entry point wrapping every worker: returns ``(pid, seconds,
    result)`` so the parent can account per-task runtime and worker
    spread without the task payloads changing shape.  Module-level so
    it pickles; the timing never feeds back into the computation, so
    the determinism contract is untouched.
    """
    worker, task = payload
    start = time.perf_counter()
    result = worker(task)
    return os.getpid(), time.perf_counter() - start, result


def _record_task(index: int, pid: int, seconds: float) -> None:
    """Account one finished task in the process registry and trace."""
    registry = get_registry()
    registry.counter("parallel_tasks_total").inc()
    registry.histogram("parallel_task_seconds").observe(seconds)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit("worker_task", phase="done", task=index, pid=pid,
                    seconds=seconds)


def _pool_pass(worker, tasks, pending, results, done, jobs: int) -> None:
    """One pool's attempt at the ``pending`` task indices.

    Fills ``results``/``done`` in place as futures land, so a pool that
    breaks mid-pass leaves completed work recorded and only the
    unfinished indices are retried.
    """
    workers = min(jobs, len(pending))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        indexed = {pool.submit(_timed_call, (worker, tasks[i])): i
                   for i in pending}
        for future in as_completed(indexed):
            index = indexed[future]
            try:
                pid, seconds, results[index] = future.result()
            except (ReproError, BrokenProcessPool):
                for other in indexed:
                    other.cancel()
                raise
            except Exception as exc:
                for other in indexed:
                    other.cancel()
                raise ParallelExecutionError(
                    f"parallel worker failed on task {index + 1} of "
                    f"{len(tasks)}: {type(exc).__name__}: {exc}") from exc
            done[index] = True
            _record_task(index, pid, seconds)


def fan_out(worker, tasks, jobs: int) -> list:
    """Run ``worker`` over ``tasks``, in-process or on a pool.

    Results come back in task order either way, so callers can
    concatenate without bookkeeping.  A worker *exception* fails fast:
    the first one cancels every outstanding task, the pool is shut down,
    and a :class:`ParallelExecutionError` naming the failed task
    surfaces (library :class:`ReproError` subclasses -- validation
    errors raised inside a worker -- propagate unchanged).

    Worker *death* (SIGKILL by the OOM killer, node preemption -- the
    pool raises :class:`BrokenProcessPool`) is transient, not a bug in
    the task: the broken pool is replaced and only the unfinished tasks
    are resubmitted, up to :data:`WORKER_RETRIES` times.  Every
    task carries its own ``SeedSequence`` substream, so a rerun draws
    exactly the random numbers the killed attempt would have -- results
    stay bit-identical to an undisturbed run (asserted against
    ``jobs=1`` in the test suite).  After the retry budget a
    :class:`ParallelExecutionError` surfaces.
    """
    tasks = list(tasks)
    registry = get_registry()
    registry.counter("parallel_fanouts_total").inc()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit("worker_task", phase="submit", task=len(tasks),
                    jobs=jobs)
    if jobs == 1 or len(tasks) <= 1:
        results = []
        pid = os.getpid()
        for index, task in enumerate(tasks):
            start = time.perf_counter()
            results.append(worker(task))
            _record_task(index, pid, time.perf_counter() - start)
        return results
    results: list = [None] * len(tasks)
    done = [False] * len(tasks)
    failures = 0
    while True:
        pending = [i for i, finished in enumerate(done) if not finished]
        try:
            _pool_pass(worker, tasks, pending, results, done, jobs)
            return results
        except BrokenProcessPool as exc:
            failures += 1
            registry.counter("parallel_pool_failures_total").inc()
            if failures > WORKER_RETRIES:
                remaining = sum(1 for finished in done if not finished)
                raise ParallelExecutionError(
                    f"worker pool broke {failures} time(s) with "
                    f"{remaining} of {len(tasks)} task(s) unfinished; "
                    f"retry budget of {WORKER_RETRIES} exhausted") from exc


# ----------------------------------------------------------------------
# Worker entry points (module-level so they pickle)
# ----------------------------------------------------------------------

def _run_round_chunk(task) -> RoundBatch:
    """Round worker: simulate one block, return the batch."""
    spec, size_dist, n, t, rounds, seed_seq = task
    rng = np.random.default_rng(seed_seq)
    return simulate_rounds(spec, size_dist, n, t, rounds, rng)


def _run_sweep_late_chunk(task) -> tuple[int, int]:
    """Sweep worker: one chunk of one grid point; returns scalars only
    (point index, late-round count)."""
    point, spec, size_dist, n, t, rounds, seed_seq = task
    rng = np.random.default_rng(seed_seq)
    batch = simulate_rounds(spec, size_dist, n, t, rounds, rng)
    return point, int(np.sum(batch.service_times > t))


def _run_sweep_glitch_run(task) -> tuple[int, np.ndarray]:
    """Sweep worker: one stream lifetime of one grid point."""
    return task[0], _glitch_row(task[1:])


# ----------------------------------------------------------------------
# Public fan-outs
# ----------------------------------------------------------------------

def simulate_rounds_parallel(spec: DiskSpec, size_dist: Distribution,
                             n: int, t: float, rounds: int, seed: int = 0,
                             jobs: int | None = None,
                             chunk_rounds: int = DEFAULT_CHUNK_ROUNDS
                             ) -> RoundBatch:
    """Chunk-parallel :func:`repro.server.simulation.simulate_rounds`.

    ``rounds`` is split into ``chunk_rounds`` blocks; block ``i`` draws
    from ``SeedSequence(seed).spawn(...)[i]`` and starts its sweep at
    cylinder 0.  Bit-identical output for any ``jobs`` value.
    """
    jobs = resolve_jobs(jobs)
    sizes = _chunk_sizes(rounds, chunk_rounds)
    if not sizes:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds!r}")
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    tasks = [(spec, size_dist, n, t, block, child)
             for block, child in zip(sizes, children)]
    return _concat_batches(fan_out(_run_round_chunk, tasks, jobs))


def _concat_batches(batches: list[RoundBatch]) -> RoundBatch:
    return RoundBatch(
        service_times=np.concatenate(
            [b.service_times for b in batches]),
        glitches=np.concatenate([b.glitches for b in batches], axis=0),
        seek_times=np.concatenate([b.seek_times for b in batches]),
        first_seek_times=np.concatenate(
            [b.first_seek_times for b in batches]))


# ----------------------------------------------------------------------
# Sweep-axis fan-outs (second parallelism axis)
# ----------------------------------------------------------------------

def _point_seed_sequences(ns, seed, seeds):
    """Per-point SeedSequence roots for a sweep.

    With explicit ``seeds`` every point ``i`` draws exactly as a
    standalone estimate with ``seed=seeds[i]`` would -- this is how the
    benches keep their historical per-point numbers.  Without ``seeds``
    the points draw from ``SeedSequence(seed).spawn(len(ns))``
    substreams, deterministic in ``(seed, grid)`` alone.
    """
    if seeds is None:
        return np.random.SeedSequence(seed).spawn(len(ns))
    if len(seeds) != len(ns):
        raise ConfigurationError(
            f"seeds must match the grid: {len(seeds)} seeds for "
            f"{len(ns)} points")
    return [s if isinstance(s, np.random.SeedSequence)
            else np.random.SeedSequence(s) for s in seeds]


def _validated_grid(ns) -> list[int]:
    ns = [int(n) for n in ns]
    if not ns:
        raise ConfigurationError("sweep grid must not be empty")
    if any(n < 1 for n in ns):
        raise ConfigurationError(f"every n must be >= 1, got {ns!r}")
    return ns


def sweep_p_late_parallel(spec: DiskSpec, size_dist: Distribution, ns,
                          t: float, rounds: int = 20_000, *,
                          seed: int = 0, seeds=None,
                          jobs: int | None = None,
                          chunk_rounds: int = DEFAULT_CHUNK_ROUNDS
                          ) -> list[PLateEstimate]:
    """``estimate_p_late`` over a grid of ``N`` values, one shared pool.

    All ``(point, chunk)`` tasks of the whole grid are flattened into a
    single fan-out, so a Figure-1 sweep saturates every core even though
    each individual point only has ``rounds / chunk_rounds`` chunks.
    Point ``i`` is bit-identical, for any ``jobs``, to
    ``estimate_p_late(..., seed=seeds[i], jobs=k)`` (which is this
    sweep over a one-point grid); workers return only
    ``(point, late_count)`` scalars.
    """
    ns = _validated_grid(ns)
    jobs = resolve_jobs(jobs)
    roots = _point_seed_sequences(ns, seed, seeds)
    sizes = _chunk_sizes(rounds, chunk_rounds)
    if not sizes:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds!r}")
    tasks = []
    for point, (n, root) in enumerate(zip(ns, roots)):
        for block, child in zip(sizes, root.spawn(len(sizes))):
            tasks.append((point, spec, size_dist, n, t, block, child))
    late = [0] * len(ns)
    for point, count in fan_out(_run_sweep_late_chunk, tasks, jobs):
        late[point] += count
    return [PLateEstimate.from_count(n, t, rounds, count)
            for n, count in zip(ns, late)]


def sweep_p_error_parallel(spec: DiskSpec, size_dist: Distribution, ns,
                           t: float, m: int, g: int, runs: int = 100, *,
                           seed: int = 0, seeds=None,
                           jobs: int | None = None
                           ) -> list[PErrorEstimate]:
    """``estimate_p_error`` over a grid of ``N`` values, one shared pool.

    The ``(point, run)`` stream lifetimes of the whole grid feed one
    fan-out; point ``i`` matches ``estimate_p_error(..., seed=seeds[i])``
    exactly (same per-run ``SeedSequence.spawn`` scheme).  Workers
    return one ``(n,)`` count row per lifetime.
    """
    ns = _validated_grid(ns)
    _check_glitch_query(t, m, runs, g)
    jobs = resolve_jobs(jobs)
    roots = _point_seed_sequences(ns, seed, seeds)
    tasks = []
    for point, (n, root) in enumerate(zip(ns, roots)):
        for child in root.spawn(runs):
            tasks.append((point, spec, size_dist, n, t, m, child))
    rows: list[list[np.ndarray]] = [[] for _ in ns]
    for point, row in fan_out(_run_sweep_glitch_run, tasks, jobs):
        rows[point].append(row)
    return [PErrorEstimate.from_counts(
                n, t, m, g, np.stack(point_rows).astype(np.int64))
            for n, point_rows in zip(ns, rows)]
