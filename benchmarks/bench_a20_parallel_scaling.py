"""A20: parallel Monte-Carlo scaling and the memoized admission pipeline.

Four infrastructure claims behind the Figure 1 / Table 2 / §5
regeneration speed:

1. The chunk fan-out of :mod:`repro.parallel` is *bit-identical* across
   worker counts for a fixed seed.  The 2-worker process pool and the
   in-process ``jobs=1`` run are both timed (the comparison is
   informational: on a 1-core box the pool can only add overhead).
2. Sweeping Figure-1's per-``N`` grid through one shared pool
   (:func:`repro.parallel.sweep_p_late_parallel`) beats the serial
   point-by-point loop; the >= 2x assertion only fires on hosts with
   >= 4 cores (CI containers are often single-core; there the bench
   just records the measured ratio).
3. The process-wide bound cache collapses the Chernoff-optimisation
   count of an :class:`repro.core.AdmissionTable` build over a grid of
   tolerance thresholds >= 5x versus the uncached pipeline.
4. The persistent on-disk layer carries those optimisations across a
   *process restart*: a warm rebuild in a fresh interpreter performs
   zero new Chernoff solves (every probe is a disk hit).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.analysis import render_table
from repro.cache import CACHE_DIR_ENV, cache_disabled, cache_stats, clear_cache
from repro.core import AdmissionTable, GlitchModel, RoundServiceTimeModel
from repro.parallel import simulate_rounds_parallel, sweep_p_late_parallel

N = 28
T = 1.0
ROUNDS = 40_000
SEED = 424242
SWEEP_NS = (24, 26, 28, 30)
SWEEP_ROUNDS = 10_000

PLATE_THRESHOLDS = (0.001, 0.005, 0.01, 0.05, 0.10)
PERROR_THRESHOLDS = (0.0001, 0.001, 0.01, 0.05, 0.10)

#: Run by a fresh interpreter against a shared REPRO_CACHE_DIR: builds
#: the §5 table and reports how many Chernoff solves it needed.
_RESTART_SCRIPT = """\
import json
from repro.cache import cache_stats
from repro.core import AdmissionTable, GlitchModel, RoundServiceTimeModel
from repro.disk import quantum_viking_2_1
from repro.workload import paper_fragment_sizes

model = RoundServiceTimeModel.for_disk(quantum_viking_2_1(),
                                       paper_fragment_sizes())
table = AdmissionTable(GlitchModel(model, t=1.0), m=1200, g=12)
table.build(plate_thresholds=(0.001, 0.005, 0.01, 0.05, 0.10),
            perror_thresholds=(0.0001, 0.001, 0.01, 0.05, 0.10))
stats = cache_stats()
print(json.dumps({"misses": stats.misses, "disk_hits": stats.disk_hits,
                  "hits": stats.hits}))
"""


def _batches_equal(a, b):
    return (a.rounds == b.rounds and a.n == b.n
            and np.array_equal(a.service_times, b.service_times)
            and np.array_equal(a.seek_times, b.seek_times)
            and np.array_equal(a.first_seek_times, b.first_seek_times)
            and np.array_equal(a.glitches, b.glitches))


def _timed_rounds(spec, sizes, jobs):
    start = time.perf_counter()
    batch = simulate_rounds_parallel(spec, sizes, N, T, rounds=ROUNDS,
                                     seed=SEED, jobs=jobs)
    return batch, time.perf_counter() - start


def _timed_sweep(spec, sizes, jobs):
    start = time.perf_counter()
    ests = sweep_p_late_parallel(spec, sizes, SWEEP_NS, T,
                                 rounds=SWEEP_ROUNDS, seed=SEED,
                                 jobs=jobs)
    return ests, time.perf_counter() - start


def _optimisations(spec, sizes, *, cached):
    """Chernoff optimisations performed by one full AdmissionTable
    build (cache cleared first, so cached runs start cold)."""
    clear_cache()
    model = RoundServiceTimeModel.for_disk(spec, sizes)
    glitch = GlitchModel(model, t=T)
    table = AdmissionTable(glitch, m=1200, g=12)
    before = cache_stats()
    if cached:
        table.build(plate_thresholds=PLATE_THRESHOLDS,
                    perror_thresholds=PERROR_THRESHOLDS)
    else:
        with cache_disabled():
            table.build(plate_thresholds=PLATE_THRESHOLDS,
                        perror_thresholds=PERROR_THRESHOLDS)
    after = cache_stats()
    # Every cache miss and every uncached call runs one optimisation.
    work = ((after.misses - before.misses)
            + (after.uncached - before.uncached))
    return table.entries(), work


def _restart_build(cache_dir):
    """AdmissionTable build in a brand-new interpreter sharing only the
    on-disk cache; returns its solve/hit counters."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env[CACHE_DIR_ENV] = str(cache_dir)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _RESTART_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, f"restart build failed: {proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a20_parallel_scaling(benchmark, viking, paper_sizes, record,
                              record_json, tmp_path, monkeypatch):
    # 1. The 2-worker pool against the in-process run.
    batch_pool, pool_s = benchmark.pedantic(
        _timed_rounds, args=(viking, paper_sizes, 2),
        rounds=1, iterations=1)
    batch_serial, serial_s = _timed_rounds(viking, paper_sizes, 1)
    assert _batches_equal(batch_pool, batch_serial), (
        "fan-out must be bit-identical across jobs")

    # 2. Sweep-axis parallelism: whole N-grid through one pool.
    cores = os.cpu_count() or 1
    sweep_jobs = min(4, cores)
    ests_serial, sweep_serial_s = _timed_sweep(viking, paper_sizes, 1)
    ests_par, sweep_par_s = _timed_sweep(viking, paper_sizes, sweep_jobs)
    assert ests_serial == ests_par, (
        "sweep must be bit-identical across jobs")
    sweep_speedup = sweep_serial_s / sweep_par_s

    # 3. Memoized pipeline, in-process: persistent layer disabled so
    # the cold-build solve count is measured, not served from disk.
    monkeypatch.setenv("REPRO_PERSISTENT_CACHE", "0")
    entries_cached, work_cached = _optimisations(viking, paper_sizes,
                                                 cached=True)
    entries_uncached, work_uncached = _optimisations(viking, paper_sizes,
                                                     cached=False)
    monkeypatch.delenv("REPRO_PERSISTENT_CACHE")
    clear_cache()
    assert entries_cached == entries_uncached
    assert entries_cached["plate"][0.01] == 26
    assert entries_cached["perror"][0.01] == 28
    ratio = work_uncached / work_cached

    # 4. Persistent layer across a process restart: cold build solves,
    # warm rebuild in a NEW interpreter answers entirely from disk.
    store_dir = tmp_path / "restart-cache"
    cold = _restart_build(store_dir)
    warm = _restart_build(store_dir)
    assert cold["misses"] > 0 and cold["disk_hits"] == 0
    assert warm["misses"] == 0, (
        f"warm restart must need zero new Chernoff solves, "
        f"performed {warm['misses']}")
    assert warm["disk_hits"] > 0
    warm_hit_rate = warm["disk_hits"] / (warm["disk_hits"]
                                         + warm["misses"])

    rows = [
        ["p_late rounds", f"{ROUNDS}"],
        ["serial (jobs=1) [s]", f"{serial_s:.2f}"],
        ["process pool (jobs=2) [s]", f"{pool_s:.2f}"],
        ["bit-identical across jobs", "yes"],
        [f"sweep {list(SWEEP_NS)} serial [s]", f"{sweep_serial_s:.2f}"],
        [f"sweep parallel (jobs={sweep_jobs}) [s]",
         f"{sweep_par_s:.2f}"],
        ["sweep speedup", f"{sweep_speedup:.2f}x"],
        ["host cores", str(cores)],
        ["table build: optimisations (uncached)", str(work_uncached)],
        ["table build: optimisations (cached)", str(work_cached)],
        ["optimisation reduction", f"{ratio:.1f}x"],
        ["restart: cold solves", str(cold["misses"])],
        ["restart: warm solves", str(warm["misses"])],
        ["restart: warm disk hit-rate", f"{warm_hit_rate:.0%}"],
    ]
    record("a20_parallel_scaling", render_table(
        ["quantity", "value"], rows,
        title="A20: parallel Monte-Carlo scaling + bound-cache "
        "effectiveness (Table 1 disk, N=28, t=1s)"))
    record_json("a20_parallel_scaling", {
        "rounds": ROUNDS,
        "host_cores": cores,
        "wall_clock_s": {
            "serial": serial_s,
            "pool_jobs2": pool_s,
            "sweep_serial": sweep_serial_s,
            f"sweep_jobs{sweep_jobs}": sweep_par_s,
        },
        "pool_vs_serial_ratio": pool_s / serial_s,
        "sweep_speedup": sweep_speedup,
        "optimisation_reduction": ratio,
        "restart_cold_solves": cold["misses"],
        "restart_warm_solves": warm["misses"],
        "restart_warm_hit_rate": warm_hit_rate,
    })

    assert ratio >= 5.0, (
        f"cache must cut Chernoff optimisations >= 5x, got {ratio:.1f}x")
    if cores >= 4:
        assert sweep_speedup >= 2.0, (
            f"expected >= 2x sweep speedup at {sweep_jobs} workers, "
            f"got {sweep_speedup:.2f}x")
