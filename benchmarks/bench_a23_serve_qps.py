"""A23: live daemon -- warm-start table build and admission QPS.

The ``repro serve`` daemon answers admissions from a precomputed
:class:`~repro.core.admission.AdmissionTable`, so its startup cost is
the bound solve and its steady-state cost is lock + ledger bookkeeping
per HTTP request.  This bench pins both ends:

* **cold vs warm build** -- construct the daemon ``COLD_BUILDS`` times,
  each from an empty in-process cache and an empty persistent store
  (every Chernoff bound solved from scratch), then ``WARM_BUILDS`` more
  times in the same process, where every bound is a cache hit, so that
  a warm build costs only the daemon's own construction (model, table
  bookkeeping, distributions).  The ratio of the median cold to the
  median warm build is the gated ``speedup`` metric
  (machine-independent, so the committed baseline is meaningful across
  runners); medians keep one slow millisecond from moving it.
* **admission QPS** -- client threads hammer ``POST /admit`` +
  ``/release`` over real sockets, once against a healthy farm and once
  through a fault storm (a flipper thread injecting
  ``disk_fail``/``disk_recover`` while the clients churn).  The storm
  run asserts the daemon stays consistent under concurrent shedding.

``REPRO_BENCH_SMOKE=1`` shrinks the measurement windows so the CI
regression leg finishes in seconds.
"""

import os
import statistics
import threading
import time

from repro import cache as cache_mod
from repro.analysis import render_table
from repro.errors import ConfigurationError
from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeHandle

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
CLIENTS = 4 if SMOKE else 8
WINDOW_S = 0.4 if SMOKE else 1.5
STORM_PERIOD_S = 0.02
#: The warm build answers every bound from the caches; even in smoke
#: windows it must beat the cold solve comfortably.
MIN_SPEEDUP = 3.0
COLD_BUILDS = 3
WARM_BUILDS = 5


def _build_cold_then_warm(tmp_dir):
    """``COLD_BUILDS`` daemons, each from empty caches, then
    ``WARM_BUILDS`` on the populated ones; returns the cold and warm
    build times and the last daemon.  The session store is restored
    afterwards."""
    cold = []
    try:
        for i in range(COLD_BUILDS):
            cache_mod.clear_cache()
            cache_mod.set_persistent_cache_dir(tmp_dir / f"cold-{i}")
            cold.append(ServeDaemon(ServeConfig(disks=2)).build_seconds)
        warm = [ServeDaemon(ServeConfig(disks=2))
                for _ in range(WARM_BUILDS)]
    finally:
        cache_mod.set_persistent_cache_dir(
            os.environ[cache_mod.CACHE_DIR_ENV])
    return cold, [daemon.build_seconds for daemon in warm], warm[-1]


def _drive_clients(url, window_s, stop_storm=None):
    """Run ``CLIENTS`` admit/release churners for ``window_s`` seconds;
    returns (admitted, attempts, elapsed)."""
    stop = threading.Event()
    counts = [0] * CLIENTS
    attempts = [0] * CLIENTS

    def churn(idx):
        client = ServeClient(url)
        while not stop.is_set():
            attempts[idx] += 1
            result = client.admit()
            if not result["admitted"]:
                continue
            counts[idx] += 1
            try:
                client.release(result["stream"])
            except ConfigurationError:
                pass  # ticket shed by the storm between admit and release

    pool = [threading.Thread(target=churn, args=(idx,))
            for idx in range(CLIENTS)]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    time.sleep(window_s)
    stop.set()
    if stop_storm is not None:
        stop_storm.set()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    return sum(counts), sum(attempts), elapsed


def run_serve_bench(tmp_dir):
    """Cold/warm builds, then steady and storm QPS windows."""
    cold, warm, daemon = _build_cold_then_warm(tmp_dir)
    cold_s, warm_s = statistics.median(cold), statistics.median(warm)

    with ServeHandle(daemon) as handle:
        admitted, attempts, elapsed = _drive_clients(handle.url, WINDOW_S)
        steady_qps = admitted / elapsed

        storm_stop = threading.Event()

        def storm():
            client = ServeClient(handle.url)
            while not storm_stop.is_set():
                client.fault("disk_fail", 0)
                time.sleep(STORM_PERIOD_S)
                client.fault("disk_recover", 0)
                time.sleep(STORM_PERIOD_S)

        flipper = threading.Thread(target=storm)
        flipper.start()
        storm_admitted, storm_attempts, storm_elapsed = _drive_clients(
            handle.url, WINDOW_S, stop_storm=storm_stop)
        flipper.join()
        storm_qps = storm_admitted / storm_elapsed

        # Settle and check the ledger survived the storm intact.
        client = ServeClient(handle.url)
        client.fault("disk_recover", 0)
        state = client.state()
        consistent = (not state["controller"]["degraded"]
                      and 0 <= state["controller"]["active"]
                      <= state["controller"]["capacity"])
    return {
        "cold_build_s": cold_s,
        "warm_build_s": warm_s,
        "speedup": cold_s / warm_s,
        "cold_builds_s": cold,
        "warm_builds_s": warm,
        "steady_qps": steady_qps,
        "steady_admitted": admitted,
        "steady_attempts": attempts,
        "storm_qps": storm_qps,
        "storm_admitted": storm_admitted,
        "storm_attempts": storm_attempts,
        "consistent_after_storm": consistent,
    }


def test_a23_serve_qps(benchmark, tmp_path, record, record_json):
    stats = benchmark.pedantic(run_serve_bench, args=(tmp_path,),
                               rounds=1, iterations=1)

    rows = [
        [f"table build, median of {COLD_BUILDS} / {WARM_BUILDS} [ms]",
         f"{stats['cold_build_s'] * 1e3:.1f}",
         f"{stats['warm_build_s'] * 1e3:.1f}"],
        ["warm-start speedup", "1x", f"{stats['speedup']:.1f}x"],
        ["admissions/sec", f"{stats['steady_qps']:.0f}",
         f"{stats['storm_qps']:.0f}"],
        ["admitted / attempts",
         f"{stats['steady_admitted']}/{stats['steady_attempts']}",
         f"{stats['storm_admitted']}/{stats['storm_attempts']}"],
        ["consistent after storm", "-",
         "yes" if stats["consistent_after_storm"] else "NO"],
    ]
    record("a23_serve_qps", render_table(
        ["quantity", "cold / steady", "warm / storm"], rows,
        title=f"A23: repro serve warm start and admission QPS "
        f"({CLIENTS} clients{', smoke' if SMOKE else ''})"))
    record_json("a23_serve_qps", {
        "smoke": SMOKE,
        "clients": CLIENTS,
        "window_s": WINDOW_S,
        **stats,
    })

    assert stats["speedup"] >= MIN_SPEEDUP, (
        f"warm-start build only {stats['speedup']:.1f}x faster than "
        f"cold (floor {MIN_SPEEDUP}x)")
    # The daemon must actually answer load, healthy and degraded alike.
    assert stats["steady_admitted"] > 0
    assert stats["storm_admitted"] > 0
    assert stats["consistent_after_storm"]
