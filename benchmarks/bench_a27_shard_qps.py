"""A27: sharded, batched admission vs the single-lock controller.

``ShardedAdmissionController`` stripes the counter over S shards with
their own locks and limit slices, and adds a batch API that grants k
tickets under a single shard-lock acquisition (one span, one
bookkeeping pass).  This bench measures both at the controller level
-- no sockets, so what is measured is exactly the admission
bookkeeping:

* **legacy** -- ``AdmissionController``: per-ticket admit/release,
  every operation through the one lock;
* **sharded** -- ``ShardedAdmissionController``: per-thread home
  stripe, ``admit_batch`` in chunks of k, one ``release_on`` per
  batch.

The gated ``speedup`` metric is 8-stripe throughput at 8 threads /
batch 16 (``ServeClient.admit_many``'s default batch) over legacy
per-ticket throughput at the same 8 threads.  The matrix over threads
x batch sizes is emitted for sensitivity, not gated.  The serve daemon
itself runs one stripe (``docs/PERFORMANCE.md``, "Why one stripe"), so
this bench is where stripes are measured.

``REPRO_BENCH_SMOKE=1`` shrinks the measurement windows so the CI
regression leg finishes in seconds.
"""

import os
import threading
import time

from repro.analysis import render_table
from repro.errors import AdmissionError
from repro.server import AdmissionController, ShardedAdmissionController

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
WINDOW_S = 0.12 if SMOKE else 0.6
THREAD_COUNTS = (1, 2, 4, 8)
BATCH_SIZES = (1, 4, 16, 64)
GATE_THREADS = 8
GATE_BATCH = 16
#: The batch path retires >= this many tickets per unit of legacy
#: per-ticket work at the gate point (8 threads, batch 16).
MIN_SPEEDUP = 3.0

N_MAX = 28
DISKS = 8  # capacity 224: far above the in-flight count per worker


def _window(worker, threads):
    """Run ``threads`` copies of ``worker(stop, idx) -> tickets`` for
    ``WINDOW_S`` seconds; returns tickets/second."""
    stop = threading.Event()
    counts = [0] * threads

    def run(idx):
        counts[idx] = worker(stop, idx)

    pool = [threading.Thread(target=run, args=(idx,))
            for idx in range(threads)]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    time.sleep(WINDOW_S)
    stop.set()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    return sum(counts) / elapsed


def legacy_qps(threads):
    """Per-ticket admit/release through the single lock."""
    controller = AdmissionController(N_MAX, disks=DISKS)

    def worker(stop, _idx):
        tickets = 0
        while not stop.is_set():
            try:
                controller.admit()
            except AdmissionError:
                continue
            controller.release()
            tickets += 1
        return tickets

    return _window(worker, threads)


def sharded_qps(threads, batch):
    """Batched admits on the per-thread home stripe; one lock
    acquisition per k-ticket grant and one per k-ticket release."""
    controller = ShardedAdmissionController(N_MAX, disks=DISKS,
                                            shards=8)

    def worker(stop, idx):
        tickets = 0
        home = idx % controller.shards
        while not stop.is_set():
            try:
                granted = controller.admit_batch(batch, shard=home)
            except AdmissionError:
                continue
            controller.release_on(home,
                                  on_release=lambda: granted)
            tickets += granted
        return tickets

    return _window(worker, threads)


def run_shard_bench():
    legacy = {threads: legacy_qps(threads)
              for threads in THREAD_COUNTS}
    sharded = {(threads, batch): sharded_qps(threads, batch)
               for threads in THREAD_COUNTS
               for batch in BATCH_SIZES}
    gate = sharded[(GATE_THREADS, GATE_BATCH)]
    speedup = gate / legacy[GATE_THREADS]
    return {
        "legacy_qps": {str(t): q for t, q in legacy.items()},
        "sharded_qps": {f"{t}x{b}": q
                        for (t, b), q in sharded.items()},
        "gate_qps": gate,
        "gate_legacy_qps": legacy[GATE_THREADS],
        "speedup": speedup,
    }


def test_a27_shard_qps(benchmark, record, record_json):
    stats = benchmark.pedantic(run_shard_bench, rounds=1,
                               iterations=1)

    rows = [[f"{threads} thread(s)",
             f"{stats['legacy_qps'][str(threads)]:.0f}"]
            + [f"{stats['sharded_qps'][f'{threads}x{batch}']:.0f}"
               for batch in BATCH_SIZES]
            for threads in THREAD_COUNTS]
    rows.append(["gated speedup (8t, batch 16)",
                 "1x", "", "", f"{stats['speedup']:.1f}x", ""])
    record("a27_shard_qps", render_table(
        ["admissions/sec", "legacy"]
        + [f"batch {batch}" for batch in BATCH_SIZES], rows,
        title=f"A27: sharded batch admission vs single lock"
        f"{' (smoke)' if SMOKE else ''}"))
    record_json("a27_shard_qps", {
        "smoke": SMOKE,
        "window_s": WINDOW_S,
        "shards": 8,
        "gate_threads": GATE_THREADS,
        "gate_batch": GATE_BATCH,
        **stats,
    })

    assert stats["speedup"] >= MIN_SPEEDUP, (
        f"sharded batch admission only {stats['speedup']:.1f}x the "
        f"single-lock path at {GATE_THREADS} threads / batch "
        f"{GATE_BATCH} (floor {MIN_SPEEDUP}x)")
    # Batching must help monotonically enough to justify the API:
    # batch 16 beats per-ticket sharded at the gate thread count.
    assert (stats["sharded_qps"][f"{GATE_THREADS}x16"]
            > stats["sharded_qps"][f"{GATE_THREADS}x1"])
