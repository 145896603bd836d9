"""Sharded serve hot path: batch admission edges, multi-thread
invariants under faults and snapshots, shard-count-independent
restore, and the batch HTTP routes.

The daemon-level contract: whatever the stripe count and whatever the
interleaving of admits, batch admits, releases, fault events and
snapshot requests, ``active <= capacity (+ debt)`` holds at every
instant, the ticket ledger and the counter always agree, and a
snapshot taken under one shard count restores bit-for-bit under any
other.
"""

import random
import threading

import pytest

from repro.errors import AdmissionError
from repro.serve import (ServeClient, ServeConfig, ServeDaemon,
                         ServeHandle)


def make_daemon(tmp_path=None, **overrides):
    overrides.setdefault("disks", 2)
    overrides.setdefault("shards", 8)
    if tmp_path is not None:
        overrides.setdefault(
            "snapshot_path", str(tmp_path / "serve.snapshot.json"))
    return ServeDaemon(ServeConfig(**overrides))


class TestBatchEdges:
    def test_batch_grants_contiguous_tickets(self):
        daemon = make_daemon()
        result = daemon.admit_many(10)
        assert result["granted"] == 10
        assert result["streams"] == list(range(10))
        assert result["active"] == 10

    def test_partial_grant_when_k_exceeds_remaining(self):
        daemon = make_daemon()
        capacity = daemon.controller.capacity
        daemon.admit_many(capacity - 3)
        result = daemon.admit_many(10)
        assert result["requested"] == 10
        assert result["granted"] == 3
        assert daemon.controller.active == capacity
        assert daemon.registry.snapshot()[
            "serve_rejected_total"]["value"] == 7

    def test_zero_count_is_a_probe(self):
        daemon = make_daemon()
        result = daemon.admit_many(0)
        assert result["granted"] == 0 and result["streams"] == []
        assert daemon.controller.requests == 0

    def test_batch_at_capacity_raises(self):
        daemon = make_daemon()
        daemon.admit_many(daemon.controller.capacity)
        with pytest.raises(AdmissionError):
            daemon.admit_many(5)
        assert daemon.registry.snapshot()[
            "serve_rejected_total"]["value"] == 5

    def test_degraded_mid_batch_respects_the_new_limit(self):
        """A disk fails between two batches: the next batch grants
        only up to the degraded capacity."""
        daemon = make_daemon()
        daemon.admit_many(20)
        daemon.fault("disk_fail", 0)
        degraded_capacity = daemon.controller.capacity
        live = daemon.controller.active
        assert live <= degraded_capacity
        room = degraded_capacity - live
        result = daemon.admit_many(room + 8)
        assert result["granted"] == room
        assert daemon.controller.active == degraded_capacity
        daemon.fault("disk_recover", 0)

    def test_release_many_groups_by_shard(self):
        daemon = make_daemon()
        streams = daemon.admit_many(12)["streams"]
        result = daemon.release_many(streams[:6] + [99_999])
        assert result["released"] == streams[:6]
        assert result["missing"] == [99_999]
        assert result["active"] == 6

    def test_ledger_and_counter_agree_after_batches(self):
        daemon = make_daemon()
        daemon.admit_many(17)
        daemon.release_many(list(range(0, 17, 2)))
        state = daemon.state()
        assert len(state["streams"]) == state["controller"]["active"]
        assert state["streams"] == sorted(state["streams"])


class TestShardStress:
    def test_storm_never_overshoots_and_drains_clean(self):
        """8 churner threads (mixed single/batch admits and releases)
        race a fault flipper and a snapshotter; the live count may
        never exceed capacity + debt, and after the storm every
        admitted ticket is releasable with nothing left over."""
        daemon = make_daemon(shards=8)
        stop = threading.Event()
        failures = []

        def churner(seed):
            rng = random.Random(seed)
            mine = []
            try:
                while not stop.is_set():
                    roll = rng.random()
                    if roll < 0.45:
                        try:
                            got = daemon.admit_many(rng.randint(1, 6))
                            mine.extend(got["streams"])
                        except AdmissionError:
                            pass
                    elif roll < 0.6:
                        try:
                            mine.append(daemon.admit()["stream"])
                        except AdmissionError:
                            pass
                    elif mine:
                        take = [mine.pop() for _ in
                                range(min(len(mine),
                                          rng.randint(1, 4)))]
                        daemon.release_many(take)
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        def flipper():
            toggle = True
            try:
                while not stop.is_set():
                    daemon.fault("disk_fail" if toggle
                                 else "disk_recover", 0)
                    toggle = not toggle
                    snap = daemon.controller.snapshot()
                    assert snap["active"] <= (snap["capacity"]
                                              + snap["debt"])
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        def snapshotter():
            try:
                while not stop.is_set():
                    payload = daemon.snapshot_payload()
                    streams = payload["ledger"]["streams"]
                    assert streams == sorted(streams)
                    assert len(set(streams)) == len(streams)
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        pool = [threading.Thread(target=churner, args=(seed,))
                for seed in range(8)]
        pool.append(threading.Thread(target=flipper))
        pool.append(threading.Thread(target=snapshotter))
        for thread in pool:
            thread.start()
        threading.Event().wait(0.4)
        stop.set()
        for thread in pool:
            thread.join()
        assert not failures, failures
        daemon.fault("disk_recover", 0)
        # Zero leaks: the ledger lists exactly the active tickets and
        # releasing them all leaves an empty daemon.
        state = daemon.state()
        assert len(state["streams"]) == state["controller"]["active"]
        result = daemon.release_many(state["streams"])
        assert result["missing"] == []
        assert daemon.controller.active == 0
        assert daemon.state()["streams"] == []
        snap = daemon.controller.snapshot()
        assert sum(snap["shard_limit"]) == (snap["capacity"]
                                            + snap["debt"])

    def test_single_shard_behaves_like_legacy(self):
        daemon = make_daemon(shards=1)
        assert daemon.controller.shards == 1
        tickets = [daemon.admit()["stream"] for _ in range(56)]
        assert tickets == list(range(56))
        with pytest.raises(AdmissionError):
            daemon.admit()
        daemon.fault("disk_fail", 0)
        assert daemon.controller.active == daemon.controller.capacity
        daemon.fault("disk_recover", 0)
        assert daemon.controller.active == 56


class TestShardCountIndependentSnapshots:
    def _exercise(self, daemon):
        daemon.admit_many(40)
        for _ in range(16):
            daemon.admit()
        daemon.release(3)
        daemon.release_many([10, 11])
        daemon.fault("disk_fail", 0)
        daemon.fault("slow_disk", 1, factor=1.2)
        for _ in range(5):
            daemon.tick_round()

    @pytest.mark.parametrize("restore_shards", [1, 3, 8, 32])
    def test_restore_is_bit_for_bit_across_shard_counts(
            self, tmp_path, restore_shards):
        first = make_daemon(tmp_path, shards=8, adaptive=True)
        self._exercise(first)
        first.save_snapshot(clean=True)
        before = first.snapshot_payload(clean=True)

        second = make_daemon(tmp_path, shards=restore_shards,
                             adaptive=True)
        after = second.snapshot_payload(clean=True)
        before.pop("written_at"), after.pop("written_at")
        assert after == before
        assert second.state()["restored"] is True
        assert second.controller.active == first.controller.active
        assert second.controller.shards == restore_shards
        # The restored ledger is releasable ticket-for-ticket.
        state = second.state()
        result = second.release_many(state["streams"])
        assert result["missing"] == []
        assert second.controller.active == 0


class TestShardObservability:
    def test_control_state_reports_shards(self):
        daemon = make_daemon(shards=4)
        daemon.admit_many(8)
        shards = daemon.control_state()["shards"]
        assert shards["count"] == 4
        assert shards["epoch"] >= 0
        assert shards["debt"] == 0
        assert "rebalances" in shards

    def test_per_shard_gauges_exported(self):
        daemon = make_daemon(shards=4)
        daemon.admit_many(10)
        daemon.refresh_export_metrics()
        text = daemon.registry.to_prometheus()
        assert 'serve_shard_active{shard="0"}' in text
        assert 'serve_shard_limit{shard="3"}' in text
        assert "serve_shards 4" in text
        assert "serve_admission_epoch" in text
        assert "serve_admission_rebalances" in text

    def test_batch_size_histogram_observes(self):
        daemon = make_daemon()
        daemon.admit_many(24)
        hist = daemon.registry.histogram("serve_admit_batch_size")
        assert hist.count >= 1


@pytest.fixture(autouse=True)
def no_thread_leaks():
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate()
              if t not in before and t.is_alive()]
    assert not leaked, f"leaked threads: {[t.name for t in leaked]}"


@pytest.fixture
def served_sharded():
    daemon = ServeDaemon(ServeConfig(disks=2, shards=4))
    handle = ServeHandle(daemon)
    handle.start()
    client = ServeClient(handle.url)
    try:
        yield handle, client
    finally:
        client.close()
        handle.stop()


class TestBatchRoutes:
    def test_admit_batch_roundtrip(self, served_sharded):
        _handle, client = served_sharded
        result = client.admit_many(20, batch=8)
        assert result["granted"] == 20
        assert result["streams"] == list(range(20))
        assert result["admitted"] is True

    def test_admit_batch_partial_then_reject(self, served_sharded):
        handle, client = served_sharded
        capacity = handle.daemon.controller.capacity
        client.admit_many(capacity - 5, batch=32)
        result = client.admit_many(16, batch=16)
        assert result["granted"] == 5
        assert handle.daemon.controller.active == capacity
        rejected = client.admit_many(4)
        assert rejected["granted"] == 0
        assert rejected["admitted"] is False

    def test_release_batch_roundtrip(self, served_sharded):
        _handle, client = served_sharded
        streams = client.admit_many(12, batch=4)["streams"]
        result = client.release_many(streams + [424242], batch=5)
        assert result["released"] == streams
        assert result["missing"] == [424242]
        assert result["active"] == 0

    def test_batch_count_validation_over_http(self, served_sharded):
        _handle, client = served_sharded
        status, data = client._json("POST", "/admit/batch",
                                    {"count": "many"})
        assert status == 400 and "error" in data
        status, data = client._json("POST", "/release/batch",
                                    {"streams": "nope"})
        assert status == 400 and "error" in data

    def test_cached_reject_bytes_are_stable(self, served_sharded):
        handle, client = served_sharded
        client.admit_many(handle.daemon.controller.capacity,
                          batch=64)
        first = client._request("POST", "/admit")
        second = client._request("POST", "/admit")
        assert first[0] == second[0] == 409
        assert first[1] == second[1]  # served from the cached bytes

    def test_keep_alive_reuses_the_socket(self, served_sharded):
        """One client thread, many requests: the daemon sees a single
        connection (thread-per-connection server, so the handler
        thread census is the tell)."""
        handle, client = served_sharded
        before = threading.active_count()
        for _ in range(5):
            client.healthz()
        assert threading.active_count() <= before + 1

    def test_sharded_http_storm_exact_capacity(self, served_sharded):
        handle, client = served_sharded
        capacity = handle.daemon.controller.capacity
        granted = []
        lock = threading.Lock()

        def worker():
            with ServeClient(handle.url) as mine:
                result = mine.admit_many(10, batch=5)
                with lock:
                    granted.extend(result["streams"])

        pool = [threading.Thread(target=worker) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(granted) == min(capacity, 80)
        assert len(set(granted)) == len(granted)  # no double grants
        assert handle.daemon.controller.active == len(granted)
