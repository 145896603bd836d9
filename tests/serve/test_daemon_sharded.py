"""Serve hot path: batch admission edges, multi-thread invariants
under faults and snapshots, restore of a snapshot written by the
striped ledger, and the batch HTTP routes.

The daemon-level contract: whatever the interleaving of admits, batch
admits, releases, fault events and snapshot requests, ``active <=
capacity (+ debt)`` holds at every instant, the ticket ledger and the
counter always agree, and a snapshot written when the daemon striped
its ledger over eight shards restores bit-for-bit on the one-stripe
ledger.
"""

import json
import random
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import AdmissionError
from repro.serve import (ServeClient, ServeConfig, ServeDaemon,
                         ServeHandle)

#: Written by ``ServeDaemon.save_snapshot(clean=True)`` when the
#: daemon striped its ledger over eight shards; see
#: :class:`TestStripedLedgerSnapshot` for the run that produced it.
STRIPED_SNAPSHOT = Path(__file__).parent / "data" / "snapshot_shards8.json"


def make_daemon(tmp_path=None, **overrides):
    overrides.setdefault("disks", 2)
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

    def test_release_many_reports_unknown_tickets_as_missing(self):
        daemon = make_daemon()
        streams = daemon.admit_many(12)["streams"]
        result = daemon.release_many(streams[:6] + [99_999])
        assert result["released"] == streams[:6]
        assert result["missing"] == [99_999]
        assert result["active"] == 6

    def test_release_many_reports_a_repeated_ticket_as_missing(self):
        daemon = make_daemon()
        daemon.admit_many(2)
        result = daemon.release_many([0, 0, 1])
        assert result["released"] == [0, 1]
        assert result["missing"] == [0]
        assert result["active"] == 0
        assert daemon.registry.snapshot()[
            "serve_released_total"]["value"] == 2

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
        never exceed capacity + debt, no ticket is granted twice, and
        after the storm every admitted ticket is releasable with
        nothing left over."""
        daemon = make_daemon()
        stop = threading.Event()
        failures = []
        granted = []

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
                            granted.extend(got["streams"])
                        except AdmissionError:
                            pass
                    elif roll < 0.6:
                        try:
                            mine.append(daemon.admit()["stream"])
                            granted.append(mine[-1])
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
        interval = sys.getswitchinterval()
        # Switch threads often, so an unlocked read-modify-write of the
        # ticket counter or the ledger would lose updates.
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            threading.Event().wait(0.4)
        finally:
            stop.set()
            for thread in pool:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert not failures, failures
        assert len(set(granted)) == len(granted)  # no ticket twice
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

    def test_default_daemon_runs_one_stripe(self):
        daemon = make_daemon()
        assert daemon.controller.shards == 1
        tickets = [daemon.admit()["stream"] for _ in range(56)]
        assert tickets == list(range(56))
        with pytest.raises(AdmissionError):
            daemon.admit()
        daemon.fault("disk_fail", 0)
        assert daemon.controller.active == daemon.controller.capacity
        daemon.fault("disk_recover", 0)
        assert daemon.controller.active == 56


class TestStripedLedgerSnapshot:
    """The committed snapshot was written by a daemon that striped its
    ledger over eight shards (``disks=2``, adaptive), after
    ``admit_many(40)``, 16 single admits, ``release(3)``,
    ``release_many([10, 11])``, ``disk_fail`` on disk 0,
    ``slow_disk`` 1.2 on disk 1 and five ``tick_round`` calls."""

    def test_restores_bit_for_bit_and_releases_every_ticket(
            self, tmp_path):
        document = json.loads(STRIPED_SNAPSHOT.read_text())
        shutil.copyfile(STRIPED_SNAPSHOT,
                        tmp_path / "serve.snapshot.json")
        daemon = make_daemon(tmp_path, adaptive=True)
        assert daemon.state()["restored"] is True

        after = daemon.snapshot_payload(clean=True)
        for key in ("kind", "version", "written_at"):
            document.pop(key)
        after.pop("written_at")
        assert after == document
        streams = document["ledger"]["streams"]
        assert daemon.controller.active == len(streams) > 0
        # The restored ledger is releasable ticket-for-ticket.
        result = daemon.release_many(daemon.state()["streams"])
        assert result["released"] == streams
        assert result["missing"] == []
        assert daemon.controller.active == 0


class TestShardObservability:
    def test_control_state_reports_shards(self):
        daemon = make_daemon()
        daemon.admit_many(8)
        shards = daemon.control_state()["shards"]
        assert set(shards) == {"epoch", "debt", "rebalances"}
        assert shards["epoch"] >= 0
        assert shards["debt"] == 0

    def test_admission_gauges_exported(self):
        daemon = make_daemon()
        daemon.admit_many(10)
        daemon.refresh_export_metrics()
        text = daemon.registry.to_prometheus()
        assert "serve_admission_epoch" in text
        assert "serve_admission_rebalances" in text
        assert "serve_active_streams 10" in text
        names = {line.split("{")[0].split()[0]
                 for line in text.splitlines()
                 if line and not line.startswith("#")}
        assert not [name for name in names if "shard" in name]

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
    daemon = ServeDaemon(ServeConfig(disks=2))
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
