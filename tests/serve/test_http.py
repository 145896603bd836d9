"""HTTP layer tests: routes, concurrency over real sockets, fault
replay, metrics exposition and clean shutdown.

Every test binds an ephemeral loopback port (``port=0``) and must
leave no thread behind -- the module-level fixture asserts the thread
census is unchanged after each test, which is the contract the CI
smoke leg (and ``-W error::ResourceWarning``) relies on.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.serve import (FaultFeed, ServeClient, ServeConfig,
                         ServeDaemon, ServeHandle)
from repro.server.faults import FaultSchedule, disk_fail, disk_recover


@pytest.fixture(autouse=True)
def no_thread_leaks():
    """Every test must return the process to its starting thread set."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate()
              if t not in before and t.is_alive()]
    assert not leaked, f"leaked threads: {[t.name for t in leaked]}"


@pytest.fixture
def served():
    """A running daemon on an ephemeral port, stopped afterwards."""
    daemon = ServeDaemon(ServeConfig(disks=2))
    handle = ServeHandle(daemon)
    handle.start()
    try:
        yield handle, ServeClient(handle.url)
    finally:
        handle.stop()


class TestRoutes:
    def test_admit_release_roundtrip(self, served):
        _handle, client = served
        first = client.admit()
        assert first["admitted"] and first["stream"] == 0
        assert client.release(first["stream"])["active"] == 0

    def test_reject_is_409_not_an_error(self, served):
        handle, client = served
        capacity = handle.daemon.controller.capacity
        assert client.admit_until_reject() == capacity
        rejected = client.admit()
        assert rejected["admitted"] is False
        assert "denied" in rejected["error"]

    def test_healthz_and_state(self, served):
        _handle, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["capacity"] == 56
        state = client.state()
        assert state["controller"]["disks"] == 2
        assert state["policy"]["mode"] == "pause"

    def test_unknown_routes_404(self, served):
        _handle, client = served
        status, data = client._json("GET", "/nope")
        assert status == 404 and "no route" in data["error"]
        status, _data = client._json("POST", "/nope")
        assert status == 404

    def test_malformed_bodies_400(self, served):
        handle, _client = served
        request = urllib.request.Request(
            handle.url + "/fault", data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5.0)
        assert err.value.code == 400
        err.value.close()
        status, data = ServeClient(handle.url)._json(
            "POST", "/fault", {})
        assert status == 400 and "kind" in data["error"]

    def test_fault_over_http_sheds_live(self, served):
        handle, client = served
        client.admit_until_reject()
        result = client.fault("disk_fail", 0)
        assert result["shed"] == 30 and result["active"] == 26
        assert client.healthz()["status"] == "degraded"
        assert client.fault("disk_recover", 0)["resumed"] == 30
        assert client.healthz()["status"] == "ok"
        assert handle.daemon.controller.active == 56

    def test_metrics_exposition_scrapes(self, served):
        _handle, client = served
        client.admit()
        text = client.metrics()
        lines = text.splitlines()
        assert "# TYPE serve_admitted_total counter" in lines
        assert "# HELP serve_admitted_total Streams admitted by the " \
            "daemon" in lines
        assert "serve_admitted_total 1" in lines
        assert any(line.startswith("serve_admit_seconds_bucket")
                   for line in lines)
        assert 'serve_requests_total{op="admit"} 1' in lines

    def test_metrics_content_type(self, served):
        handle, _client = served
        with urllib.request.urlopen(handle.url + "/metrics",
                                    timeout=5.0) as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")


def _raw_post(handle, path, body: bytes, length: str | None = None):
    """POST with a hand-set Content-Length; returns (response, JSON)."""
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=5.0)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length",
                       str(len(body)) if length is None else length)
        conn.endheaders(body)
        reply = conn.getresponse()
        return reply, json.loads(reply.read())
    finally:
        conn.close()


class TestMalformedInput:
    """Hostile fields get a 400 with a JSON error -- never a dropped
    connection or a handler traceback -- and the daemon keeps serving."""

    @pytest.mark.parametrize("path, body", [
        ("/fault", b'{"kind": "disk_fail", "disk": "x"}'),
        ("/fault", b'{"kind": "slow_disk", "disk": 0, "factor": "fast"}'),
        ("/fault", b'{"kind": "disk_fail", "disk": 1e400}'),
        ("/fault", b'{"kind": "disk_fail", "disk": null}'),
        ("/release", b'{"stream": "x"}'),
        ("/release", b'{"stream": [1]}'),
        ("/release/batch", b'{"streams": [1e400]}'),
        ("/admit/batch", b'{"count": "many"}'),
    ])
    def test_bad_field_is_400(self, served, capfd, path, body):
        handle, client = served
        reply, data = _raw_post(handle, path, body)
        assert reply.status == 400
        assert "must be" in data["error"]
        assert not reply.will_close  # framing was fine: keep-alive holds
        assert client.admit()["admitted"]
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("length, message", [
        ("abc", "Content-Length"), ("-5", "Content-Length"),
        ("1.5", "Content-Length"), ("", "Content-Length"),
        (str(10**6), "too large"),
    ])
    def test_bad_content_length_is_400_and_closes(self, served, capfd,
                                                  length, message):
        handle, client = served
        reply, data = _raw_post(handle, "/admit", b"{}", length=length)
        assert reply.status == 400
        assert message in data["error"]
        # The body's extent is unknown, so the connection is dropped
        # after the answer rather than parsed as a next request.
        assert reply.will_close
        assert reply.getheader("Connection") == "close"
        assert handle.daemon.controller.active == 0
        assert client.admit()["admitted"]
        assert client.healthz()["status"] == "ok"
        assert capfd.readouterr().err == ""


class TestConcurrentClients:
    def test_racing_http_admits_never_overshoot(self, served):
        """20 threads hammer POST /admit over real sockets; the locked
        controller admits exactly ``capacity`` of them."""
        handle, _client = served
        capacity = handle.daemon.controller.capacity
        threads = 20
        per_thread = 4
        barrier = threading.Barrier(threads)
        outcomes = []

        def worker():
            client = ServeClient(handle.url)
            barrier.wait()
            for _ in range(per_thread):
                outcomes.append(client.admit()["admitted"])

        pool = [threading.Thread(target=worker)
                for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert sum(outcomes) == capacity
        assert outcomes.count(False) == threads * per_thread - capacity
        assert handle.daemon.controller.active == capacity


class TestFaultFeed:
    def test_schedule_replay_applies_in_order(self, served):
        handle, client = served
        client.admit_until_reject()
        schedule = FaultSchedule([disk_fail(0.02, 0),
                                  disk_recover(0.06, 0)])
        feed = FaultFeed(handle.daemon, schedule, time_scale=1.0)
        feed.start()
        feed.join(timeout=5.0)
        feed.stop()
        assert feed.applied == 2
        assert not handle.daemon.controller.degraded
        assert handle.daemon.controller.active == 56
        snapshot = handle.daemon.registry.snapshot()
        assert snapshot["serve_shed_total"]["value"] == 30
        assert snapshot["serve_resumed_total"]["value"] == 30

    def test_stop_cancels_pending_events(self, served):
        handle, _client = served
        schedule = FaultSchedule([disk_fail(60.0, 0)])
        feed = FaultFeed(handle.daemon, schedule).start()
        feed.stop()
        assert feed.applied == 0
        assert not handle.daemon.controller.degraded

    def test_time_scale_validation(self, served):
        handle, _client = served
        with pytest.raises(ConfigurationError):
            FaultFeed(handle.daemon, FaultSchedule([disk_fail(1.0, 0)]),
                      time_scale=0.0)


class TestLifecycle:
    def test_context_manager_cleans_up(self):
        daemon = ServeDaemon(ServeConfig(disks=2))
        with ServeHandle(daemon) as handle:
            assert ServeClient(handle.url).healthz()["status"] == "ok"
        # Port is released: a fresh handle can bind and serve again.
        with ServeHandle(daemon) as handle2:
            assert ServeClient(handle2.url).healthz()["status"] == "ok"

    def test_stop_is_idempotent(self):
        handle = ServeHandle(ServeDaemon(ServeConfig(disks=2)))
        handle.start()
        handle.stop()
        handle.stop()

    def test_double_start_rejected(self):
        handle = ServeHandle(ServeDaemon(ServeConfig(disks=2)))
        handle.start()
        try:
            with pytest.raises(ConfigurationError):
                handle.start()
        finally:
            handle.stop()

    def test_client_url_validation(self):
        with pytest.raises(ConfigurationError):
            ServeClient("ftp://nope")


class TestControlPlaneRoutes:
    def test_control_view_over_http(self, served):
        _handle, client = served
        control = client.control()
        assert control["adaptive"] is False
        assert control["healthy_n_max"] == 28
        assert control["window"]["rounds"] == 0
        assert control["snapshot"]["path"] is None

    def test_snapshot_route_requires_a_path(self, served):
        _handle, client = served
        with pytest.raises(ConfigurationError,
                           match="no --snapshot-path"):
            client.snapshot()

    def test_snapshot_route_persists(self, tmp_path):
        path = tmp_path / "snap.json"
        daemon = ServeDaemon(ServeConfig(disks=2,
                                         snapshot_path=str(path)))
        with ServeHandle(daemon) as handle:
            client = ServeClient(handle.url)
            client.admit()
            written = client.snapshot()["written"]
        assert written == str(path)
        assert path.exists()

    def test_slow_disk_factor_over_http(self, served):
        _handle, client = served
        result = client.fault("slow_disk", 1, factor=1.4)
        assert result["applied"] is True and result["factor"] == 1.4
        assert client.state()["slow_disks"] == {"1": 1.4}


class TestGracefulShutdown:
    def test_attached_feed_dies_with_the_handle(self):
        """Regression: a FaultFeed sleeping towards a far-future event
        used to outlive ServeHandle.stop() -- attach() guarantees the
        feed is stopped (and joined) before the server."""
        daemon = ServeDaemon(ServeConfig(disks=2))
        handle = ServeHandle(daemon).start()
        schedule = FaultSchedule([disk_fail(3600.0, 0)])
        feed = FaultFeed(daemon, schedule).start()
        handle.attach(feed)
        handle.stop()  # must join the mid-sleep feed thread
        assert feed.applied == 0
        assert feed._thread is None
        # The no_thread_leaks fixture asserts nothing survived.

    def test_attached_ticker_dies_with_the_handle(self):
        from repro.serve import RoundTicker
        daemon = ServeDaemon(ServeConfig(disks=2))
        daemon.admit()
        handle = ServeHandle(daemon).start()
        ticker = RoundTicker(daemon, interval=0.01).start()
        handle.attach(ticker)
        deadline = time.time() + 5.0
        while ticker.ticks == 0 and time.time() < deadline:
            time.sleep(0.01)
        handle.stop()
        assert ticker.ticks >= 1
        assert daemon.state()["controller"]["active"] == 1

    def test_ticker_interval_validation(self):
        from repro.serve import RoundTicker
        daemon = ServeDaemon(ServeConfig(disks=2))
        with pytest.raises(ConfigurationError):
            RoundTicker(daemon, interval=0.0)
