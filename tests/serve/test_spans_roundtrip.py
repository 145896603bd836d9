"""End-to-end span round-trip over a live daemon.

The acceptance test for the tracing tentpole: a client and daemon
sharing one JSONL sink must yield a file from which the *complete*
admit chain -- client attempt, HTTP handler, admission test, ledger
mutation -- is rebuilt with the client-originated trace-id on every
span.  Also covers the /slo endpoint over real HTTP and the
retried-request counter split (a retry must never double-count the
primary rates).
"""

import json
import threading
import urllib.request

import pytest

from repro.obs import Tracer, read_trace, validate_trace
from repro.obs.spans import (
    SpanContext,
    TRACE_HEADER,
    build_span_trees,
    critical_path,
    format_trace_header,
)
from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeHandle


@pytest.fixture(autouse=True)
def no_thread_leaks():
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate()
              if t not in before and t.is_alive()]
    assert not leaked, f"leaked threads: {[t.name for t in leaked]}"


@pytest.fixture
def traced(tmp_path):
    """Daemon + client sharing one tracer with a JSONL sink."""
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sink=path)
    tracer.start_run(seed=None)
    daemon = ServeDaemon(ServeConfig(disks=2, adaptive=True),
                         tracer=tracer)
    handle = ServeHandle(daemon)
    handle.start()
    client = ServeClient(handle.url, tracer=tracer)
    try:
        yield handle, client, tracer, path
    finally:
        handle.stop()
        if tracer.enabled:
            tracer.end_run()
            tracer.close()


def span_index(records):
    """{span_id: record} for every span_start in the trace."""
    return {r["span"]: r for r in records if r["kind"] == "span_start"}


class TestAdmitChainRoundTrip:
    def test_full_admit_tree_rebuilt_from_one_jsonl(self, traced):
        handle, client, tracer, path = traced
        ticket = client.admit()
        assert ticket["admitted"]
        handle.daemon.tick_round()
        client.release(ticket["stream"])
        handle.stop()
        tracer.end_run()
        tracer.close()

        records = read_trace(path)
        assert validate_trace(records) == []
        roots = build_span_trees(records)
        [admit_root] = [r for r in roots if r.name == "client.admit"]
        # The exact admit chain: client attempt -> HTTP handler ->
        # {admission test, ledger append}.
        [attempt] = admit_root.children
        assert attempt.name == "client.request"
        assert attempt.attrs["attempt"] == 1
        [handler] = attempt.children
        assert handler.name == "http.admit"
        assert handler.attrs["status"] == 200
        leaves = sorted(c.name for c in handler.children)
        assert leaves == ["admission.admit", "ledger.append"]
        [ledger] = [c for c in handler.children
                    if c.name == "ledger.append"]
        assert ledger.attrs["stream"] == ticket["stream"]
        assert ledger.attrs["active"] == 1
        # One client-originated trace-id spans the whole tree, every
        # span complete with a measured duration.
        for node in admit_root.walk():
            assert node.trace_id == admit_root.trace_id
            assert node.complete and node.seconds >= 0.0
        chain = [n.name for n in critical_path(admit_root)]
        assert chain[0] == "client.admit"
        assert "http.admit" in chain

    def test_admit_path_records_are_pinned(self, tmp_path):
        """The daemon-side records of a single and a batch admit, key
        order included, with ids, stamps and durations normalised."""
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=path)
        tracer.start_run(seed=None)
        daemon = ServeDaemon(ServeConfig(disks=2), tracer=tracer)
        with ServeHandle(daemon) as handle:
            with ServeClient(handle.url) as client:  # untraced
                client.admit()
                client.admit_many(3)
        tracer.end_run()
        tracer.close()
        records = read_trace(path)
        assert validate_trace(records) == []
        names: dict = {}
        pinned = []
        for record in records:
            if not record["kind"].startswith("span_"):
                continue
            assert isinstance(record["wall"], float)
            shown = {}
            for key, value in record.items():
                if key in ("trace", "span", "parent"):
                    value = names.setdefault(value, f"id{len(names)}")
                elif key in ("seq", "wall", "seconds"):
                    value = "*"
                shown[key] = value
            pinned.append(shown)

        def start(trace, span, name, parent):
            return {"kind": "span_start", "seq": "*", "wall": "*",
                    "trace": trace, "span": span, "name": name,
                    "parent": parent}

        def end(trace, span, name, attrs):
            return {"kind": "span_end", "seq": "*", "wall": "*",
                    "trace": trace, "span": span, "name": name,
                    "seconds": "*", "attrs": attrs}

        assert pinned == [
            start("id0", "id1", "http.admit", "id2"),
            start("id0", "id3", "admission.admit", "id1"),
            end("id0", "id3", "admission.admit",
                {"granted": True, "count": 1, "active": 1, "n_max": 28,
                 "shard": 0}),
            start("id0", "id4", "ledger.append", "id1"),
            end("id0", "id4", "ledger.append", {"stream": 0, "active": 1}),
            end("id0", "id1", "http.admit", {"status": 200}),
            start("id5", "id6", "http.admit_batch", "id7"),
            start("id5", "id8", "admission.admit", "id6"),
            end("id5", "id8", "admission.admit",
                {"granted": True, "count": 3, "active": 4, "n_max": 28,
                 "shard": 0}),
            start("id5", "id9", "ledger.append", "id6"),
            end("id5", "id9", "ledger.append",
                {"stream": 1, "active": 4, "count": 3, "last_stream": 3}),
            end("id5", "id6", "http.admit_batch", {"status": 200}),
        ]
        # Key order is part of the format: dict equality ignores it.
        assert [list(r) for r in pinned] == [
            list(start("", "", "", "")) if r["kind"] == "span_start"
            else list(end("", "", "", {})) for r in pinned]

    def test_release_and_control_cycle_traced_too(self, traced):
        handle, client, tracer, path = traced
        ticket = client.admit()
        handle.daemon.tick_round()
        client.release(ticket["stream"])
        handle.stop()
        tracer.end_run()
        tracer.close()
        roots = build_span_trees(read_trace(path))
        names = {r.name for r in roots}
        assert "client.release" in names
        [cycle] = [r for r in roots if r.name == "control.cycle"]
        child_names = {c.name for c in cycle.children}
        assert "control.observe" in child_names
        assert "control.plan" in child_names
        assert cycle.attrs["slo"] in ("ok", "warn", "page")
        # Per-round SLO evidence rides the same file.
        observed = [r for r in read_trace(path)
                    if r["kind"] == "round_observe"]
        assert len(observed) == 1
        assert observed[0]["requests"] > 0

    def test_trace_ids_are_client_originated(self, traced):
        handle, client, tracer, path = traced
        client.admit()
        handle.stop()
        tracer.end_run()
        tracer.close()
        records = read_trace(path)
        starts = span_index(records)
        client_roots = [r for r in starts.values()
                        if r["name"] == "client.admit"]
        [root] = client_roots
        daemon_side = [r for r in starts.values()
                       if r["name"].startswith(("http.", "admission.",
                                                "ledger."))]
        assert daemon_side
        for record in daemon_side:
            assert record["trace"] == root["trace"]


class TestSLOOverHTTP:
    def test_slo_endpoint_serves_tracker_summary(self, traced):
        handle, client, _tracer, _path = traced
        client.admit()
        handle.daemon.tick_round()
        report = client.slo()
        assert report["state"] in ("ok", "warn", "page")
        assert report["rounds"] == 1
        assert report["budget_per_slot"] > 0.0
        assert report["fast_window_rounds"] == 32
        # /state carries the same summary for dashboards.
        assert client.control()["slo"]["rounds"] == 1


class TestRetriedRequestCounters:
    def post(self, url, path, body, attempt, context=None):
        context = context or SpanContext("trace-x", "span-y")
        request = urllib.request.Request(
            url + path, data=json.dumps(body).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json",
                     TRACE_HEADER: format_trace_header(
                         context, attempt=attempt)})
        try:
            with urllib.request.urlopen(request, timeout=5) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_retried_release_counts_exactly_once(self, traced):
        handle, client, _tracer, _path = traced
        ticket = client.admit()
        stream = ticket["stream"]
        before = handle.daemon.registry.snapshot()
        # First attempt lands; the client never hears back and
        # retries the same release with attempt=2.
        status, _ = self.post(handle.url, "/release",
                              {"stream": stream}, attempt=1)
        assert status == 200
        status, _ = self.post(handle.url, "/release",
                              {"stream": stream}, attempt=2)
        assert status == 400  # stream already gone; not a double free
        snap = handle.daemon.registry.snapshot()

        def count(name):
            return (snap[name]["value"]
                    - before.get(name, {}).get("value", 0.0))

        assert count('serve_requests_total{op="release"}') == 1
        assert count('serve_requests_retried_total{op="release"}') == 1
        assert count("serve_released_total") == 1
        assert handle.daemon.controller.active == 0

    def test_retried_admit_lands_in_retry_counter(self, traced):
        handle, _client, _tracer, _path = traced
        status, first = self.post(handle.url, "/admit", {}, attempt=1)
        assert status == 200 and "stream" in first
        status, second = self.post(handle.url, "/admit", {}, attempt=3)
        assert status == 200
        snap = handle.daemon.registry.snapshot()
        assert snap['serve_requests_total{op="admit"}']["value"] == 1
        assert snap[
            'serve_requests_retried_total{op="admit"}']["value"] == 1
