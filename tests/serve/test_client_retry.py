"""ServeClient retry discipline (no sockets: connections are faked).

The contract: transport failures never escape as raw
``ConnectionError``; connect-stage failures retry with bounded
exponential backoff for every operation; a send failure on a *reused*
keep-alive connection retries for every operation (the request never
reached the daemon); mid-flight failures retry only idempotent
operations -- a mid-flight ``admit`` raises immediately because a
blind re-send could admit two streams for one request.

The fakes drive the client through its ``connection_factory`` seam:
anything with the ``request``/``getresponse``/``close`` surface of
``http.client.HTTPConnection``.
"""

import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.spans import TRACE_HEADER, parse_trace_header
from repro.serve import ServeClient


class FakeResponse:
    def __init__(self, payload, status: int = 200):
        self.status = status
        self._body = (payload if isinstance(payload, bytes)
                      else json.dumps(payload).encode("utf-8"))

    def read(self):
        return self._body


#: Script entries: where in the exchange the scripted error fires.
SEND = "send"
RESPONSE = "response"


def refused():
    """Connect-stage: the daemon is down, nothing was ever sent."""
    return (SEND, ConnectionRefusedError(111, "refused"))


def reset_mid_flight():
    """The connection died while awaiting the response: the daemon
    may or may not have processed the request."""
    return (RESPONSE, ConnectionResetError(104, "reset by peer"))


def stale_keep_alive():
    """The send failed outright -- on a reused connection this means
    the daemon closed the idle socket between our requests."""
    return (SEND, BrokenPipeError(32, "broken pipe"))


class FakeConnection:
    """One connection handed out by :class:`FlakyFactory`.  Each
    ``request()`` consumes the next script entry (or succeeds when the
    script is exhausted)."""

    def __init__(self, factory):
        self.factory = factory
        self.closed = False
        self._pending = None

    def request(self, method, path, body=None, headers=None):
        factory = self.factory
        factory.calls += 1
        factory.requests.append((method, path, body))
        factory.headers.append((headers or {}).get(TRACE_HEADER))
        entry = factory.next_entry()
        if entry is None:
            self._pending = None
            return
        stage, exc = entry
        if stage == SEND:
            raise exc
        self._pending = exc

    def getresponse(self):
        exc, self._pending = self._pending, None
        if exc is not None:
            raise exc
        return FakeResponse(self.factory.payload, self.factory.status)

    def close(self):
        self.closed = True


class FlakyFactory:
    """connection_factory stand-in: raises scripted errors, then
    answers ``payload`` with ``status``.  ``None`` script entries mean
    "this exchange succeeds"."""

    def __init__(self, script=(), payload=None, status: int = 200):
        self.script = list(script)
        self.payload = payload if payload is not None else {"ok": True}
        self.status = status
        self.calls = 0      # wire exchanges attempted
        self.opened = 0     # connections created
        self.headers = []   # X-Repro-Trace value per exchange
        self.requests = []  # (method, path, body) per exchange
        self.connections = []

    def __call__(self):
        self.opened += 1
        conn = FakeConnection(self)
        self.connections.append(conn)
        return conn

    def next_entry(self):
        if self.script:
            return self.script.pop(0)
        return None


def make_client(factory, **kwargs):
    sleeps = []
    kwargs.setdefault("retries", 4)
    kwargs.setdefault("backoff", 0.05)
    kwargs.setdefault("backoff_max", 0.4)
    client = ServeClient("http://127.0.0.1:1", sleep=sleeps.append,
                         connection_factory=factory, **kwargs)
    client.sleeps = sleeps
    return client


class TestConnectStageRetry:
    def test_admit_retries_connection_refused(self):
        """The daemon is restarting from a snapshot: refused connects
        retry even for the non-idempotent admit (nothing was sent)."""
        factory = FlakyFactory([refused(), refused()],
                               {"stream": 0, "active": 1})
        client = make_client(factory)
        result = client.admit()
        assert result["admitted"] and result["stream"] == 0
        assert factory.calls == 3
        assert client.retried == 2

    def test_failed_connections_are_discarded(self):
        """A connection that refused is closed and never reused."""
        factory = FlakyFactory([refused()], {"status": "ok"})
        client = make_client(factory)
        client.healthz()
        assert factory.opened == 2
        assert factory.connections[0].closed
        assert not factory.connections[1].closed

    def test_backoff_grows_and_is_capped(self):
        factory = FlakyFactory([refused()] * 3, {"ok": True})
        client = make_client(factory)
        client.state()
        assert len(client.sleeps) == 3
        assert client.sleeps[0] < client.sleeps[-1]
        assert all(0 < s <= client.backoff_max for s in client.sleeps)

    def test_exhaustion_raises_configuration_error(self):
        factory = FlakyFactory([refused()] * 10, {"ok": True})
        client = make_client(factory)
        with pytest.raises(ConfigurationError,
                           match="unreachable after 4"):
            client.healthz()
        # Never a raw ConnectionError escaping.


class TestKeepAlive:
    def test_connection_reused_across_requests(self):
        factory = FlakyFactory()
        client = make_client(factory)
        client.healthz()
        client.healthz()
        client.state()
        assert factory.calls == 3
        assert factory.opened == 1

    def test_stale_keep_alive_retries_even_admit(self):
        """The daemon closed our idle socket between requests: the
        send on the *reused* connection fails before anything reached
        it, so even admit is safe to retry on a fresh connection."""
        factory = FlakyFactory([None, stale_keep_alive()],
                               {"stream": 7, "active": 8})
        client = make_client(factory)
        client.healthz()  # establishes the keep-alive connection
        result = client.admit()
        assert result["admitted"] and result["stream"] == 7
        assert factory.calls == 3
        assert factory.opened == 2
        assert factory.connections[0].closed  # the stale one
        assert client.retried == 1

    def test_send_failure_on_fresh_connection_is_mid_flight(self):
        """The same send failure on a *fresh* connection is ambiguous
        (part of the request may have been transmitted): admit must
        not retry it."""
        factory = FlakyFactory([stale_keep_alive()], {"stream": 0})
        client = make_client(factory)
        with pytest.raises(ConfigurationError,
                           match="non-idempotent"):
            client.admit()
        assert factory.calls == 1

    def test_close_releases_connections_then_reconnects(self):
        factory = FlakyFactory()
        client = make_client(factory)
        client.healthz()
        client.close()
        assert factory.connections[0].closed
        client.healthz()
        assert factory.opened == 2

    def test_each_thread_gets_its_own_connection(self):
        factory = FlakyFactory()
        client = make_client(factory)
        client.healthz()
        worker = threading.Thread(target=client.healthz)
        worker.start()
        worker.join()
        assert factory.opened == 2
        assert factory.calls == 2


class TestMidFlightDiscipline:
    def test_admit_never_retries_mid_flight(self):
        """The connection died after the request was sent: the daemon
        may have admitted.  A blind retry could double-admit."""
        factory = FlakyFactory([reset_mid_flight()], {"stream": 0})
        client = make_client(factory)
        with pytest.raises(ConfigurationError,
                           match="non-idempotent"):
            client.admit()
        assert factory.calls == 1
        assert client.retried == 0

    def test_admit_batch_never_retries_mid_flight(self):
        factory = FlakyFactory([reset_mid_flight()],
                               {"granted": 1, "streams": [0]})
        client = make_client(factory)
        with pytest.raises(ConfigurationError,
                           match="non-idempotent"):
            client.admit_many(4)
        assert factory.calls == 1

    def test_explicit_release_retries_mid_flight(self):
        """Releasing ticket N twice is a 400 the caller reads as
        'released': safe to re-send."""
        factory = FlakyFactory([reset_mid_flight()],
                               {"stream": 5, "active": 0})
        client = make_client(factory)
        assert client.release(5)["stream"] == 5
        assert factory.calls == 2

    def test_release_batch_retries_mid_flight(self):
        """Doubled batch releases land in ``missing``: idempotent."""
        factory = FlakyFactory(
            [reset_mid_flight()],
            {"released": [1, 2], "missing": [], "active": 0})
        client = make_client(factory)
        result = client.release_many([1, 2])
        assert result["released"] == [1, 2]
        assert factory.calls == 2

    def test_anonymous_release_does_not_retry_mid_flight(self):
        """release() with no ticket pops *some* oldest stream --
        re-sending would pop a second one."""
        factory = FlakyFactory([reset_mid_flight()], {"stream": 0})
        client = make_client(factory)
        with pytest.raises(ConfigurationError,
                           match="non-idempotent"):
            client.release()

    def test_reads_and_faults_retry_mid_flight(self):
        payload = {"written": "x", "applied": True, "factor": 1.2}
        for op in ("state", "control", "healthz", "fault", "snapshot"):
            factory = FlakyFactory([reset_mid_flight()], payload)
            client = make_client(factory)
            if op == "fault":
                client.fault("slow_disk", 0, factor=1.2)
            else:
                getattr(client, op)()
            assert factory.calls == 2, op


class TestTracePropagation:
    """Every attempt carries X-Repro-Trace; retries share the trace-id
    and stamp increasing attempt numbers so the daemon can keep them
    out of the primary request counters."""

    def test_header_always_sent_even_untraced(self):
        factory = FlakyFactory(payload={"status": "ok"})
        client = make_client(factory)
        client.healthz()
        [header] = factory.headers
        context, attempt = parse_trace_header(header)
        assert context is not None and attempt == 1

    def test_retries_share_trace_id_and_count_attempts(self):
        factory = FlakyFactory([refused(), refused()],
                               {"status": "ok"})
        client = make_client(factory)
        client.healthz()
        parsed = [parse_trace_header(h) for h in factory.headers]
        assert [attempt for _ctx, attempt in parsed] == [1, 2, 3]
        trace_ids = {ctx.trace_id for ctx, _attempt in parsed}
        assert len(trace_ids) == 1
        # Each attempt is its own span: distinct span-ids.
        span_ids = {ctx.span_id for ctx, _attempt in parsed}
        assert len(span_ids) == 3

    def test_traced_client_emits_attempt_spans(self):
        from repro.obs import Tracer

        ticks = iter(range(1000))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        factory = FlakyFactory([refused()], {"status": "ok"})
        client = make_client(factory, backoff=0.01, backoff_max=0.1,
                             tracer=tracer)
        client.healthz()
        starts = [r for r in tracer.records()
                  if r["kind"] == "span_start"]
        names = [r["name"] for r in starts]
        assert names.count("client.request") == 2
        attempts = [r["attrs"]["attempt"] for r in starts
                    if r["name"] == "client.request"]
        assert attempts == [1, 2]
        # The wire header matches the emitted attempt spans exactly.
        wire = [parse_trace_header(h) for h in factory.headers]
        emitted_span_ids = {r["span"] for r in starts
                            if r["name"] == "client.request"}
        assert {ctx.span_id for ctx, _a in wire} == emitted_span_ids


class TestResults:
    def test_409_is_a_result_not_an_exception(self):
        factory = FlakyFactory(
            payload={"error": "denied", "admitted": False},
            status=409)
        client = make_client(factory)
        result = client.admit()
        assert result["admitted"] is False
        assert "denied" in result["error"]

    def test_non_json_body_is_a_configuration_error(self):
        factory = FlakyFactory(payload=b"\x00not json")
        client = make_client(factory)
        with pytest.raises(ConfigurationError, match="non-JSON"):
            client.state()

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            ServeClient("ftp://x")
        with pytest.raises(ConfigurationError):
            ServeClient("http://x", retries=0)
        with pytest.raises(ConfigurationError):
            ServeClient("http://x", backoff=0.5, backoff_max=0.1)

    def test_https_url_is_refused(self):
        # The daemon serves plain HTTP only; nothing could answer TLS.
        with pytest.raises(ConfigurationError, match="http://"):
            ServeClient("https://127.0.0.1:8443")
