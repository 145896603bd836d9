"""HTTP front end for :class:`~repro.serve.daemon.ServeDaemon`.

A ``socketserver.ThreadingTCPServer`` (one thread per connection, no
external dependencies) speaking HTTP/1.1 through the daemon's own
request codec, exposing:

- ``POST /admit``   -> 200 ``{"stream": ..., "active": ...}`` or
  409 ``{"error": ...}`` when admission would break the guarantee;
- ``POST /admit/batch`` -> 200 ``{"requested": k, "granted": g,
  "streams": [...], "active": ...}``; body ``{"count": k}``.  One
  lock acquisition and one span for the whole batch; partial grants
  return 200 with ``granted < requested``, a zero grant returns 409;
- ``POST /release`` -> 200; JSON body ``{"stream": n}`` optional
  (default: oldest active stream);
- ``POST /release/batch`` -> 200 ``{"released": [...], "missing":
  [...], "active": ...}``; body ``{"streams": [...]}``;
- ``POST /fault``   -> 200; JSON body ``{"kind": "disk_fail",
  "disk": 0}`` applies the event to the live controller
  (``slow_disk`` also takes ``"factor"``);
- ``POST /snapshot``-> 200; persists the crash-safe ledger snapshot
  and returns where it was written;
- ``GET /metrics``  -> Prometheus text exposition of the daemon's
  registry (version 0.0.4 content type), refreshed with trace-loss
  counters, SLO burn gauges and admission gauges at scrape time;
- ``GET /healthz``  -> liveness JSON;
- ``GET /state``    -> full controller/policy/table JSON view;
- ``GET /control``  -> control-plane view: telemetry window
  aggregates, controller state machine, drift factors, admission
  epoch;
- ``GET /slo``      -> ε error-budget view: burn rates over the
  fast/slow round windows, alert state, budget remaining.

The codec (:class:`_Handler`) is the server-side twin of the client's
``_Connection``: it reads the request line and the headers with
bounded ``readline`` calls -- a line of at most 64 KiB, at most 100
headers, names matched in any case -- then exactly ``Content-Length``
body bytes, and writes each reply in one send: the status line, the
``Server``/``Date`` lines (cached per second), ``Content-Type``,
``Content-Length``, ``Connection: close`` when the connection ends,
and the body.  A request it cannot frame is refused before dispatch,
with a JSON ``{"error": ...}`` body like every other error, and the
connection closes, because what follows on it cannot be parsed: a
request line over 64 KiB gets 414; a header line over 64 KiB or more
than 100 headers, 431; a malformed request line, a header line
without a colon, a ``Content-Length`` that is not ASCII digits, two
that differ, or a body over 64 KiB or shorter than announced, 400;
any ``Transfer-Encoding`` or an unknown method, 501; HTTP/2 or later,
505.

Connections are HTTP/1.1 persistent: a keep-alive client
(:class:`~repro.serve.client.ServeClient`) pays the TCP handshake
once and its requests keep landing on the same worker thread;
requests pipelined in one send are answered in order.  HTTP/1.0
requests and ``Connection: close`` close after the reply.  The
server tracks live connection sockets and force-closes them on
shutdown, so ``block_on_close`` can still join every worker and a
clean exit leaks nothing.

Two response fast paths skip JSON encoding entirely: admission
rejects are answered from a one-slot pre-encoded 409 cache (the
reject message is stable while the daemon sits at capacity -- the
common case under overload), and ``/healthz`` reuses a pre-encoded
prefix keyed on (status, active, capacity), appending only the uptime
float.  Both caches produce byte-identical output to a fresh
``json.dumps``.

Mutating requests honour the ``X-Repro-Trace`` header: the handler
opens an ``http.<op>`` span parented on the client's span context (so
one JSONL trace reconstructs client -> HTTP -> admission -> ledger),
and the attempt number stamped by :class:`~repro.serve.client.
ServeClient` retries routes attempt > 1 into the daemon's *retried*
request counter instead of the primary one.  The span takes the lean
path of :func:`~repro.obs.spans.open_span` and is filed just before
the reply is written, so it covers the handler's work but not the
socket write.  ``/release`` and ``/release/batch`` are the unspanned
mutations -- they stay fully counter-visible, but the admit chain is
the traced artifact and skipping one span per admit/release cycle
keeps tracing inside the A26 overhead budget.  A batch admit opens
one ``http.admit_batch`` span for the whole batch (per-ticket events
would defeat the amortisation the endpoint exists for).

:class:`ServeHandle` owns the server lifecycle: ``start()`` spawns the
accept loop thread, ``stop()`` first stops any attached background
feeds (:meth:`ServeHandle.attach`), then shuts the server down,
force-closes the tracked keep-alive connections and joins every
request thread (``block_on_close``) -- the CI smoke test asserts
exactly that.  :class:`FaultFeed` replays a TOML
:class:`~repro.server.faults.FaultSchedule` against the daemon in
scaled wall-clock time; :class:`RoundTicker` drives the daemon's
measurement/control loop (:meth:`~repro.serve.daemon.ServeDaemon.
tick_round`) at a fixed wall-clock cadence.
"""

from __future__ import annotations

import email.utils
import json
import re
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus

from repro.errors import AdmissionError, ConfigurationError, ReproError
from repro.obs.spans import (
    TRACE_HEADER,
    close_span,
    open_span,
    parse_trace_header,
)
from repro.serve.daemon import ServeDaemon

__all__ = ["ServeHandle", "FaultFeed", "RoundTicker",
           "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Span names for the known mutating routes, precomputed so the admit
#: hot path skips the per-request string surgery.
_SPAN_NAMES = {"/admit": "http.admit",
               "/admit/batch": "http.admit_batch",
               "/fault": "http.fault", "/snapshot": "http.snapshot"}
#: Routes that are counter-visible but never spanned (see module doc).
_UNSPANNED = ("/release", "/release/batch")
_MAX_BODY = 64 * 1024
#: The client's limits on a request: the longest request or header
#: line, and the most header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: ``HTTP-version`` of RFC 9112: one digit each side of the dot.
_VERSION = re.compile(r"HTTP/[0-9]\.[0-9]")
_STATUS_LINES = {status.value: b"HTTP/1.1 %d %s\r\n"
                 % (status.value, status.phrase.encode("latin-1"))
                 for status in HTTPStatus}
_SERVER = b"Server: repro-serve/1.0\r\n"
_JSON_TYPE = b"Content-Type: application/json\r\n"
_PROMETHEUS_TYPE = b"Content-Type: %s\r\n" % PROMETHEUS_CONTENT_TYPE.encode()


class _ServeHTTPServer(socketserver.ThreadingTCPServer):
    """Request-per-thread server that joins its workers on close.

    Keep-alive means a worker thread lives as long as its connection:
    the server keeps the set of live connection sockets so
    :meth:`close_connections` can force idle keep-alive workers out of
    their blocking read at shutdown -- without it, ``block_on_close``
    would wait forever on a client that simply kept its connection
    open.
    """

    daemon_threads = False
    block_on_close = True
    #: Fast restarts over leaked-port paranoia: tests bind ephemeral
    #: ports, the CLI binds user-chosen ones.
    allow_reuse_address = True

    def __init__(self, address, daemon: ServeDaemon) -> None:
        super().__init__(address, _Handler)
        self.daemon = daemon
        self._conn_lock = threading.Lock()
        self._conns: set = set()
        #: One-slot pre-encoded 409 cache: (reject message, body).
        self.reject_cache: tuple = (None, b"")
        #: Pre-encoded healthz prefix: ((degraded, active, capacity),
        #: bytes up to the uptime value).
        self.healthz_cache: tuple = (None, b"")
        #: The ``Server`` and ``Date`` lines of every reply sent in
        #: one second: (that second, the lines).
        self.reply_lines: tuple = (None, b"")

    def get_request(self):
        request, address = super().get_request()
        with self._conn_lock:
            self._conns.add(request)
        return request, address

    def shutdown_request(self, request) -> None:
        with self._conn_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Force-close every live connection so keep-alive workers
        unblock and can be joined."""
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for request in conns:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def handle_error(self, request, client_address) -> None:
        """A force-closed keep-alive connection raises in its worker
        during shutdown (and an impatient client mid-response any
        time); that is connection lifecycle, not a server error."""
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, OSError)):
            return
        super().handle_error(request, client_address)


def _json_bytes(data: dict) -> bytes:
    """A JSON reply body."""
    return (json.dumps(data) + "\n").encode("utf-8")


def _field(body: dict, key: str, default, kind):
    """``kind(body[key])`` (``default`` when absent); a value that does
    not convert is a client error, not a handler crash."""
    value = body.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{key!r} must be {'an integer' if kind is int else 'a number'}"
            f", got {value!r}") from None


class _Headers(dict):
    """Request headers keyed by lower-cased name (the first of
    repeated headers wins); :meth:`get` takes a name in any case."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class _Handler(socketserver.StreamRequestHandler):
    """One connection's HTTP/1.1 codec; routes requests into the
    daemon.  All responses are JSON except ``/metrics``.

    ``handle_one_request``, ``parse_request``, ``send_response``,
    ``do_POST`` and ``do_GET`` keep the names of the standard
    library's request handler and are always called through ``self``,
    so a wrapper installed on the class (the repository benchmark's
    traced run) sees every request.
    """

    disable_nagle_algorithm = True

    def handle(self) -> None:
        """Answer requests until the connection is to close."""
        self.close_connection = False
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """Read one request line (blocking), then parse and answer the
        request it starts."""
        self.raw_requestline = self.rfile.readline(_MAX_LINE + 1)
        if not self.raw_requestline:
            self.close_connection = True  # the client hung up
            return
        if not self.parse_request():
            return
        route = getattr(self, "do_" + self.command, None)
        if route is None:
            self._refuse(501, f"unsupported method {self.command!r}")
            return
        route()

    def parse_request(self) -> bool:
        """Parse the request line, the headers and the body into
        ``command``, ``path``, ``headers`` and ``body``.  Returns False
        when the request was refused or the line was blank; the
        connection then closes."""
        self.close_connection = True
        line = self.raw_requestline
        if len(line) > _MAX_LINE:
            return self._refuse(414, "request line too long")
        words = line.decode("latin-1").split()
        if not words:
            return False
        if len(words) != 3 or not _VERSION.fullmatch(words[2]):
            return self._refuse(400, f"bad request line {line[:80]!r}")
        self.command, self.path, version = words
        if version >= "HTTP/2.0":
            return self._refuse(505, f"{version} is not supported")
        headers = self.headers = _Headers()
        rfile = self.rfile
        count = 0
        while True:
            line = rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                return self._refuse(431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > _MAX_HEADERS:
                return self._refuse(431,
                                    f"more than {_MAX_HEADERS} headers")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                return self._refuse(
                    400, f"header line without a colon: {line[:80]!r}")
            name = name.strip().lower()
            value = value.strip()
            first = headers.setdefault(name, value)
            if name == "content-length" and first != value:
                return self._refuse(
                    400, "two different Content-Length headers")
        if "transfer-encoding" in headers:
            return self._refuse(
                501, "Transfer-Encoding is not supported; send the body "
                "with a Content-Length")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            return self._refuse(
                400, f"Content-Length must be a non-negative integer, "
                f"got {length!r}")
        try:
            size = int(length)
        except ValueError:  # more digits than int() will parse
            size = _MAX_BODY + 1
        if size > _MAX_BODY:
            return self._refuse(
                400, f"request body too large (over {_MAX_BODY} bytes)")
        if version >= "HTTP/1.1":
            if headers.get("expect", "").lower() == "100-continue":
                self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.close_connection = (
                headers.get("connection", "").lower() == "close")
        self.body = rfile.read(size) if size else b""
        if len(self.body) < size:
            return self._refuse(
                400, "request body ended before its Content-Length")
        return True

    def send_response(self, code: int, message: str | None = None) -> None:
        """Begin the reply to ``code``: its status line (``message``
        is the reason phrase, default the standard one) and the
        ``Server``/``Date`` lines, which :meth:`_send` writes with the
        rest of the reply."""
        now = int(time.time())
        second, lines = self.server.reply_lines
        if second != now:
            lines = _SERVER + b"Date: %s\r\n" % email.utils.formatdate(
                now, usegmt=True).encode("ascii")
            self.server.reply_lines = (now, lines)
        if message is None:
            self._head = _STATUS_LINES[code] + lines
        else:
            self._head = b"HTTP/1.1 %d %s\r\n%s" % (
                code, message.encode("latin-1"), lines)

    def _refuse(self, status: int, message: str) -> bool:
        """Answer a request that cannot be served and hang up.
        Returns False, for :meth:`parse_request` to pass on."""
        self.close_connection = True
        self._send_json(status, {"error": message})
        return False

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, payload: bytes,
              content_type: bytes = _JSON_TYPE) -> None:
        """Write the whole reply in one send."""
        self.send_response(status)
        self.connection.sendall(b"%s%sContent-Length: %d\r\n%s\r\n%s" % (
            self._head, content_type, len(payload),
            b"Connection: close\r\n" if self.close_connection else b"",
            payload))

    def _send_json(self, status: int, data: dict) -> None:
        self._send(status, _json_bytes(data))

    def _reject_body(self, exc: AdmissionError) -> bytes:
        """The 409 body, from the pre-encoded one-slot cache.  At
        capacity every reject carries the same message (same active
        count, same limit), so the overload path never touches
        ``json.dumps``."""
        message = str(exc)
        key, body = self.server.reject_cache
        if key != message:
            body = _json_bytes({"error": message, "admitted": False})
            self.server.reject_cache = (message, body)
        return body

    def _send_healthz(self) -> None:
        """Liveness from a pre-encoded prefix; only the uptime float
        is formatted per request.  Byte-identical to ``_send_json(200,
        daemon.healthz())``."""
        daemon = self.server.daemon
        controller = daemon.controller
        key = (controller.degraded, controller.active,
               controller.capacity)
        cached_key, prefix = self.server.healthz_cache
        if key != cached_key:
            prefix = (
                '{"status": "%s", "active": %d, "capacity": %d, '
                '"uptime_seconds": '
                % ("degraded" if key[0] else "ok", key[1], key[2])
            ).encode("utf-8")
            self.server.healthz_cache = (key, prefix)
        uptime = time.time() - daemon.started_at
        self._send(200, prefix + repr(uptime).encode("ascii") + b"}\n")

    def _json_body(self) -> dict:
        """The request body as a JSON object (``{}`` when empty)."""
        raw = self.body
        if not raw.strip():
            return {}
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"request body is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"request body must be a JSON object, got {data!r}")
        return data

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:
        """Read-only views: metrics, health, state, control, SLO."""
        daemon = self.server.daemon
        if self.path == "/metrics":
            daemon.refresh_export_metrics()
            text = daemon.registry.to_prometheus()
            self._send(200, text.encode("utf-8"),
                       content_type=_PROMETHEUS_TYPE)
        elif self.path == "/healthz":
            self._send_healthz()
        elif self.path == "/state":
            self._send_json(200, daemon.state())
        elif self.path == "/control":
            self._send_json(200, daemon.control_state())
        elif self.path == "/slo":
            self._send_json(200, daemon.slo_state())
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:
        """Mutating operations: admit (single/batch), release
        (single/batch), fault, snapshot.

        The ``X-Repro-Trace`` header joins the daemon-side span tree
        onto the client's trace and flags retried attempts so they
        stay out of the primary request counters.  A malformed header
        never fails the request (it parses as absent).
        """
        daemon = self.server.daemon
        context, attempt = parse_trace_header(
            self.headers.get(TRACE_HEADER))
        retried = attempt > 1
        tracer = daemon.tracer
        if not tracer.enabled or self.path in _UNSPANNED:
            self._send(*self._dispatch_post(daemon, retried))
            return
        name = _SPAN_NAMES.get(self.path)
        if name is None:
            op = self.path.strip("/").replace("/", ".") or "root"
            name = f"http.{op}"
        span = open_span(name, tracer, context,
                         {"attempt": attempt} if retried else None)
        try:
            status, payload = self._dispatch_post(daemon, retried)
        except BaseException as exc:
            close_span(span, {"error": type(exc).__name__})
            raise
        # Filed before the reply leaves: the span covers the handler's
        # work, not the socket write, and the client is not kept
        # waiting on the bookkeeping.
        close_span(span, {"status": status})
        self._send(status, payload)

    def _dispatch_post(self, daemon: ServeDaemon,
                       retried: bool) -> tuple[int, bytes]:
        """Route one mutating request; returns the reply's status and
        body, for the caller to send."""
        try:
            body = self._json_body()
            if self.path == "/admit":
                return 200, _json_bytes(daemon.admit(retried=retried))
            if self.path == "/admit/batch":
                count = _field(body, "count", 1, int)
                return 200, _json_bytes(
                    daemon.admit_many(count, retried=retried))
            if self.path == "/release":
                stream = body.get("stream")
                if stream is not None:
                    stream = _field(body, "stream", None, int)
                return 200, _json_bytes(
                    daemon.release(stream, retried=retried))
            if self.path == "/release/batch":
                raw = body.get("streams")
                if not isinstance(raw, list):
                    raise ConfigurationError(
                        "release batch body needs a 'streams' list")
                try:
                    streams = [int(s) for s in raw]
                except (TypeError, ValueError, OverflowError):
                    raise ConfigurationError(
                        f"release batch 'streams' must be integers, "
                        f"got {raw!r}") from None
                return 200, _json_bytes(
                    daemon.release_many(streams, retried=retried))
            if self.path == "/fault":
                kind = body.get("kind")
                if not kind:
                    raise ConfigurationError(
                        "fault body needs a 'kind' key")
                return 200, _json_bytes(daemon.fault(
                    str(kind), _field(body, "disk", 0, int),
                    factor=_field(body, "factor", 1.0, float),
                    retried=retried))
            if self.path == "/snapshot":
                written = daemon.save_snapshot()
                if written is None:
                    raise ConfigurationError(
                        "daemon has no --snapshot-path configured")
                return 200, _json_bytes({"written": str(written)})
            return 404, _json_bytes({"error": f"no route {self.path!r}"})
        except AdmissionError as exc:
            return 409, self._reject_body(exc)
        except ReproError as exc:
            return 400, _json_bytes({"error": str(exc)})


class ServeHandle:
    """Lifecycle wrapper: daemon + HTTP server + accept-loop thread."""

    def __init__(self, daemon: ServeDaemon, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.daemon = daemon
        self.server = _ServeHTTPServer((host, port), daemon)
        self.host, self.port = self.server.server_address[:2]
        self._thread: threading.Thread | None = None
        self._feeds: list = []

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def attach(self, feed) -> "ServeHandle":
        """Register a background feed (:class:`FaultFeed`,
        :class:`RoundTicker`) so :meth:`stop` tears it down *before*
        the HTTP server -- a feed left running would keep mutating the
        daemon (or, mid-sleep, outlive the process's clean exit)."""
        self._feeds.append(feed)
        return self

    def start(self) -> "ServeHandle":
        """Spawn the accept loop; returns self for chaining."""
        if self._thread is not None:
            raise ConfigurationError("serve handle already started")
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            name=f"repro-serve:{self.port}")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop attached feeds, stop accepting, force-close live
        keep-alive connections, join the accept loop and every request
        thread, close the listening socket.  Idempotent."""
        while self._feeds:
            # Reverse order of attachment; each stop() joins.
            self._feeds.pop().stop()
        if self._thread is not None:
            self.server.shutdown()
            self._thread.join()
            self._thread = None
        # Unblock idle keep-alive workers *before* server_close joins
        # them (block_on_close) -- an open client connection would
        # otherwise park the join forever.
        self.server.close_connections()
        self.server.server_close()

    def __enter__(self) -> "ServeHandle":
        """Start on entry (``with ServeHandle(daemon) as handle:``)."""
        return self.start()

    def __exit__(self, *exc) -> None:
        """Always stop, even when the body raised."""
        self.stop()


class FaultFeed:
    """Replays a :class:`~repro.server.faults.FaultSchedule` against a
    live daemon.

    Event times are interpreted as seconds and multiplied by
    ``time_scale`` -- a schedule authored in round units (the CLI
    convention, one round = ``t`` seconds) replayed with
    ``time_scale=0.01`` injects a round-300 failure after 3 wall
    seconds.  The feed runs in its own thread; ``stop()`` cancels any
    remaining events (including one it is currently sleeping towards)
    and joins it.
    """

    def __init__(self, daemon: ServeDaemon, schedule,
                 time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {time_scale!r}")
        self.daemon = daemon
        self.events = list(schedule)
        self.time_scale = float(time_scale)
        self.applied = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        elapsed = 0.0
        for event in self.events:
            delay = event.t * self.time_scale - elapsed
            if delay > 0 and self._stop.wait(delay):
                return
            elapsed = event.t * self.time_scale
            if self._stop.is_set():
                return
            self.daemon.fault(event.kind,
                              event.disk if event.disk is not None
                              else 0,
                              factor=event.factor)
            self.applied += 1

    def start(self) -> "FaultFeed":
        """Spawn the replay thread; returns self for chaining."""
        if self._thread is not None:
            raise ConfigurationError("fault feed already started")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-faults")
        self._thread.start()
        return self

    def join(self, timeout: float | None = None) -> None:
        """Wait for the replay to finish."""
        if self._thread is not None:
            self._thread.join(timeout)

    def stop(self) -> None:
        """Cancel pending events and join the thread.  Idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None


class RoundTicker:
    """Drives :meth:`~repro.serve.daemon.ServeDaemon.tick_round` at a
    fixed wall-clock cadence -- the production heartbeat of the
    measurement/control loop.  Tests and benches skip the ticker and
    call ``tick_round()`` directly for determinism."""

    def __init__(self, daemon: ServeDaemon,
                 interval: float = 0.2) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"tick interval must be positive, got {interval!r}")
        self.daemon = daemon
        self.interval = float(interval)
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.daemon.tick_round()
            self.ticks += 1

    def start(self) -> "RoundTicker":
        """Spawn the tick thread; returns self for chaining."""
        if self._thread is not None:
            raise ConfigurationError("round ticker already started")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-ticker")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Cancel the cadence and join the thread.  Idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
