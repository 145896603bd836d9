"""HTTP front end for :class:`~repro.serve.daemon.ServeDaemon`.

A stdlib ``ThreadingHTTPServer`` (one thread per connection, no
external dependencies) exposing:

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

Connections are HTTP/1.1 persistent: a keep-alive client
(:class:`~repro.serve.client.ServeClient`) pays the TCP handshake
once and its requests keep landing on the same worker thread.  The
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
request counter instead of the primary one.  ``/release`` and
``/release/batch`` are the unspanned mutations -- they stay fully
counter-visible, but the admit chain is the traced artifact and
skipping one span per admit/release cycle keeps tracing inside the
A26 overhead budget.  A batch admit opens one ``http.admit_batch``
span for the whole batch (per-ticket events would defeat the
amortisation the endpoint exists for).

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

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import AdmissionError, ConfigurationError, ReproError
from repro.obs.spans import TRACE_HEADER, parse_trace_header, start_span
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


class _ServeHTTPServer(ThreadingHTTPServer):
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


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the daemon; all responses are JSON except
    ``/metrics``."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Buffer the response writer so headers + body leave in ONE
    #: send() (handle_one_request flushes after each response).  With
    #: the default unbuffered wfile the body is a second small packet
    #: that Nagle holds until the client ACKs the header packet --
    #: a ~40ms delayed-ACK stall per keep-alive response.
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        """Quiet by default; the metrics registry is the access log."""

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, payload: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, data: dict) -> int:
        self._send(status, (json.dumps(data) + "\n").encode("utf-8"))
        return status

    def _send_reject(self, exc: AdmissionError) -> int:
        """409 from the pre-encoded one-slot cache.  At capacity every
        reject carries the same message (same active count, same
        limit), so the overload path never touches ``json.dumps``."""
        message = str(exc)
        key, body = self.server.reject_cache
        if key != message:
            body = (json.dumps({"error": message, "admitted": False})
                    + "\n").encode("utf-8")
            self.server.reject_cache = (message, body)
        self._send(409, body)
        return 409

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

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length")
        try:
            length = 0 if header is None else int(header)
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY:
            # The body is left unread, so the next request on this
            # connection would start mid-body: answer, then hang up.
            self.close_connection = True
            if length < 0:
                raise ConfigurationError(
                    f"Content-Length must be a non-negative integer, "
                    f"got {header!r}")
            raise ConfigurationError(
                f"request body too large ({length} bytes)")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw.decode("utf-8")) if raw.strip() else {}
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
                       content_type=PROMETHEUS_CONTENT_TYPE)
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
        if self.path in _UNSPANNED:
            self._dispatch_post(daemon, attempt > 1)
            return
        name = _SPAN_NAMES.get(self.path)
        if name is None:
            op = self.path.strip("/").replace("/", ".") or "root"
            name = f"http.{op}"
        if attempt > 1:
            span = start_span(name, tracer=daemon.tracer,
                              parent=context, attempt=attempt)
        else:
            span = start_span(name, tracer=daemon.tracer,
                              parent=context)
        with span:
            status = self._dispatch_post(daemon, attempt > 1)
            span.set(status=status)

    def _dispatch_post(self, daemon: ServeDaemon,
                       retried: bool) -> int:
        """Route one mutating request; returns the HTTP status sent."""
        try:
            body = self._read_body()
            if self.path == "/admit":
                return self._send_json(200,
                                       daemon.admit(retried=retried))
            if self.path == "/admit/batch":
                count = _field(body, "count", 1, int)
                return self._send_json(
                    200, daemon.admit_many(count, retried=retried))
            if self.path == "/release":
                stream = body.get("stream")
                if stream is not None:
                    stream = _field(body, "stream", None, int)
                return self._send_json(
                    200, daemon.release(stream, retried=retried))
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
                return self._send_json(
                    200, daemon.release_many(streams,
                                             retried=retried))
            if self.path == "/fault":
                kind = body.get("kind")
                if not kind:
                    raise ConfigurationError(
                        "fault body needs a 'kind' key")
                return self._send_json(
                    200, daemon.fault(
                        str(kind), _field(body, "disk", 0, int),
                        factor=_field(body, "factor", 1.0, float),
                        retried=retried))
            if self.path == "/snapshot":
                written = daemon.save_snapshot()
                if written is None:
                    raise ConfigurationError(
                        "daemon has no --snapshot-path configured")
                return self._send_json(200, {"written": str(written)})
            return self._send_json(
                404, {"error": f"no route {self.path!r}"})
        except AdmissionError as exc:
            return self._send_reject(exc)
        except ReproError as exc:
            return self._send_json(400, {"error": str(exc)})


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
