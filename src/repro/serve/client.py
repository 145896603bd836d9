"""Keep-alive JSON client for a running ``repro serve`` daemon.

Used by the ``repro admit`` CLI, the serve smoke test, the chaos leg
and benches A23/A26 -- no third-party HTTP library.  Each thread keeps
one persistent HTTP/1.1 keep-alive connection to the daemon, so a
stream of admits pays the TCP handshake once.  ``close()`` (or using
the client as a context manager) releases the sockets; an unclosed
client closes them on garbage collection.

The wire codec is the private :class:`_Connection`, not
``http.client``: a request leaves in one ``sendall`` (request line,
``Host``, the caller's headers, ``Content-Length`` and the body), and
the reply is read with bounded ``readline`` calls that keep only
``Content-Length`` and ``Connection``, then exactly ``Content-Length``
body bytes.  It keeps ``http.client``'s limits on a reply -- a line of
at most 64 KiB, at most 100 headers -- and refuses a reply without a
non-negative integer ``Content-Length``, a short body or an early EOF
with ``http.client``'s exception types, so every failure lands in the
retry taxonomy below.  After ``Connection: close`` the socket is
closed and the next request reconnects.

The client is **retrying**: transport failures (connection refused
while the daemon restarts from a snapshot, a connection torn mid
flight by ``kill -9``, a stale keep-alive socket the daemon's restart
invalidated) are retried with exponential backoff plus deterministic
decorrelation jitter, up to ``retries`` attempts per call, each under
its own ``timeout``.  Retry safety is per operation and per failure
stage:

- *stale keep-alive* failures -- the send failed on a **reused**
  connection -- are retried for every operation: the daemon closed
  the idle socket between our requests, so this request never
  reached it;
- *connect-stage* failures (``ConnectionRefusedError`` and friends on
  a fresh connection) are likewise retried for every operation;
- *mid-flight* failures (the send failed partway on a fresh
  connection, or the connection died while awaiting/reading the
  response; the daemon may or may not have processed the request) are
  retried only for idempotent operations: reads, ``release`` of an
  explicit stream (releasing an already-released ticket is a 400 the
  caller sees as "done"), ``release_many`` (doubled tickets land in
  ``missing``), and ``fault``/``snapshot`` whose doubled application
  is a no-op.  A mid-flight ``admit`` (single or batch) is *not*
  retried -- a blind re-send could admit streams twice for one
  request -- and surfaces as a
  :class:`~repro.errors.ConfigurationError` naming the ambiguity.

Exhausted retries raise :class:`~repro.errors.ConfigurationError`
(never a raw ``ConnectionError``), carrying the last transport error.

Every wire request carries the ``X-Repro-Trace`` header
(``trace_id/span_id/attempt``): with a tracer enabled the ids come
from real ``client.<op>``/``client.request`` spans so the daemon's
spans join the client's tree; without one, fresh ids are minted so the
daemon still sees a client-originated trace-id and -- crucially -- the
attempt number, which keeps retried requests out of its primary
request counters.

For tests, ``connection_factory`` injects the transport: any callable
returning an object with ``request``/``getresponse``/``close`` (the
surface :class:`_Connection` shares with ``http.client``'s
connections) -- the retry contract tests drive the client against
flaky fakes through this seam.
"""

from __future__ import annotations

import functools
import http.client
import json
import socket
import threading
import time
import urllib.parse

from repro.errors import ConfigurationError
from repro.obs.spans import (
    TRACE_HEADER,
    SpanContext,
    format_trace_header,
    new_id,
    start_span,
)
from repro.obs.trace import get_tracer

__all__ = ["ServeClient"]

#: Transport-level exceptions that mean "the daemon was unreachable or
#: the connection died" -- candidates for retry.  ``RemoteDisconnected``
#: is a ``ConnectionResetError``; ``HTTPException`` covers a reply the
#: codec cannot frame (bad status line, over-long line, too many
#: headers, bad ``Content-Length``, short body); ``OSError`` covers
#: refused/reset/timeout at the socket.
_TRANSPORT_ERRORS = (http.client.HTTPException, ConnectionError,
                     TimeoutError, OSError)

#: ``http.client``'s limits on a reply: the longest status or header
#: line, and the most header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: Body bytes asked of the socket per read, so a peer that announces a
#: huge ``Content-Length`` and hangs up costs no huge allocation.
_READ_CHUNK = 1 << 20


class _Reply:
    """One framed response: ``status`` and the whole body (``read()``,
    the ``http.client.HTTPResponse`` surface the client uses)."""

    __slots__ = ("status", "_body")

    def __init__(self, status: int, body: bytes) -> None:
        self.status = status
        self._body = body

    def read(self) -> bytes:
        return self._body


class _Connection:
    """One keep-alive HTTP/1.1 connection to the daemon.

    Connects on the first :meth:`request`, so a refused connect
    surfaces from the send stage.  Not thread-safe: the client gives
    each thread its own.
    """

    __slots__ = ("_address", "_timeout", "_host", "_sock", "_rfile")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._host = (f"[{host}]:{port}" if ":" in host
                      else f"{host}:{port}")
        self._sock = None
        self._rfile = None

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> None:
        """Send one request: everything in a single ``sendall``."""
        sock = self._sock
        if sock is None:
            sock = self._sock = socket.create_connection(self._address,
                                                         self._timeout)
            self._rfile = sock.makefile("rb")
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        head = [f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}\r\n")
        if body is not None or method == "POST":
            head.append(f"Content-Length: {len(body or b'')}\r\n")
        head.append("\r\n")
        data = "".join(head).encode("latin-1")
        sock.sendall(data + body if body else data)

    def getresponse(self) -> _Reply:
        """Read one reply; after ``Connection: close``, close so the
        next request reconnects."""
        rfile = self._rfile
        line = rfile.readline(_MAX_LINE + 1)
        if not line:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response")
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("status line")
        parts = line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                or len(parts[1]) != 3 or not parts[1].isdigit()
                or parts[1] < b"100"):
            raise http.client.BadStatusLine(repr(line))
        length = b""
        close = False
        count = 0
        while True:
            line = rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise http.client.LineTooLong("header line")
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > _MAX_HEADERS:
                raise http.client.HTTPException(
                    f"got more than {_MAX_HEADERS} headers")
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = value.strip()
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        try:
            remaining = int(length) if length.isdigit() else -1
        except ValueError:  # more digits than int() will parse
            remaining = -1
        if remaining < 0:
            raise http.client.HTTPException(
                f"reply needs a non-negative integer Content-Length, "
                f"got {length[:40]!r}")
        chunks = []
        while remaining:
            chunk = rfile.read(min(remaining, _READ_CHUNK))
            if not chunk:
                raise http.client.IncompleteRead(b"".join(chunks),
                                                 remaining)
            chunks.append(chunk)
            remaining -= len(chunk)
        if close:
            self.close()
        return _Reply(int(parts[1]), b"".join(chunks))

    def close(self) -> None:
        rfile, self._rfile = self._rfile, None
        sock, self._sock = self._sock, None
        if rfile is not None:
            rfile.close()
        if sock is not None:
            sock.close()


def _is_connect_stage(exc: BaseException) -> bool:
    """Whether the failure happened before the request was sent (safe
    to retry for any operation)."""
    reason = getattr(exc, "reason", exc)
    return isinstance(reason, (ConnectionRefusedError,
                               ConnectionAbortedError))


class _TransportFailure(Exception):
    """Internal: a transport error tagged with where it happened."""

    def __init__(self, cause: BaseException, *, stage: str,
                 reused: bool) -> None:
        super().__init__(str(cause))
        self.cause = cause
        self.stage = stage  # "send" | "response"
        self.reused = reused

    def retriable(self, idempotent: bool) -> bool:
        """Apply the module-doc taxonomy."""
        if idempotent:
            return True
        if self.stage == "send" and self.reused:
            return True  # stale keep-alive: never reached the daemon
        if self.stage == "send" and _is_connect_stage(self.cause):
            return True  # refused before anything was sent
        return False  # mid-flight: ambiguous, caller must decide


class ServeClient:
    """Retrying keep-alive JSON client bound to one daemon base URL."""

    def __init__(self, url: str, timeout: float = 10.0, *,
                 retries: int = 5, backoff: float = 0.05,
                 backoff_max: float = 2.0,
                 sleep=time.sleep, tracer=None,
                 connection_factory=None) -> None:
        if not url.startswith("http://"):
            raise ConfigurationError(
                f"daemon url must start with http://, got {url!r}")
        if not all("\x20" < char < "\x7f" for char in url):
            # The codec writes the request target verbatim: a space or
            # a control character would break (or inject into) the
            # request line.
            raise ConfigurationError(
                f"daemon url must be printable ASCII without spaces, "
                f"got {url!r}")
        if retries < 1:
            raise ConfigurationError(
                f"retries must be >= 1, got {retries!r}")
        if backoff <= 0 or backoff_max < backoff:
            raise ConfigurationError(
                f"need 0 < backoff <= backoff_max, got "
                f"{backoff!r}/{backoff_max!r}")
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_max = float(backoff_max)
        self._sleep = sleep
        #: None defers to the process-wide tracer at call time.
        self._tracer = tracer
        #: Transport retries performed over this client's lifetime.
        self.retried = 0

        split = urllib.parse.urlsplit(self.url)
        if not split.hostname:
            raise ConfigurationError(f"daemon url needs a host, got {url!r}")
        self._path_prefix = split.path.rstrip("/")
        if connection_factory is None:
            connection_factory = functools.partial(
                _Connection, split.hostname, split.port or 80, timeout)
        self._factory = connection_factory
        #: Per-thread persistent connection slot.
        self._local = threading.local()
        #: Every connection ever handed out and not yet discarded, so
        #: close() can release sockets owned by other threads.
        self._conns: list = []
        self._conns_lock = threading.Lock()
        #: Bumped by close(): stashed per-thread connections from an
        #: older generation are stale and must not be reused.
        self._generation = 0

    # -- connection management -----------------------------------------
    def _acquire(self):
        """Take this thread's persistent connection (reused=True) or
        open a fresh one.  The slot is emptied while a request is in
        flight so an exception can never stash a poisoned socket."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            if getattr(self._local, "generation", -1) == self._generation:
                return conn, True
            # close() ran since this was stashed: already closed there.
        conn = self._factory()
        with self._conns_lock:
            self._conns.append(conn)
        return conn, False

    def _stash(self, conn) -> None:
        self._local.conn = conn
        self._local.generation = self._generation

    def _discard(self, conn) -> None:
        try:
            conn.close()
        except Exception:
            pass
        with self._conns_lock:
            try:
                self._conns.remove(conn)
            except ValueError:
                pass

    def close(self) -> None:
        """Close every connection this client opened (all threads).
        The client stays usable -- the next request reconnects."""
        with self._conns_lock:
            conns, self._conns = list(self._conns), []
            self._generation += 1
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- plumbing ------------------------------------------------------
    def _delay(self, attempt: int) -> float:
        """Exponential backoff with deterministic decorrelation jitter
        (golden-ratio phase per attempt: spreads concurrent clients
        without consuming global RNG state)."""
        base = min(self.backoff * (2.0 ** attempt), self.backoff_max)
        jitter = ((attempt + 1) * 0.618033988749895) % 1.0
        return base * (0.5 + 0.5 * jitter)

    def _roundtrip(self, method: str, path: str, data, headers
                   ) -> tuple[int, bytes]:
        """One wire exchange on the thread's persistent connection.
        Tags transport failures with the stage and whether the socket
        was a reused keep-alive one (the retry taxonomy's inputs)."""
        conn, reused = self._acquire()
        stage = "send"
        try:
            conn.request(method, self._path_prefix + path, body=data,
                         headers=headers)
            stage = "response"
            response = conn.getresponse()
            payload = response.read()
        except _TRANSPORT_ERRORS as exc:
            self._discard(conn)
            raise _TransportFailure(exc, stage=stage,
                                    reused=reused) from exc
        self._stash(conn)
        return response.status, payload

    def _request(self, method: str, path: str,
                 body: dict | None = None, *,
                 idempotent: bool = True) -> tuple[int, bytes]:
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        tracer = (self._tracer if self._tracer is not None
                  else get_tracer())
        op = path.strip("/").replace("/", ".") or "root"
        op_span = start_span(f"client.{op}", tracer=tracer,
                             method=method, path=path)
        with op_span:
            op_context = op_span.context
            if op_context is None:
                parent, trace_id = None, new_id()
            else:
                parent, trace_id = op_context, op_context.trace_id
            last: BaseException | None = None
            for attempt in range(self.retries):
                number = attempt + 1
                attempt_span = start_span(
                    "client.request", tracer=tracer, parent=parent,
                    trace_id=trace_id, attempt=number)
                with attempt_span:
                    # The wire context is the attempt span when traced;
                    # otherwise mint ids so the daemon still receives a
                    # client-originated trace-id + attempt number.
                    context = attempt_span.context or SpanContext(
                        trace_id, new_id())
                    headers = {TRACE_HEADER:
                               format_trace_header(context, number)}
                    if data:
                        headers["Content-Type"] = "application/json"
                    try:
                        status, payload = self._roundtrip(
                            method, path, data, headers)
                        # A 4xx/5xx is data, not an exception -- a
                        # 409 rejection is a *result*.
                        attempt_span.set(status=status)
                        op_span.set(status=status, attempts=number)
                        return status, payload
                    except _TransportFailure as failure:
                        exc = failure.cause
                        last = exc
                        attempt_span.set(error=type(exc).__name__,
                                         stage=failure.stage)
                        if not failure.retriable(idempotent):
                            op_span.set(error="mid-flight",
                                        attempts=number)
                            raise ConfigurationError(
                                f"{method} {path} failed mid-flight "
                                f"({exc}); not retrying a "
                                f"non-idempotent operation -- the "
                                f"daemon may have already applied it"
                                ) from exc
                if attempt + 1 < self.retries:
                    self.retried += 1
                    self._sleep(self._delay(attempt))
            op_span.set(error="unreachable", attempts=self.retries)
            raise ConfigurationError(
                f"{method} {path} unreachable after {self.retries} "
                f"attempt(s): {last}") from last

    def _json(self, method: str, path: str,
              body: dict | None = None, *,
              idempotent: bool = True) -> tuple[int, dict]:
        status, payload = self._request(method, path, body,
                                        idempotent=idempotent)
        try:
            return status, json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ConfigurationError(
                f"daemon returned non-JSON for {path}: "
                f"{payload[:120]!r}") from None

    # -- operations ----------------------------------------------------
    def admit(self) -> dict:
        """One admission attempt.  Returns ``{"admitted": bool, ...}``
        -- a 409 rejection is reported, not raised.  Connect-stage and
        stale-keep-alive failures retry; mid-flight ones raise (see
        module docs)."""
        status, data = self._json("POST", "/admit", idempotent=False)
        data["admitted"] = status == 200
        return data

    def admit_many(self, count: int, *, batch: int = 16) -> dict:
        """Admit up to ``count`` streams through ``/admit/batch``,
        split into chunks of ``batch`` tickets per request.

        Stops at the first rejection or partial grant (capacity is
        exhausted; later chunks could only reject).  Returns
        ``{"requested", "granted", "streams", "admitted"}`` where
        ``admitted`` is True iff anything was granted.  Mid-flight
        transport failures raise (non-idempotent), same as
        :meth:`admit`.
        """
        count = int(count)
        if count < 0:
            raise ConfigurationError(
                f"admit_many needs count >= 0, got {count!r}")
        if batch < 1:
            raise ConfigurationError(
                f"batch must be >= 1, got {batch!r}")
        granted = 0
        streams: list[int] = []
        active = None
        remaining = count
        while remaining > 0:
            chunk = min(int(batch), remaining)
            status, data = self._json("POST", "/admit/batch",
                                      {"count": chunk},
                                      idempotent=False)
            if status == 409:
                break
            if status != 200:
                raise ConfigurationError(
                    f"admit batch failed ({status}): "
                    f"{data.get('error')}")
            got = int(data.get("granted", 0))
            granted += got
            streams.extend(int(s) for s in data.get("streams", ()))
            active = data.get("active", active)
            remaining -= chunk
            if got < chunk:
                break  # partial grant: the daemon is at capacity
        result = {"requested": count, "granted": granted,
                  "streams": streams, "admitted": granted > 0}
        if active is not None:
            result["active"] = active
        return result

    def admit_until_reject(self, cap: int = 100_000) -> int:
        """Admit repeatedly until the daemon says no; returns how many
        were admitted.  ``cap`` guards against a daemon that never
        rejects."""
        admitted = 0
        for _ in range(cap):
            if not self.admit()["admitted"]:
                return admitted
            admitted += 1
        raise ConfigurationError(
            f"daemon still admitting after {cap} streams")

    def release(self, stream: int | None = None) -> dict:
        """Release ``stream`` (or the oldest active one).

        Explicit-stream releases are idempotent (a doubled release of
        the same ticket answers 400, which we treat as released) and
        therefore retried mid-flight; anonymous releases pop the
        oldest stream and are connect-stage-retry only.
        """
        body = {"stream": stream} if stream is not None else {}
        status, data = self._json("POST", "/release", body,
                                  idempotent=stream is not None)
        if status != 200:
            raise ConfigurationError(
                f"release failed ({status}): {data.get('error')}")
        return data

    def release_many(self, streams, *, batch: int = 16) -> dict:
        """Release a batch of tickets through ``/release/batch`` in
        chunks of ``batch``.  Idempotent (doubled releases land in
        ``missing``), so mid-flight failures retry.  Returns
        ``{"released", "missing", "active"}`` accumulated over the
        chunks."""
        if batch < 1:
            raise ConfigurationError(
                f"batch must be >= 1, got {batch!r}")
        tickets = [int(s) for s in streams]
        released: list[int] = []
        missing: list[int] = []
        active = None
        for start in range(0, len(tickets), int(batch)):
            chunk = tickets[start:start + int(batch)]
            status, data = self._json("POST", "/release/batch",
                                      {"streams": chunk})
            if status != 200:
                raise ConfigurationError(
                    f"release batch failed ({status}): "
                    f"{data.get('error')}")
            released.extend(int(s) for s in data.get("released", ()))
            missing.extend(int(s) for s in data.get("missing", ()))
            active = data.get("active", active)
        return {"released": released, "missing": missing,
                "active": active}

    def fault(self, kind: str, disk: int = 0,
              factor: float = 1.0) -> dict:
        """Inject one fault event (``slow_disk`` takes ``factor``)."""
        body = {"kind": kind, "disk": disk}
        if factor != 1.0:
            body["factor"] = factor
        status, data = self._json("POST", "/fault", body)
        if status != 200:
            raise ConfigurationError(
                f"fault failed ({status}): {data.get('error')}")
        return data

    def snapshot(self) -> dict:
        """Ask the daemon to persist its crash-safe snapshot now."""
        status, data = self._json("POST", "/snapshot")
        if status != 200:
            raise ConfigurationError(
                f"snapshot failed ({status}): {data.get('error')}")
        return data

    def metrics(self) -> str:
        """Prometheus text exposition from ``/metrics``."""
        status, payload = self._request("GET", "/metrics")
        if status != 200:
            raise ConfigurationError(f"/metrics returned {status}")
        return payload.decode("utf-8")

    def healthz(self) -> dict:
        """Liveness JSON from ``/healthz``."""
        return self._json("GET", "/healthz")[1]

    def state(self) -> dict:
        """Full daemon state JSON from ``/state``."""
        return self._json("GET", "/state")[1]

    def control(self) -> dict:
        """Control-plane JSON from ``/control``."""
        return self._json("GET", "/control")[1]

    def slo(self) -> dict:
        """Error-budget burn-rate state JSON from ``/slo``."""
        return self._json("GET", "/slo")[1]
