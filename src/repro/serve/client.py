"""Keep-alive JSON client for a running ``repro serve`` daemon.

Used by the ``repro admit`` CLI, the serve smoke test, the chaos leg
and benches A23/A27 -- no third-party HTTP library.  Each thread keeps
one persistent ``http.client`` connection to the daemon (HTTP/1.1
keep-alive), so a stream of admits pays the TCP handshake once.
``close()`` (or using the client as a context manager) releases the
sockets; an unclosed client closes them on garbage collection.

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
``http.client.HTTPConnection`` surface) -- the retry contract tests
drive the client against flaky fakes through this seam.
"""

from __future__ import annotations

import http.client
import json
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
#: is a ``ConnectionResetError``; ``HTTPException`` covers the
#: connection-state errors (``CannotSendRequest`` after a half-torn
#: exchange); ``OSError`` covers refused/reset/timeout at the socket.
_TRANSPORT_ERRORS = (http.client.HTTPException, ConnectionError,
                     TimeoutError, OSError)


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
        self._path_prefix = split.path.rstrip("/")
        if connection_factory is None:
            host, port = split.hostname, split.port

            def connection_factory():
                return http.client.HTTPConnection(host, port,
                                                  timeout=self.timeout)

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
            trace_id = (op_span.context.trace_id
                        if op_span.context is not None else new_id())
            last: BaseException | None = None
            for attempt in range(self.retries):
                number = attempt + 1
                attempt_span = start_span(
                    "client.request", tracer=tracer,
                    parent=(op_span if op_span.context is not None
                            else None),
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
                        # Unlike urllib, http.client treats 4xx/5xx as
                        # data, which is what we want -- a 409
                        # rejection is a *result*, not an exception.
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
