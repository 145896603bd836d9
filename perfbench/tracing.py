"""In-memory span recorder for the benchmark's traced runs.

The traced run times calls into each layer's public functions from the
benchmark's own code: :func:`install` replaces a function or method with
a wrapper that records one span per call.  Nothing in ``src/`` changes.

A span is ``(name, start, end, self_s, trace, status)``.  Times come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans of the
load generator and of the daemon share one clock and can be joined.
``self_s`` is the span's duration minus the time its child spans cover;
children are the wrapped calls made on the same thread while the span
is open.  ``trace`` is the ``X-Repro-Trace`` trace id of the request the
span served (None outside a request); a span inherits it from the span
open around it.  ``status`` is the HTTP status sent.

Spans stay in memory; :meth:`Recorder.dump` writes them out once, when
the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time

from repro.obs.spans import TRACE_HEADER, parse_trace_header

_clock = time.perf_counter


class _Frame:
    """An open span on one thread's stack."""

    __slots__ = ("start", "child", "trace", "status", "valid")

    def __init__(self, start: float) -> None:
        self.start = start
        self.child = 0.0
        self.trace = None
        self.status = None
        self.valid = True


class Recorder:
    """Collects spans from wrapped calls, on any number of threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def outermost(self) -> _Frame | None:
        """The outermost open span on this thread (None outside one)."""
        stack = self._stack()
        return stack[0] if stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, fn, name: str, on_result=None):
        """Return ``fn`` wrapped to record a span called ``name``.

        ``on_result(frame, args, kwargs, result)`` may annotate the span
        or bump counters after a call that returned normally.
        """
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            frame = _Frame(_clock())
            if stack:
                frame.trace = stack[-1].trace
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                if on_result is not None:
                    on_result(frame, args, kwargs, result)
                if frame.valid:
                    duration = end - frame.start
                    if stack:
                        stack[-1].child += duration
                    spans.append((name, frame.start, end,
                                  duration - frame.child, frame.trace,
                                  frame.status))

        return wrapper

    def dump(self, path, extra: dict | None = None) -> None:
        """Write every recorded span and counter to ``path`` (JSON)."""
        document = {"spans": self.spans, "counters": self.counters,
                    "extra": extra or {}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def install(recorder: Recorder, owner, attr: str, name: str,
            on_result=None) -> None:
    """Replace ``owner.attr`` (a module function or a class method) by
    a span-recording wrapper."""
    fn = getattr(owner, attr)
    setattr(owner, attr, recorder.wrap(fn, name, on_result))


def trace_id_of(header: str | None) -> str | None:
    """Trace id of an ``X-Repro-Trace`` value; None when malformed."""
    context = parse_trace_header(header)[0]
    return context.trace_id if context is not None else None


def cache_stats() -> dict:
    """Counters of the process-wide bound cache."""
    from repro.cache import get_cache

    stats = get_cache().stats
    return {"hits": stats.hits, "misses": stats.misses,
            "disk_hits": stats.disk_hits, "uncached": stats.uncached}


# -- reading spans back ---------------------------------------------------

def group_spans(spans) -> dict[str, list]:
    """``name -> [(start, end, self_s, status), ...]``."""
    by_name: dict[str, list] = {}
    for name, start, end, self_s, _, status in spans:
        by_name.setdefault(name, []).append((start, end, self_s, status))
    return by_name


def total_ms(by_name: dict, name: str) -> float:
    """Summed duration of every span called ``name``, in ms."""
    return sum(end - start for start, end, *_ in by_name.get(name, ())) * 1e3


def model_layers(by_name: dict, counters: dict, import_ms: float,
                 cache: dict) -> dict:
    """Start-up, cache and model-layer metrics shared by every workload."""

    def calls(name):
        return len(by_name.get(name, ()))

    looked = cache.get("hits", 0) + cache.get("disk_hits", 0)
    solved = cache.get("misses", 0)
    return {
        "setup.import_ms": (import_ms, "ms"),
        "cache.solves": (solved + cache.get("uncached", 0), "count"),
        "cache.hit_ratio": (looked / (looked + solved)
                            if looked + solved else 0.0, "ratio"),
        "cache.preload_ms": (total_ms(by_name, "cache.preload"), "ms"),
        "cache.preloaded_entries": (
            counters.get("cache.preloaded_entries", 0.0), "count"),
        "core.table_build_ms": (total_ms(by_name, "core.table_build"), "ms"),
        "core.chernoff_calls": (calls("core.chernoff"), "count"),
        "core.chernoff_ms": (total_ms(by_name, "core.chernoff"), "ms"),
        "core.b_late_calls": (calls("core.b_late"), "count"),
        "core.b_late_ms": (total_ms(by_name, "core.b_late"), "ms"),
        "core.p_error_calls": (calls("core.p_error"), "count"),
        "core.p_error_ms": (total_ms(by_name, "core.p_error"), "ms"),
    }


# -- the layers -----------------------------------------------------------

def install_model(recorder: Recorder) -> None:
    """Model layers: table build, Chernoff solve, b_late, p_error,
    persistent-cache preload."""
    import repro.core.service_time as service_time
    from repro.cache import PersistentCache
    from repro.core import AdmissionTable, GlitchModel, RoundServiceTimeModel

    def preloaded(frame, args, kwargs, result):
        recorder.count("cache.preloaded_entries", result or 0)

    install(recorder, AdmissionTable, "build", "core.table_build")
    # b_late reaches the solver through service_time's own binding.
    install(recorder, service_time, "chernoff_tail_bound", "core.chernoff")
    install(recorder, RoundServiceTimeModel, "b_late", "core.b_late")
    install(recorder, GlitchModel, "p_error", "core.p_error")
    install(recorder, PersistentCache, "preload", "cache.preload",
            preloaded)


def install_daemon(recorder: Recorder) -> None:
    """Daemon-side layers: HTTP handler, daemon, ledger, metrics,
    snapshots (plus the model layers the daemon builds at start-up)."""
    import repro.serve.daemon as daemon_module
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.daemon import ServeDaemon
    from repro.serve.http import _Handler
    from repro.server.admission import ShardedAdmissionController

    install_model(recorder)

    def handled(frame, args, kwargs, result):
        # The keep-alive loop blocks in handle_one_request waiting for
        # the next request line; parse_request marks its arrival.  A
        # call that parsed nothing (the client hung up) is no request.
        if not getattr(args[0], "_perfbench_parsed", False):
            frame.valid = False
        else:
            frame.start = args[0]._perfbench_parsed
            args[0]._perfbench_parsed = False

    handle = recorder.wrap(_Handler.handle_one_request, "http.handle",
                           handled)
    _Handler.handle_one_request = handle

    parse = _Handler.parse_request

    @functools.wraps(parse)
    def parse_request(self):
        self._perfbench_parsed = _clock()
        ok = parse(self)
        frame = recorder.outermost()
        if frame is not None and ok:
            frame.trace = trace_id_of(self.headers.get(TRACE_HEADER))
        return ok

    _Handler.parse_request = parse_request

    send_response = _Handler.send_response

    @functools.wraps(send_response)
    def send_status(self, code, message=None):
        frame = recorder.outermost()
        if frame is not None:
            frame.status = int(code)
        return send_response(self, code, message)

    _Handler.send_response = send_status

    install(recorder, _Handler, "do_POST", "http.do_POST")
    install(recorder, _Handler, "do_GET", "http.do_GET")

    for method in ("admit", "admit_many", "release", "release_many",
                   "fault", "state", "refresh_export_metrics"):
        install(recorder, ServeDaemon, method, f"daemon.{method}")

    def granted(frame, args, kwargs, result):
        requested = args[1] if len(args) > 1 else kwargs.get("count", 1)
        recorder.count("admission.requested", int(requested))
        if result is not None:
            recorder.count("admission.granted", int(result))

    install(recorder, ShardedAdmissionController, "admit_batch",
            "admission.admit_batch", granted)
    install(recorder, ShardedAdmissionController, "release_on",
            "admission.release_on")
    install(recorder, MetricsRegistry, "to_prometheus",
            "metrics.to_prometheus")
    # The daemon calls the snapshot functions through its own bindings.
    install(recorder, daemon_module, "write_snapshot", "snapshot.write")
    install(recorder, daemon_module, "read_snapshot", "snapshot.read")


def install_client(recorder: Recorder) -> None:
    """Client layer: the ServeClient operations the generator calls."""
    from repro.serve.client import ServeClient

    for method in ("admit", "admit_many", "release", "release_many",
                   "fault", "metrics", "state", "healthz"):
        install(recorder, ServeClient, method, f"client.{method}")

    roundtrip = ServeClient._roundtrip

    @functools.wraps(roundtrip)
    def tagged(self, method, path, data, headers):
        frame = recorder.outermost()
        if frame is not None:
            frame.trace = trace_id_of(headers.get(TRACE_HEADER))
        return roundtrip(self, method, path, data, headers)

    ServeClient._roundtrip = tagged


def install_pipeline(recorder: Recorder) -> None:
    """Paper-pipeline layers: model, scenario compiler/simulator and
    the parallel fan-out."""
    import repro.parallel as parallel
    import repro.server.scenario as scenario

    install_model(recorder)
    install(recorder, scenario, "compile_scenario", "scenario.compile")
    install(recorder, scenario, "simulate_scenario", "scenario.simulate")

    def fanned(frame, args, kwargs, result):
        recorder.count("parallel.tasks", len(result or ()))

    install(recorder, parallel, "fan_out", "parallel.fan_out", fanned)
