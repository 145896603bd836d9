"""Structured event tracing with a ring buffer and JSONL sink.

A :class:`Tracer` records typed event dicts: every record carries the
event ``kind``, a monotone sequence number ``seq``, a wall-clock stamp
``wall`` and (when the event happened inside a simulation) the
simulation time ``t``; kind-specific fields ride along flat.  Records
land in a bounded in-memory ring buffer and, when a sink is
configured, are appended to a JSONL file one object per line -- the
format :func:`read_trace` and ``repro observe`` consume.

Cost contract: instrumented code guards every emission with
``if tracer.enabled:`` so that a disabled tracer costs exactly one
attribute load and branch per event -- no argument tuples, no field
dicts, no record allocation.  :data:`NULL_TRACER` is the shared
disabled instance the instrumentation layers default to.

The record schema is versioned (:data:`TRACE_SCHEMA_VERSION`) and
validated by :func:`validate_record` / :func:`validate_trace`; the CI
smoke leg runs the validator over a freshly recorded fault-injection
trace.  See ``docs/OBSERVABILITY.md`` for the catalogue.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "EVENT_KINDS",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "read_trace",
    "read_trace_lenient",
    "publish_trace_metrics",
    "validate_record",
    "validate_trace",
]

#: Bump when record fields change incompatibly; ``run_start`` records
#: carry it so readers can refuse traces they do not understand.
TRACE_SCHEMA_VERSION = 1

#: Event kinds and the extra fields each one requires (beyond the
#: common ``kind``/``seq``/``wall``).  ``t`` is required where the
#: event is anchored in simulation time.
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    # run lifecycle
    "run_start": ("seed", "schema"),
    "run_end": (),
    # server / scheduler
    "round_dispatch": ("t", "round", "active_streams", "failed_disks"),
    "sweep_start": ("t", "round", "disk", "batch"),
    "sweep": ("t", "round", "disk", "service", "late", "served",
              "glitched"),
    "fragment_glitch": ("t", "round", "disk", "stream"),
    # One record per (disk, round) with the on-time fragments'
    # completion latencies (seconds past the round boundary), aligned
    # lists streams/latencies/classes -- the per-stream latency
    # telemetry input, batched to keep tracing off the per-request path.
    "latency_batch": ("t", "round", "disk", "streams", "latencies",
                      "classes"),
    "stream_admit": ("stream", "object", "start_round"),
    "stream_shed": ("round", "stream", "action"),
    "stream_resume": ("round", "stream"),
    "fault": ("t", "desc"),
    # distributed spans (repro.obs.spans): one timed operation each,
    # trace/span/parent ids tie them into per-admission trees.
    "span_start": ("trace", "span", "name"),
    "span_end": ("trace", "span", "name", "seconds"),
    # serve measurement plane: one record per probed daemon round --
    # the offline SLO burn-rate replay input (``repro slo``).
    "round_observe": ("round", "disk_rounds", "late_disk_rounds",
                      "requests", "glitched", "degraded", "bound"),
    # analytic / cache layer
    "cache_hit": ("layer",),
    "cache_miss": ("layer",),
    "bound_solve": ("seconds",),
    # parallel fan-out
    "worker_task": ("phase", "task"),
}


class Tracer:
    """Bounded structured event recorder.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest records are dropped (and counted
        in :attr:`dropped`) once it fills.  The JSONL sink is
        unaffected by the ring -- every emitted record is written.
        The default is deliberately modest: the ring is a live
        debugging aid, and tens of thousands of retained record dicts
        are a measurable garbage-collector burden on the admission
        hot path (every full collection walks them).
    sink:
        ``None``, a path (opened lazily, closed by :meth:`close`), or a
        file-like object with ``write`` (left open).
    enabled:
        Start disabled to pre-wire instrumentation at zero cost.
    clock:
        Wall-clock source (injectable for tests); defaults to
        :func:`time.time`.
    """

    __slots__ = ("enabled", "capacity", "_cleared", "_records",
                 "_seq", "_sink", "_sink_path", "_owns_sink", "_clock",
                 "_emit_lock", "_pending", "_write_lock", "_has_sink")

    def __init__(self, capacity: int = 4096, sink=None,
                 enabled: bool = True, clock=time.time) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"tracer capacity must be >= 1, got {capacity!r}")
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        #: Records removed by :meth:`clear` (not evictions).
        self._cleared = 0
        self._records: deque = deque(maxlen=self.capacity)
        self._seq = 0
        self._sink = None
        self._sink_path: Path | None = None
        self._owns_sink = False
        self._clock = clock
        # The serve daemon emits from many HTTP worker threads plus the
        # round ticker at once; seq must stay strictly increasing and a
        # JSONL line must never interleave.  Disabled tracers return
        # before ever touching the lock.
        self._emit_lock = threading.Lock()
        # Sink writes are deferred: emit() only appends the record to
        # ``_pending`` (no JSON encoding on the hot path) and the
        # serialisation happens in :meth:`flush` -- per control round
        # in the serve daemon, at ``_PENDING_FLUSH`` records otherwise,
        # always on :meth:`close`.  ``_write_lock`` orders concurrent
        # drains so the JSONL stays in seq order.
        self._pending: list = []
        self._write_lock = threading.Lock()
        if sink is not None:
            if hasattr(sink, "write"):
                self._sink = sink
            else:
                self._sink_path = Path(sink)
        self._has_sink = sink is not None

    # ------------------------------------------------------------------
    def emit(self, kind: str, t: float | None = None, **fields) -> dict:
        """Record one event; returns the record (or ``{}`` if disabled).

        Hot paths must guard with ``if tracer.enabled:`` -- calling
        ``emit`` already costs the keyword-dict allocation.
        """
        if not self.enabled:
            return {}
        if t is not None:
            fields["t"] = float(t)
        return self.emit_fields(kind, fields)

    def emit_fields(self, kind: str, fields: dict) -> dict:
        """:meth:`emit` without the kwargs repack: ``fields`` is taken
        over by the record (the span layer builds its payload dict once
        and hands it straight here -- one less dict per record on the
        admission hot path).  The caller must not reuse ``fields``."""
        if not self.enabled:
            return {}
        record = {"kind": kind, "seq": 0, "wall": 0.0}
        record.update(fields)
        return self.emit_record(record)

    def emit_record(self, record: dict) -> dict:
        """The zero-copy emit core: ``record`` already carries
        ``kind`` (plus placeholder ``seq``/``wall`` slots so the JSONL
        keeps its envelope-first key order) and is stamped and filed
        in place -- no second dict per record.  The caller hands over
        ownership and must not mutate ``record`` afterwards."""
        if not self.enabled:
            return {}
        with self._emit_lock:
            record["seq"] = self._seq
            record["wall"] = self._clock()
            self._seq += 1
            self._records.append(record)
            if self._has_sink:
                self._pending.append(record)
        if len(self._pending) >= _PENDING_FLUSH:
            self._drain()
        return record

    def emit_records(self, records: list) -> None:
        """:meth:`emit_record` for several records at once: filed in
        order, with consecutive ``seq`` values and one ``wall`` stamp,
        under one acquisition of the emit lock.  The caller hands over
        the list and its records."""
        if not self.enabled:
            return
        with self._emit_lock:
            wall = self._clock()
            for seq, record in enumerate(records, self._seq):
                record["seq"] = seq
                record["wall"] = wall
            self._seq += len(records)
            self._records.extend(records)
            if self._has_sink:
                self._pending.extend(records)
        if len(self._pending) >= _PENDING_FLUSH:
            self._drain()

    @property
    def emitted(self) -> int:
        """Records emitted so far (one ``seq`` each)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Records the full ring evicted to make room (the sink keeps
        them).  Derived, so :meth:`emit_record` counts nothing twice."""
        return self._seq - len(self._records) - self._cleared

    def start_run(self, seed: int | None = None, **config) -> dict:
        """Emit the ``run_start`` header record (seed- and schema-
        stamped); free-form ``config`` fields ride along."""
        return self.emit("run_start", seed=seed,
                         schema=TRACE_SCHEMA_VERSION, **config)

    def end_run(self, **fields) -> dict:
        """Emit the closing ``run_end`` record."""
        return self.emit("run_end", **fields)

    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Copy of the ring buffer, oldest first."""
        return list(self._records)

    def clear(self) -> None:
        """Drop buffered records (the sink file is untouched)."""
        with self._emit_lock:
            self._cleared += len(self._records)
            self._records.clear()

    def _resolve_sink(self):
        if self._sink is None and self._sink_path is not None:
            self._sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = self._sink_path.open("w", encoding="utf-8")
            self._owns_sink = True
        return self._sink

    def _drain(self) -> None:
        """Serialise and write the pending records (order-preserving:
        the swap happens under the emit lock while the write lock is
        held, so concurrent drains cannot reorder batches)."""
        with self._write_lock:
            with self._emit_lock:
                if not self._pending:
                    return
                pending, self._pending = self._pending, []
                sink = self._resolve_sink()
            if sink is not None:
                if _C_ENCODE is not None:
                    chunks: list = []
                    for record in pending:
                        chunks += _C_ENCODE(record, 0)
                        chunks.append("\n")
                else:  # pragma: no cover
                    chunks = [_JSON_ENCODER.encode(record) + "\n"
                              for record in pending]
                sink.write("".join(chunks))

    def flush(self) -> None:
        """Drain deferred records to the sink and flush it."""
        self._drain()
        if self._sink is not None and hasattr(self._sink, "flush"):
            self._sink.flush()

    def close(self) -> None:
        """Drain and close a tracer-owned sink file (idempotent)."""
        self._drain()
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None
        self._owns_sink = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"Tracer({state}, emitted={self.emitted}, "
                f"buffered={len(self._records)})")


def _jsonable(value):
    """JSON fallback for numpy scalars and sets in event fields."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


#: One shared encoder (building one per record is measurable on the
#: admission hot path) and the backstop drain threshold for tracers
#: nobody flushes periodically -- small enough that a backstop drain
#: is a ~1ms blip rather than a multi-ms stall of whichever emitter
#: crosses the threshold.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"),
                                 default=_jsonable)
_PENDING_FLUSH = 1024

# The stdlib pays a fixed per-call cost rebuilding its C encoder in
# every ``encode()``; caching the C callable once roughly halves the
# per-record serialisation cost of a drain.  Falls back to the plain
# encoder on interpreters without the accelerator.
try:
    import json.encoder as _json_encoder_mod
    _C_ENCODE = _json_encoder_mod.c_make_encoder(
        None, _jsonable, _json_encoder_mod.encode_basestring_ascii,
        None, ":", ",", False, False, True)
except (ImportError, AttributeError, TypeError):  # pragma: no cover
    _C_ENCODE = None


#: The shared disabled tracer; instrumentation layers default to it so
#: a server without tracing pays one ``tracer.enabled`` check per event.
NULL_TRACER = Tracer(capacity=1, enabled=False)

_CURRENT: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide tracer (``NULL_TRACER`` unless one was set)."""
    return _CURRENT


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the process-wide default (``None``
    restores :data:`NULL_TRACER`); returns the installed tracer."""
    global _CURRENT
    if tracer is None:
        tracer = NULL_TRACER
    if not isinstance(tracer, Tracer):
        raise ConfigurationError(f"expected a Tracer, got {tracer!r}")
    _CURRENT = tracer
    return tracer


# ----------------------------------------------------------------------
# Reading and validating recorded traces
# ----------------------------------------------------------------------

def read_trace(path) -> list[dict]:
    """Parse a JSONL trace file into a list of record dicts."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ConfigurationError(
                    f"{path}:{lineno}: trace records must be objects, "
                    f"got {type(record).__name__}")
            records.append(record)
    return records


def read_trace_lenient(path) -> tuple[list[dict], list[str]]:
    """Parse a JSONL trace, tolerating damage; returns
    ``(records, problems)``.

    :func:`read_trace` is strict -- right for validation, wrong for a
    post-mortem: the trace of a SIGKILLed daemon usually ends in a
    half-written line, and an operator reading the wreckage wants the
    intact prefix plus a one-line diagnosis, not a parser traceback.
    Rules: blank lines are skipped; an unparseable *final* line is
    reported as truncation (the SIGKILL signature) and the prefix kept;
    unparseable or non-object lines elsewhere are reported and skipped.
    An empty file yields ``([], [])`` -- the caller decides what an
    empty trace means.
    """
    records: list[dict] = []
    problems: list[str] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        lines = handle.readlines()
    numbered = [(lineno, line.strip())
                for lineno, line in enumerate(lines, start=1)]
    numbered = [(lineno, line) for lineno, line in numbered if line]
    for position, (lineno, line) in enumerate(numbered):
        last = position == len(numbered) - 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if last:
                problems.append(
                    f"line {lineno}: truncated final record "
                    f"(half-written line -- daemon killed mid-write?)")
            else:
                problems.append(
                    f"line {lineno}: unparseable record skipped")
            continue
        if not isinstance(record, dict):
            problems.append(
                f"line {lineno}: non-object record skipped "
                f"({type(record).__name__})")
            continue
        records.append(record)
    return records, problems


def publish_trace_metrics(registry, tracer: Tracer | None = None) -> None:
    """Mirror a tracer's loss/volume counters into a metrics registry.

    Follows the ``publish_cache_metrics`` idiom: safe to call on every
    scrape.  ``trace_emitted_total``/``trace_dropped_total`` are real
    Prometheus counters advanced by the delta since the last publish,
    so silent ring-buffer loss is visible to operators instead of only
    living on the Tracer instance.
    """
    if tracer is None:
        tracer = get_tracer()
    emitted = registry.counter(
        "trace_emitted_total",
        help="Trace records emitted by the tracer")
    emitted.inc(max(0.0, tracer.emitted - emitted.value))
    dropped = registry.counter(
        "trace_dropped_total",
        help="Trace records evicted from the ring buffer (sink files "
        "are unaffected)")
    dropped.inc(max(0.0, tracer.dropped - dropped.value))
    registry.gauge(
        "trace_buffered_records",
        help="Trace records currently held in the ring buffer"
        ).set(len(tracer))
    registry.gauge(
        "trace_ring_capacity",
        help="Ring buffer capacity of the tracer"
        ).set(tracer.capacity)
    registry.gauge(
        "trace_enabled",
        help="1 while the tracer is recording"
        ).set(1 if tracer.enabled else 0)


def validate_record(record: dict, index: int | None = None) -> list[str]:
    """Schema problems of one record (empty list = valid).

    Checks the common envelope (``kind``/``seq``/``wall``), that the
    kind is in the catalogue, and that the kind's required fields are
    present.  Unknown extra fields are allowed (forward compatible).
    """
    where = f"record {index}" if index is not None else "record"
    problems = []
    kind = record.get("kind")
    if not isinstance(kind, str):
        return [f"{where}: missing or non-string 'kind'"]
    if kind not in EVENT_KINDS:
        return [f"{where}: unknown kind {kind!r}"]
    if not isinstance(record.get("seq"), int):
        problems.append(f"{where} ({kind}): missing integer 'seq'")
    if not isinstance(record.get("wall"), (int, float)):
        problems.append(f"{where} ({kind}): missing numeric 'wall'")
    for field in EVENT_KINDS[kind]:
        if field == "t":
            if not isinstance(record.get("t"), (int, float)):
                problems.append(f"{where} ({kind}): missing numeric 't'")
        elif field not in record:
            problems.append(f"{where} ({kind}): missing field {field!r}")
    return problems


def validate_trace(records) -> list[str]:
    """Schema problems across a whole trace (empty list = valid).

    Beyond per-record checks: the trace must open with ``run_start``,
    declare a schema version this reader understands, and keep ``seq``
    strictly increasing.
    """
    records = list(records)
    problems = []
    if not records:
        return ["trace is empty"]
    head = records[0]
    if head.get("kind") != "run_start":
        problems.append("trace does not start with a run_start record")
    elif head.get("schema") != TRACE_SCHEMA_VERSION:
        problems.append(
            f"trace schema {head.get('schema')!r} != supported "
            f"{TRACE_SCHEMA_VERSION}")
    last_seq = None
    for index, record in enumerate(records):
        problems.extend(validate_record(record, index))
        seq = record.get("seq")
        if isinstance(seq, int):
            if last_seq is not None and seq <= last_seq:
                problems.append(
                    f"record {index}: seq {seq} not increasing "
                    f"(previous {last_seq})")
            last_seq = seq
    return problems
