"""Distributed spans over the :mod:`repro.obs.trace` event stream.

A *span* is one timed operation with a name, attributes, and a place in
a tree: ``client.admit`` covers one logical admission from the client's
point of view, its ``client.request`` children cover each wire attempt,
and on the daemon side ``http.admit`` ->
``admission.admit`` / ``ledger.append`` descend through the layers
that serve it.  Spans are *not* a second telemetry channel: each one
emits ordinary ``span_start``/``span_end`` records through a
:class:`~repro.obs.trace.Tracer`, so a single JSONL trace file carries
rounds, faults *and* the full causal tree of every admission, and
``repro observe --spans`` rebuilds the trees offline with
:func:`build_span_trees`.

Identity and propagation follow the usual tracing model:

- a :class:`SpanContext` is ``(trace_id, span_id, parent_id)``; every
  span in one logical operation shares the ``trace_id``;
- within a process the active span is kept on a thread-local stack, so
  :func:`start_span` parents new spans automatically (the HTTP handler
  opens ``http.admit``, and ``admission.admit`` started on the same
  thread becomes its child without any signature changes);
- across the wire the context travels in the :data:`TRACE_HEADER`
  (``X-Repro-Trace``) HTTP header as ``trace_id/span_id/attempt`` --
  the client stamps the *attempt number* so retries share the parent
  trace-id and the daemon can tell a retried request from a fresh one
  (and keep its request counters honest).

Records are filed with as few takes of the tracer's lock as the tree
allows: a leaf span (:func:`emit_span`) waits with its parent's
records and is filed with the parent's ``span_end``, and the span
around one request, opened on the lean path of :func:`open_span` (no
:class:`Span` object, no :class:`SpanContext`), files all of its
records when :func:`close_span` ends it.  A span holds at most
:data:`_HOLD_LIMIT` records back; reaching it files them early.
Records filed together share one ``wall`` stamp.

Durations are monotonic (``time.perf_counter``), never wall-clock
differences.  With a disabled tracer :func:`start_span` returns the
shared :data:`NOOP_SPAN`, costing one branch and no allocation -- the
same cost contract the rest of :mod:`repro.obs.trace` keeps.
"""

from __future__ import annotations

import collections
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs.trace import Tracer, get_tracer

__all__ = [
    "TRACE_HEADER",
    "SpanContext",
    "Span",
    "NOOP_SPAN",
    "new_id",
    "start_span",
    "emit_span",
    "open_span",
    "close_span",
    "current_span",
    "format_trace_header",
    "parse_trace_header",
    "SpanNode",
    "build_span_trees",
    "critical_path",
    "render_span_tree",
]

#: HTTP header carrying ``trace_id/parent_span_id/attempt`` across the
#: client -> daemon hop.
TRACE_HEADER = "X-Repro-Trace"

#: Process-unique id prefix + atomic counter: cheaper than a UUID per
#: span on the admission hot path, still unique across processes.
_ID_PREFIX = os.urandom(4).hex()
#: Ids are formatted a block at a time: formatting one per span was the
#: largest single cost of opening a span inside a request.  Each refill
#: takes its own block of counter values (an atomic ``next``), so
#: threads refilling at once never share an id.
_ID_BLOCK = 1024
_ID_BLOCKS = itertools.count(1, _ID_BLOCK)
_ID_POOL: collections.deque = collections.deque()


def new_id() -> str:
    """A fresh process-unique span/trace id (8 hex chars + counter)."""
    try:
        return _ID_POOL.popleft()
    except IndexError:
        first = next(_ID_BLOCKS)
        ids = [f"{_ID_PREFIX}{n:06x}"
               for n in range(first, first + _ID_BLOCK)]
        _ID_POOL.extend(ids[1:])
        return ids[0]


class SpanContext(NamedTuple):
    """Identity of one span: where it belongs and who started it.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    span on the admission hot path and tuple construction is several
    times cheaper than ``object.__setattr__`` per field.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def child(self) -> "SpanContext":
        """A fresh context parented on this one (same trace)."""
        return SpanContext(self.trace_id, new_id(), self.span_id)


def format_trace_header(context: SpanContext, attempt: int = 1) -> str:
    """Serialise ``context`` (+ attempt number) for the wire."""
    return f"{context.trace_id}/{context.span_id}/{int(attempt)}"


def parse_trace_header(value) -> tuple[SpanContext | None, int]:
    """Parse an ``X-Repro-Trace`` value into ``(context, attempt)``.

    Anything malformed -- absent header, wrong arity, empty ids, junk
    attempt -- degrades to ``(None, 1)``: a broken header must never
    turn into a 4xx for an otherwise-valid admission.
    """
    if not value or not isinstance(value, str):
        return None, 1
    parts = value.strip().split("/")
    if len(parts) < 2:
        return None, 1
    trace_id, span_id = parts[0].strip(), parts[1].strip()
    if not trace_id or not span_id or len(value) > 256:
        return None, 1
    attempt = 1
    if len(parts) >= 3:
        try:
            attempt = max(1, int(parts[2]))
        except ValueError:
            attempt = 1
    return SpanContext(trace_id, span_id), attempt


# ----------------------------------------------------------------------
# Live spans
# ----------------------------------------------------------------------

class _Active(threading.local):
    """Per-thread stack of entered spans (``__init__`` runs once in
    each thread that touches it)."""

    def __init__(self) -> None:
        self.stack: list = []


_ACTIVE = _Active()

#: The most records a live span holds back (its own ``span_start``
#: under :func:`open_span`, and its leaves'); reaching it files them.
#: An admit holds five.
_HOLD_LIMIT = 64


def current_span():
    """The innermost active span on this thread (or None): a
    :class:`Span`, or the frame of a span opened by :func:`open_span`
    (it carries the same ``trace_id``/``span_id``)."""
    stack = _ACTIVE.stack
    return stack[-1] if stack else None


class Span:
    """One live timed operation, emitted as ``span_start`` now and
    ``span_end`` on :meth:`finish` (duration from
    ``time.perf_counter``).  Use as a context manager: entering pushes
    it on the thread-local stack so nested :func:`start_span` calls
    parent on it automatically; exiting pops and finishes (stamping
    ``error`` when the body raised).

    The span carries its ids as plain attributes; :attr:`context`
    builds the :class:`SpanContext` only for a caller that asks.  The
    records of leaf spans under it (:func:`emit_span`) wait in
    ``_pending`` and are filed together with its ``span_end``.
    """

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "attrs", "_t0", "_pending")

    def __init__(self, tracer: Tracer, name: str, trace_id: str,
                 span_id: str, parent_id: str | None = None,
                 attrs: dict | None = None) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: dict = {}
        self._pending: list | None = []
        record = {"kind": "span_start", "seq": 0, "wall": 0.0,
                  "trace": trace_id, "span": span_id, "name": name}
        if parent_id is not None:
            record["parent"] = parent_id
        if attrs:
            # start_span hands over a fresh kwargs dict; no copy needed.
            record["attrs"] = attrs
        self._t0 = time.perf_counter()
        tracer.emit_record(record)

    @property
    def context(self) -> SpanContext:
        """This span's identity."""
        return SpanContext(self.trace_id, self.span_id, self.parent_id)

    def set(self, **attrs) -> "Span":
        """Attach attributes, carried on the ``span_end`` record."""
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs) -> None:
        """Emit ``span_end`` with the monotonic duration, after the
        records of its leaf spans, in one filing (idempotent)."""
        records = self._pending
        if records is None:
            return
        self._pending = None
        seconds = time.perf_counter() - self._t0
        if attrs:
            self.attrs.update(attrs)
        record = {"kind": "span_end", "seq": 0, "wall": 0.0,
                  "trace": self.trace_id, "span": self.span_id,
                  "name": self.name, "seconds": seconds}
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        records.append(record)
        self.tracer.emit_records(records)

    def __enter__(self) -> "Span":
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _ACTIVE.stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: out-of-order exits
            stack.remove(self)
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.finish()
        return False

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id})")


class _NoopSpan:
    """The do-nothing span a disabled tracer hands out: no context, no
    records, no thread-local traffic -- one shared instance."""

    __slots__ = ()
    context = None
    name = ""
    attrs: dict = {}

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def finish(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __repr__(self) -> str:
        return "NOOP_SPAN"


NOOP_SPAN = _NoopSpan()


def start_span(name: str, *, tracer: Tracer | None = None,
               parent=None, trace_id: str | None = None,
               **attrs):
    """Open a span (emit ``span_start``) and return it.

    ``tracer`` defaults to the process-wide one; when it is disabled
    the shared :data:`NOOP_SPAN` comes back and nothing is recorded.
    ``parent`` may be a :class:`Span` or :class:`SpanContext`;
    unspecified, the innermost active span on this thread is the
    parent, else the span starts a new trace (``trace_id`` lets a
    caller pin the trace of a parentless span -- the client does this
    so every retry attempt shares one trace)."""
    if tracer is None:
        tracer = get_tracer()
    if not tracer.enabled:
        return NOOP_SPAN
    if parent is None:
        stack = _ACTIVE.stack
        parent = stack[-1] if stack else None
    # A Span, a SpanContext and an open_span frame all carry trace_id
    # and span_id.
    parent_id = getattr(parent, "span_id", None)
    if parent_id is None:
        return Span(tracer, name, trace_id or new_id(), new_id(), None,
                    attrs)
    return Span(tracer, name, parent.trace_id, new_id(), parent_id,
                attrs)


class _Frame:
    """A span opened by :func:`open_span`: what its children need of
    it (tracer, ids, the records waiting to be filed) and what
    :func:`close_span` needs to end it -- without a :class:`Span`."""

    __slots__ = ("tracer", "name", "trace_id", "span_id", "_t0",
                 "_pending")


def open_span(name: str, tracer: Tracer, parent: SpanContext | None,
              attrs: dict | None = None) -> _Frame:
    """The lean path for the span around one request: make it this
    thread's current span (a child of ``parent``, or a new trace)
    until :func:`close_span`, which files all its records at once.

    The records are exactly those of ``with start_span(name,
    tracer=tracer, parent=parent, **attrs)`` -- what it skips is the
    :class:`Span` object, its method calls and one filing: the
    ``span_start`` waits, with the records of the leaf spans under
    it, for the ``span_end``, so a request still in flight is not yet
    in the trace.  The caller guards with ``if tracer.enabled:`` and
    closes the span on the same thread, innermost first.
    """
    frame = _Frame()
    frame.tracer = tracer
    frame.name = name
    if parent is None:
        trace_id = frame.trace_id = new_id()
        span_id = frame.span_id = new_id()
        record = {"kind": "span_start", "seq": 0, "wall": 0.0,
                  "trace": trace_id, "span": span_id, "name": name}
    else:
        trace_id = frame.trace_id = parent.trace_id
        span_id = frame.span_id = new_id()
        record = {"kind": "span_start", "seq": 0, "wall": 0.0,
                  "trace": trace_id, "span": span_id, "name": name,
                  "parent": parent.span_id}
    if attrs:
        record["attrs"] = attrs
    frame._pending = [record]
    frame._t0 = time.perf_counter()
    _ACTIVE.stack.append(frame)
    return frame


def close_span(frame: _Frame, attrs: dict) -> None:
    """End a span opened by :func:`open_span`: pop it and file its
    records, the ``span_end`` (carrying ``attrs``) last, in one
    filing."""
    seconds = time.perf_counter() - frame._t0
    _ACTIVE.stack.pop()
    records = frame._pending
    records.append({"kind": "span_end", "seq": 0, "wall": 0.0,
                    "trace": frame.trace_id, "span": frame.span_id,
                    "name": frame.name, "seconds": seconds,
                    "attrs": attrs})
    frame.tracer.emit_records(records)


def emit_span(name: str, tracer: Tracer, attrs: dict) -> None:
    """Record a finished leaf span under the current span.

    The same ``span_start``/``span_end`` pair as ``with
    start_span(name, tracer=tracer) as span: span.set(**attrs)``, for
    a span that times no work of its own (the admit path's
    ``admission.admit`` and ``ledger.append``), so its ``seconds`` is
    0.  Under a live span of the same tracer the pair waits with that
    span's records and is filed with its ``span_end``, or sooner, once
    the span holds :data:`_HOLD_LIMIT` records, so a long-lived span
    never keeps more than that back; otherwise it is filed at once
    (with no current span, as the root of a new trace).
    ``attrs`` is taken over by the end record.  Callers guard with
    ``if tracer.enabled:``, which also spares the spans-off path
    computing the attribute values.
    """
    stack = _ACTIVE.stack
    if stack:
        parent = stack[-1]
        trace_id = parent.trace_id
        span_id = new_id()
        pair = [{"kind": "span_start", "seq": 0, "wall": 0.0,
                 "trace": trace_id, "span": span_id, "name": name,
                 "parent": parent.span_id},
                {"kind": "span_end", "seq": 0, "wall": 0.0,
                 "trace": trace_id, "span": span_id, "name": name,
                 "seconds": 0.0, "attrs": attrs}]
        held = parent._pending
        if held is not None and parent.tracer is tracer:
            held += pair
            if len(held) < _HOLD_LIMIT:
                return
            parent._pending = []
            pair = held
    else:
        trace_id = new_id()
        span_id = new_id()
        pair = [{"kind": "span_start", "seq": 0, "wall": 0.0,
                 "trace": trace_id, "span": span_id, "name": name},
                {"kind": "span_end", "seq": 0, "wall": 0.0,
                 "trace": trace_id, "span": span_id, "name": name,
                 "seconds": 0.0, "attrs": attrs}]
    tracer.emit_records(pair)


# ----------------------------------------------------------------------
# Offline reconstruction
# ----------------------------------------------------------------------

@dataclass
class SpanNode:
    """One span rebuilt from ``span_start``/``span_end`` records."""

    trace_id: str
    span_id: str
    parent_id: str | None = None
    name: str = "?"
    wall: float = 0.0
    seconds: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    #: Both the start and the end record were present.
    complete: bool = False

    def walk(self):
        """This node then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_span_trees(records) -> list[SpanNode]:
    """Rebuild span trees from trace records (other kinds ignored).

    Spans whose parent never appears in the trace become roots of
    their own tree -- the normal shape for a daemon-side trace whose
    client ran untraced in another process: the ``http.*`` span still
    carries the client's trace-id, it just has nobody above it here.
    A ``span_start`` without its ``span_end`` (request in flight when
    the sink closed, daemon SIGKILLed) yields an incomplete node with
    ``seconds=None`` rather than being dropped.
    """
    nodes: dict[str, SpanNode] = {}
    order: list[str] = []

    def node(trace_id: str, span_id: str) -> SpanNode:
        entry = nodes.get(span_id)
        if entry is None:
            entry = nodes[span_id] = SpanNode(trace_id, span_id)
            order.append(span_id)
        return entry

    for record in records:
        kind = record.get("kind")
        if kind not in ("span_start", "span_end"):
            continue
        span_id = str(record.get("span", ""))
        if not span_id:
            continue
        entry = node(str(record.get("trace", "")), span_id)
        entry.name = str(record.get("name", entry.name))
        attrs = record.get("attrs")
        if isinstance(attrs, dict):
            entry.attrs.update(attrs)
        if kind == "span_start":
            entry.wall = float(record.get("wall", 0.0))
            parent = record.get("parent")
            if parent is not None:
                entry.parent_id = str(parent)
        else:
            seconds = record.get("seconds")
            if isinstance(seconds, (int, float)):
                entry.seconds = float(seconds)
            if not entry.wall:
                entry.wall = float(record.get("wall", 0.0))
            entry.complete = True
    # A start-only span is incomplete; a node first seen via span_end
    # (ring overflow ate the start) keeps complete=True but has no
    # parent edge unless the end record names one.
    for span_id in order:
        entry = nodes[span_id]
        if entry.seconds is None:
            entry.complete = False
    roots: list[SpanNode] = []
    for span_id in order:
        entry = nodes[span_id]
        parent = (nodes.get(entry.parent_id)
                  if entry.parent_id is not None else None)
        if parent is not None and parent is not entry:
            parent.children.append(entry)
        else:
            roots.append(entry)
    for entry in nodes.values():
        entry.children.sort(key=lambda child: child.wall)
    roots.sort(key=lambda root: root.wall)
    return roots


def critical_path(root: SpanNode) -> list[SpanNode]:
    """Root-to-leaf chain following the slowest child at each level --
    the spans an admission's latency actually waited on."""
    path = [root]
    current = root
    while current.children:
        current = max(current.children,
                      key=lambda child: child.seconds or 0.0)
        path.append(current)
    return path


def _format_attrs(attrs: dict, limit: int = 4) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        elif isinstance(value, (str, int, bool)):
            parts.append(f"{key}={value}")
        if len(parts) >= limit:
            break
    return "  ".join(parts)


def render_span_tree(root: SpanNode, indent: str = "") -> list[str]:
    """ASCII lines for one span tree (``repro observe --spans``)."""
    duration = (f"{root.seconds * 1e3:.2f} ms"
                if root.seconds is not None else "(no end record)")
    line = f"{indent}{root.name}  {duration}"
    attrs = _format_attrs(root.attrs)
    if attrs:
        line += f"  [{attrs}]"
    lines = [line]
    for child in root.children:
        lines.extend(render_span_tree(child, indent + "  "))
    return lines
