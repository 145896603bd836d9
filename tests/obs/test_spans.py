"""Span identity, propagation, emission, and tree reconstruction."""

import sys
import threading

import pytest

from repro.obs import NULL_TRACER, Tracer, validate_trace
from repro.obs.spans import (
    _HOLD_LIMIT,
    NOOP_SPAN,
    SpanContext,
    build_span_trees,
    close_span,
    critical_path,
    current_span,
    emit_span,
    format_trace_header,
    new_id,
    open_span,
    parse_trace_header,
    render_span_tree,
    start_span,
)


def make_tracer(**kwargs):
    ticks = iter(range(100_000))
    kwargs.setdefault("clock", lambda: float(next(ticks)))
    return Tracer(**kwargs)


class TestIdentity:
    def test_ids_are_unique(self):
        ids = {new_id() for _ in range(1000)}
        assert len(ids) == 1000

    def test_ids_are_unique_across_threads_and_refills(self):
        """Ids come from blocks formatted on refill; threads refilling
        at once must still never share one."""
        per_thread, threads = 3000, 8
        minted = [[] for _ in range(threads)]

        def mint(out):
            for _ in range(per_thread):
                out.append(new_id())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=mint, args=(out,))
                    for out in minted]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        ids = [i for out in minted for i in out]
        assert len(set(ids)) == len(ids) == per_thread * threads
        assert all(len(i) >= 14 and int(i, 16) >= 0 for i in ids)

    def test_child_context_keeps_trace_and_links_parent(self):
        parent = SpanContext("trace-1", "span-a")
        child = parent.child()
        assert child.trace_id == "trace-1"
        assert child.parent_id == "span-a"
        assert child.span_id != "span-a"


class TestHeaderCodec:
    def test_round_trip_with_attempt(self):
        context = SpanContext("t1", "s1")
        parsed, attempt = parse_trace_header(
            format_trace_header(context, attempt=3))
        assert parsed.trace_id == "t1"
        assert parsed.span_id == "s1"
        assert attempt == 3

    def test_default_attempt_is_one(self):
        parsed, attempt = parse_trace_header("t1/s1")
        assert parsed == SpanContext("t1", "s1")
        assert attempt == 1

    @pytest.mark.parametrize("value", [
        None, "", "noslash", "/", "a/", "/b", "  ", 42,
        "x" * 300 + "/y/1",
    ])
    def test_garbage_degrades_to_untraced(self, value):
        assert parse_trace_header(value) == (None, 1)

    def test_junk_attempt_clamped(self):
        assert parse_trace_header("t/s/bogus")[1] == 1
        assert parse_trace_header("t/s/-4")[1] == 1


class TestLiveSpans:
    def test_span_emits_start_and_end_records(self):
        tracer = make_tracer()
        with start_span("op", tracer=tracer, flavor="x") as span:
            span.set(result=7)
        kinds = [r["kind"] for r in tracer.records()]
        assert kinds == ["span_start", "span_end"]
        start, end = tracer.records()
        assert start["name"] == end["name"] == "op"
        assert start["span"] == end["span"]
        assert start["trace"] == end["trace"]
        assert start["attrs"] == {"flavor": "x"}
        assert end["attrs"]["result"] == 7
        assert end["seconds"] >= 0.0

    def test_trace_with_spans_passes_schema_validation(self):
        tracer = make_tracer()
        tracer.start_run(seed=1)
        with start_span("outer", tracer=tracer):
            with start_span("inner", tracer=tracer):
                pass
        tracer.end_run()
        assert validate_trace(tracer.records()) == []

    def test_nesting_parents_via_thread_local_stack(self):
        tracer = make_tracer()
        with start_span("outer", tracer=tracer) as outer:
            assert current_span() is outer
            with start_span("inner", tracer=tracer) as inner:
                assert inner.context.parent_id == outer.context.span_id
                assert inner.context.trace_id == outer.context.trace_id
        assert current_span() is None

    def test_explicit_context_parent_wins(self):
        tracer = make_tracer()
        remote = SpanContext("remote-trace", "remote-span")
        with start_span("handler", tracer=tracer,
                        parent=remote) as span:
            assert span.context.trace_id == "remote-trace"
            assert span.context.parent_id == "remote-span"

    def test_exception_stamps_error_attribute(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with start_span("boom", tracer=tracer):
                raise ValueError("no")
        end = tracer.records()[-1]
        assert end["kind"] == "span_end"
        assert end["attrs"]["error"] == "ValueError"

    def test_finish_is_idempotent(self):
        tracer = make_tracer()
        span = start_span("once", tracer=tracer)
        span.finish()
        span.finish()
        assert tracer.emitted == 2

    def test_disabled_tracer_returns_shared_noop(self):
        before = NULL_TRACER.emitted
        span = start_span("nothing", tracer=NULL_TRACER)
        assert span is NOOP_SPAN
        with span:
            span.set(x=1)
        assert NULL_TRACER.emitted == before
        assert current_span() is None


def _normalised(records):
    """Span records with ids renamed in order of appearance and the
    stamps and durations blanked, key order kept."""
    names: dict = {}
    shown = []
    for record in records:
        row = {}
        for key, value in record.items():
            if key in ("trace", "span", "parent"):
                value = names.setdefault(value, f"id{len(names)}")
            elif key in ("seq", "wall", "seconds"):
                value = "*"
            row[key] = value
        shown.append(row)
    return shown


class TestFiling:
    """Leaf spans wait for their parent; a request span files once."""

    def test_leaves_are_filed_with_the_parent_end(self):
        tracer = make_tracer()
        tracer.start_run(seed=0)
        with start_span("op", tracer=tracer) as span:
            emit_span("leaf", tracer, {"n": 1})
            assert [r["name"] for r in tracer.records()[1:]] == ["op"]
            assert current_span() is span
        kinds = [(r["kind"], r["name"]) for r in tracer.records()[1:]]
        assert kinds == [("span_start", "op"), ("span_start", "leaf"),
                         ("span_end", "leaf"), ("span_end", "op")]
        leaf_start, leaf_end = tracer.records()[2:4]
        assert leaf_start["parent"] == span.span_id
        assert leaf_end["attrs"] == {"n": 1}
        assert leaf_end["seconds"] == 0.0
        assert validate_trace(tracer.records()) == []

    def test_leaf_without_a_span_is_a_root_filed_at_once(self):
        tracer = make_tracer()
        emit_span("alone", tracer, {"n": 2})
        start, end = tracer.records()
        assert "parent" not in start
        assert start["trace"] == end["trace"] != start["span"]
        assert end["attrs"] == {"n": 2}

    def test_leaf_under_another_tracers_span_is_filed_at_once(self):
        outer, inner = make_tracer(), make_tracer()
        with start_span("op", tracer=outer) as span:
            emit_span("leaf", inner, {"n": 3})
            start, _end = inner.records()
            assert start["parent"] == span.span_id
            assert start["trace"] == span.trace_id
        assert [r["name"] for r in outer.records()] == ["op", "op"]

    def test_open_span_records_equal_start_span_records(self):
        via_span, lean = make_tracer(), make_tracer()
        via_span.start_run(seed=0)
        lean.start_run(seed=0)
        remote = SpanContext("client-trace", "client-span")
        with start_span("http.admit", tracer=via_span, parent=remote,
                        attempt=2) as span:
            emit_span("admission.admit", via_span, {"granted": True})
            emit_span("ledger.append", via_span, {"stream": 0})
            span.set(status=200)
        frame = open_span("http.admit", lean, remote, {"attempt": 2})
        assert current_span() is frame
        emit_span("admission.admit", lean, {"granted": True})
        emit_span("ledger.append", lean, {"stream": 0})
        assert len(lean.records()) == 1  # filed only when it closes
        close_span(frame, {"status": 200})
        assert current_span() is None
        assert _normalised(lean.records()) == _normalised(
            via_span.records())
        assert lean.records()[1]["trace"] == "client-trace"
        assert validate_trace(lean.records()) == []

    def test_open_span_without_parent_starts_a_trace(self):
        tracer = make_tracer()
        frame = open_span("http.fault", tracer, None)
        with start_span("nested", tracer=tracer) as nested:
            assert nested.parent_id == frame.span_id
            assert nested.trace_id == frame.trace_id
        close_span(frame, {"error": "OSError"})
        start = [r for r in tracer.records() if r["name"] == "http.fault"]
        assert "parent" not in start[0]
        assert start[1]["attrs"] == {"error": "OSError"}

    def test_long_lived_span_holds_at_most_the_limit(self):
        tracer = make_tracer()
        tracer.start_run(seed=0)
        leaves = 3 * _HOLD_LIMIT
        with start_span("embedding", tracer=tracer) as span:
            for n in range(leaves):
                emit_span("leaf", tracer, {"n": n})
                # run_start and the span's own start are filed too.
                held = 2 * (n + 1) - (len(tracer.records()) - 2)
                assert 0 <= held < _HOLD_LIMIT
        records = tracer.records()
        assert len(records) == 2 * leaves + 3
        assert [r["attrs"]["n"] for r in records
                if r["kind"] == "span_end" and r["name"] == "leaf"] == (
            list(range(leaves)))
        assert validate_trace(records) == []
        (root,) = build_span_trees(records)
        assert root.span_id == span.span_id
        assert len(root.children) == leaves

    def test_request_span_files_early_at_the_limit(self):
        tracer = make_tracer()
        frame = open_span("http.admit_batch", tracer, None)
        for n in range(_HOLD_LIMIT):
            emit_span("leaf", tracer, {"n": n})
        assert tracer.records()[0]["name"] == "http.admit_batch"
        close_span(frame, {"status": 200})
        records = tracer.records()
        assert len(records) == 2 * _HOLD_LIMIT + 2
        (root,) = build_span_trees(records)
        assert root.complete and len(root.children) == _HOLD_LIMIT

    def test_records_filed_together_share_seq_run_and_wall(self):
        tracer = Tracer()
        tracer.emit("before")
        tracer.emit_records([{"kind": "a", "seq": 0, "wall": 0.0},
                             {"kind": "b", "seq": 0, "wall": 0.0}])
        before, first, second = tracer.records()
        assert (first["seq"], second["seq"]) == (1, 2)
        assert first["wall"] == second["wall"] >= before["wall"]
        assert tracer.emitted == 3


class TestTreeReconstruction:
    def build(self, tracer):
        return build_span_trees(tracer.records())

    def test_exact_tree_rebuilt(self):
        tracer = make_tracer()
        with start_span("root", tracer=tracer):
            with start_span("a", tracer=tracer):
                with start_span("leaf", tracer=tracer):
                    pass
            with start_span("b", tracer=tracer):
                pass
        roots = self.build(tracer)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["leaf"]
        assert all(node.complete for node in root.walk())
        assert len({node.trace_id for node in root.walk()}) == 1

    def test_missing_parent_becomes_root(self):
        tracer = make_tracer()
        orphan_parent = SpanContext("shared-trace", "never-emitted")
        with start_span("handler", tracer=tracer,
                        parent=orphan_parent):
            pass
        roots = self.build(tracer)
        assert [r.name for r in roots] == ["handler"]
        assert roots[0].parent_id == "never-emitted"

    def test_start_without_end_is_incomplete(self):
        tracer = make_tracer()
        start_span("inflight", tracer=tracer)  # never finished
        roots = self.build(tracer)
        assert roots[0].complete is False
        assert roots[0].seconds is None
        assert "(no end record)" in render_span_tree(roots[0])[0]

    def test_critical_path_follows_slowest_child(self):
        fast = {"kind": "span_end", "trace": "t", "span": "f",
                "name": "fast", "seconds": 0.001}
        slow = {"kind": "span_end", "trace": "t", "span": "s",
                "name": "slow", "seconds": 0.5}
        records = [
            {"kind": "span_start", "trace": "t", "span": "r",
             "name": "root", "wall": 0.0},
            {"kind": "span_start", "trace": "t", "span": "f",
             "name": "fast", "parent": "r", "wall": 1.0},
            {"kind": "span_start", "trace": "t", "span": "s",
             "name": "slow", "parent": "r", "wall": 2.0},
            fast, slow,
            {"kind": "span_end", "trace": "t", "span": "r",
             "name": "root", "seconds": 0.6},
        ]
        (root,) = build_span_trees(records)
        assert [n.name for n in critical_path(root)] == ["root", "slow"]

    def test_non_span_records_ignored(self):
        tracer = make_tracer()
        tracer.start_run(seed=0)
        tracer.emit("cache_hit", layer="memory")
        with start_span("only", tracer=tracer):
            pass
        roots = self.build(tracer)
        assert [r.name for r in roots] == ["only"]

    def test_render_includes_duration_and_attrs(self):
        tracer = make_tracer()
        with start_span("op", tracer=tracer) as span:
            span.set(status=200)
        lines = render_span_tree(self.build(tracer)[0])
        assert "op" in lines[0]
        assert "ms" in lines[0]
        assert "status=200" in lines[0]
