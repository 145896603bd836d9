"""Span identity, propagation, emission, and tree reconstruction."""

import sys
import threading

import pytest

from repro.obs import NULL_TRACER, Tracer, validate_trace
from repro.obs.spans import (
    NOOP_SPAN,
    SpanContext,
    build_span_trees,
    critical_path,
    current_span,
    format_trace_header,
    new_id,
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
