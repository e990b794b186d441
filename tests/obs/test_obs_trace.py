"""Unit tests for the span/tracer model in :mod:`repro.obs.trace`."""

import os
import threading

from repro.obs import (
    Tracer,
    activate,
    ambient_span,
    build_tree,
    current,
    render_trace,
)


class TestTracer:
    def test_begin_finish_records_wire_span(self):
        tracer = Tracer()
        span = tracer.begin("evaluate", engine="rtc")
        tracer.finish(span, rows=7)
        spans = tracer.spans()
        assert len(spans) == 1
        wire = spans[0]
        assert wire["name"] == "evaluate"
        assert wire["parent"] is None
        assert wire["dur"] >= 0.0
        assert wire["attrs"] == {"engine": "rtc", "rows": 7}

    def test_span_ids_are_pid_prefixed_and_unique(self):
        tracer = Tracer()
        for _ in range(50):
            tracer.finish(tracer.begin("x"))
        ids = [span["id"] for span in tracer.spans()]
        assert len(set(ids)) == 50
        prefix = f"{os.getpid():x}-"
        assert all(span_id.startswith(prefix) for span_id in ids)

    def test_parent_linkage(self):
        tracer = Tracer()
        parent = tracer.begin("request")
        child = tracer.begin("query", parent=parent.span_id)
        tracer.finish(child)
        tracer.finish(parent)
        by_name = {span["name"]: span for span in tracer.spans()}
        assert by_name["query"]["parent"] == by_name["request"]["id"]

    def test_attrs_set_after_finish_are_lost(self):
        # The tracer stores the wire dict at finish() time; late attr
        # mutation must not leak in (callers pass finish(**attrs) instead).
        tracer = Tracer()
        span = tracer.begin("query")
        tracer.finish(span)
        span.attrs["late"] = True
        assert "attrs" not in tracer.spans()[0]

    def test_record_synthesises_span_and_clamps_duration(self):
        tracer = Tracer()
        tracer.record("join_cache_hit", None, 123.0, -0.5, pairs=3)
        wire = tracer.spans()[0]
        assert wire["name"] == "join_cache_hit"
        assert wire["start"] == 123.0
        assert wire["dur"] == 0.0
        assert wire["attrs"] == {"pairs": 3}

    def test_span_context_manager(self):
        tracer = Tracer()
        with tracer.span("checkpoint", shard=2):
            pass
        wire = tracer.spans()[0]
        assert wire["name"] == "checkpoint"
        assert wire["attrs"] == {"shard": 2}

    def test_to_wire_shape(self):
        tracer = Tracer()
        tracer.finish(tracer.begin("request"))
        wire = tracer.to_wire()
        assert set(wire) == {"id", "spans"}
        assert wire["id"] == tracer.trace_id
        assert len(wire["spans"]) == 1


class TestAmbient:
    def test_ambient_span_is_zero_cost_without_context(self):
        assert current() is None
        with ambient_span("evaluate") as span:
            assert span is None
        assert current() is None

    def test_activate_installs_and_restores_context(self):
        tracer = Tracer()
        with activate(tracer, "root-id"):
            assert current() == (tracer, "root-id")
        assert current() is None

    def test_ambient_span_records_and_nests(self):
        tracer = Tracer()
        with activate(tracer, None):
            with ambient_span("evaluate", engine="rtc") as outer:
                assert outer is not None
                with ambient_span("rtc") as inner:
                    # Nested span parents onto the enclosing ambient span.
                    assert inner.parent_id == outer.span_id
        by_name = {span["name"]: span for span in tracer.spans()}
        assert by_name["rtc"]["parent"] == by_name["evaluate"]["id"]
        assert by_name["evaluate"]["parent"] is None

    def test_ambient_context_is_thread_local(self):
        tracer = Tracer()
        seen = []

        def probe():
            seen.append(current())

        with activate(tracer, None):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [None]


class TestTreeAndRendering:
    def _sample_trace(self):
        tracer = Tracer()
        root = tracer.begin("request")
        first = tracer.begin("query", parent=root.span_id)
        tracer.finish(first)
        second = tracer.begin("shard", parent=root.span_id, shard=1)
        tracer.finish(second)
        tracer.finish(root)
        return tracer.to_wire()

    def test_build_tree_single_root_with_ordered_children(self):
        roots = build_tree(self._sample_trace())
        assert len(roots) == 1
        assert roots[0]["name"] == "request"
        children = [child["name"] for child in roots[0]["children"]]
        assert children == ["query", "shard"]
        starts = [child["start"] for child in roots[0]["children"]]
        assert starts == sorted(starts)

    def test_build_tree_treats_foreign_parent_as_root(self):
        trace = {
            "id": "t",
            "spans": [
                {"id": "x-1", "parent": "not-here", "name": "orphan",
                 "start": 0.0, "dur": 0.0},
            ],
        }
        roots = build_tree(trace)
        assert [root["name"] for root in roots] == ["orphan"]

    def test_render_trace_is_indented_with_attrs(self):
        text = render_trace(self._sample_trace())
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert any("request" in line for line in lines)
        shard_line = next(line for line in lines if "shard" in line)
        assert "shard=1" in shard_line
        # Children are indented deeper than the root.
        root_line = next(line for line in lines if "request" in line)
        indent = len(shard_line) - len(shard_line.lstrip())
        assert indent > len(root_line) - len(root_line.lstrip())
