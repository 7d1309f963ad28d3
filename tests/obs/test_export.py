"""Exporter tests: JSONL span sinks survive garbage, renders stay
readable, and the probe layer folds events where they belong."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    CollectingProbe,
    JsonlSpanSink,
    MetricsRegistry,
    RegistryProbe,
    read_spans_jsonl,
    render_metrics,
    render_trace,
    render_traces,
    write_spans_jsonl,
)

pytestmark = pytest.mark.timeout(60)


def span(tid, sid, parent=None, name="s", start=0.0, **extra):
    d = {
        "trace_id": tid,
        "span_id": sid,
        "parent_id": parent,
        "name": name,
        "start": start,
        "duration": 0.01,
        "status": "ok",
    }
    d.update(extra)
    return d


class TestJsonl:
    def test_sink_then_read_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlSpanSink(path)
        sink(span("t1", "a"))
        sink(span("t1", "b", parent="a"))
        sink.close()
        sink(span("t1", "c"))  # after close: silently ignored, no crash
        got = read_spans_jsonl(path)
        assert [s["span_id"] for s in got] == ["a", "b"]

    def test_reader_skips_truncated_and_garbage_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        lines = [
            json.dumps(span("t1", "a")),
            '{"trace_id": "t1", "span_id": "tru',  # torn tail from a kill
            "not json at all",
            json.dumps({"no_trace_id": True}),
            "",
            json.dumps(span("t1", "b")),
        ]
        path.write_text("\n".join(lines) + "\n")
        got = read_spans_jsonl(path)
        assert [s["span_id"] for s in got] == ["a", "b"]

    def test_write_spans_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "out" / "spans.jsonl"
        spans = [span("t1", "a"), span("t2", "b")]
        write_spans_jsonl(path, spans)
        assert read_spans_jsonl(path) == spans


class TestRenderTrace:
    def test_tree_nesting_follows_parent_ids(self):
        spans = [
            span("t1", "root", name="request", start=1.0),
            span("t1", "kid", parent="root", name="compose", start=2.0),
            span("t1", "grandkid", parent="kid", name="kernel", start=3.0),
        ]
        out = render_trace(spans, "t1")
        lines = out.splitlines()
        assert "trace t1" in lines[0]
        assert lines[1].startswith("`- request")
        assert lines[2].startswith("   `- compose")
        assert lines[3].startswith("      `- kernel")

    def test_orphan_parent_becomes_extra_root(self):
        # only the server half of a trace is in the log: the span whose
        # parent (the client span) is missing must still render
        spans = [span("t1", "srv", parent="missing-client", name="request")]
        out = render_trace(spans, "t1")
        assert "request" in out

    def test_unknown_trace_says_so(self):
        assert "no spans" in render_trace([], "nope")

    def test_error_status_is_flagged(self):
        spans = [span("t1", "a", name="request", status="error:deadline")]
        assert "[error:deadline]" in render_trace(spans, "t1")

    def test_render_traces_last_n_most_recent(self):
        spans = [
            span("t1", "a", start=1.0),
            span("t2", "b", start=2.0),
            span("t3", "c", start=3.0),
        ]
        out = render_traces(spans, last=2)
        assert "trace t1" not in out
        assert "trace t2" in out and "trace t3" in out


class TestRenderMetrics:
    def test_counters_gauges_histograms_render(self):
        reg = MetricsRegistry()
        reg.counter("service.requests").inc(12)
        reg.gauge("inflight").set(3)
        reg.histogram("lat", buckets=(0.01, 0.1)).observe(0.05)
        out = render_metrics(reg.snapshot())
        assert "service.requests" in out and "12" in out
        assert "inflight" in out
        assert "lat" in out and "count=1" in out and "p50=" in out

    def test_empty_snapshot(self):
        assert render_metrics({}) == "(no metrics recorded)"


class TestProbes:
    def test_registry_probe_folds_events_into_registry(self):
        reg = MetricsRegistry()
        p = RegistryProbe(reg)
        p.stage("synthesis.slice", 0.5)
        p.kernel_stage("spgemm", 0.2)
        p.cache_event("tile_hit", 3)
        snap = reg.snapshot()
        assert snap["counters"]["stage.synthesis.slice.seconds"] == 0.5
        assert snap["counters"]["kernel.spgemm.tasks"] == 1
        assert snap["counters"]["cache.tile_hit"] == 3
        assert snap["histograms"]["kernel.spgemm.task_seconds"]["count"] == 1

    def test_collecting_probe_accumulates_and_forwards(self):
        reg = MetricsRegistry()
        p = CollectingProbe(reg)
        p.stage("cache.compose", 0.1)
        p.stage("cache.compose", 0.3)
        p.kernel_stage("pack_build", 0.05)
        p.cache_event("miss")
        p.observe("request.seconds", 0.2)
        d = p.to_dict()
        assert d["stages"]["cache.compose"]["calls"] == 2
        assert d["stages"]["cache.compose"]["seconds"] == pytest.approx(0.4)
        assert d["kernel"]["pack_build"]["tasks"] == 1
        assert d["cache"]["miss"] == 1
        assert d["counters"]["request.seconds.count"] == 1
        # forwarded to the registry as well
        assert reg.snapshot()["counters"]["cache.miss"] == 1
