"""Unified telemetry: one metrics registry and structured tracing.

Zero-dependency observability for the synthesis pipeline, the tile
cache, the distributed model and the query service.  Two coordinated
pieces:

* :mod:`repro.obs.metrics` — named counters/gauges/fixed-bucket
  histograms in a process-wide registry, the one store every number
  lands in: instrumented code writes through :func:`count` /
  :func:`observe`, per-object counters (:class:`MirroredStats`) mirror
  each bump into it, and the service ``metrics`` op, ``repro metrics``,
  ``--metrics-out`` and ``synthesize --profile`` all read it;
* :mod:`repro.obs.trace` — spans with trace/span ids that propagate
  through asyncio tasks, executor threads, pool tasks and forked ranks
  (captured span dicts shipped back with the result), and service
  request frames, rendered by ``repro trace``.

Recording stays on by default; ``REPRO_TELEMETRY=0`` or
``configure(False)`` disables it, and ``benchmarks/
bench_telemetry_overhead.py`` holds the enabled-vs-bare cost under 3%.
"""

from ._switch import configure, enabled
from .export import (
    JsonlSpanSink,
    read_spans_jsonl,
    render_metrics,
    render_trace,
    render_traces,
    write_metrics_json,
    write_spans_jsonl,
)
from .metrics import (
    BYTE_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MirroredStats,
    count,
    default_registry,
    observe,
    record_kernel_timings,
    set_default_registry,
)
from .trace import (
    NOOP_SPAN,
    Span,
    SpanCollector,
    TraceContext,
    capture_spans,
    current_context,
    get_collector,
    new_trace_id,
    start_span,
    use_context,
)

__all__ = [
    "configure",
    "enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BYTE_BUCKETS",
    "LATENCY_BUCKETS",
    "MirroredStats",
    "default_registry",
    "set_default_registry",
    "count",
    "observe",
    "record_kernel_timings",
    "Span",
    "SpanCollector",
    "TraceContext",
    "start_span",
    "NOOP_SPAN",
    "current_context",
    "use_context",
    "capture_spans",
    "get_collector",
    "new_trace_id",
    "JsonlSpanSink",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "write_metrics_json",
    "render_trace",
    "render_traces",
    "render_metrics",
]
