"""Unified telemetry: metrics registry, structured tracing, profiling hooks.

Zero-dependency observability for the synthesis pipeline, the tile
cache, and the query service.  Three coordinated pieces:

* :mod:`repro.obs.metrics` — named counters/gauges/fixed-bucket
  histograms in a process-wide registry, exported by the service
  ``metrics`` op and the ``repro metrics`` CLI;
* :mod:`repro.obs.trace` — spans with trace/span ids that propagate
  through asyncio tasks, executor threads, process-pool workers (via
  the descriptor path), and service request frames, rendered by
  ``repro trace``;
* :mod:`repro.obs.probe` — the Probe callback seam profiling events
  flow through (kernel stage timings, cache hits/evictions, pool
  bytes), feeding the registry by default and ``--profile`` artifacts
  on demand.

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
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from .probe import (
    CollectingProbe,
    NullProbe,
    Probe,
    RegistryProbe,
    get_probe,
    push_probe,
    record_kernel_timings,
    set_probe,
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
    "LATENCY_BUCKETS",
    "default_registry",
    "set_default_registry",
    "Probe",
    "NullProbe",
    "RegistryProbe",
    "CollectingProbe",
    "get_probe",
    "set_probe",
    "push_probe",
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
