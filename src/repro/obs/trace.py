"""Structured tracing: spans, trace contexts, and the span collector.

A :class:`Span` is one timed operation with a name, attributes, and a
status; spans nest through a :class:`TraceContext` (trace id + span id)
so a whole request renders as one tree.  Three propagation paths are
supported, matching how work actually moves in this codebase:

* **same task / thread** — ``start_span`` parents to the current
  context, tracked in a :class:`contextvars.ContextVar` (asyncio tasks
  each get their own copy, nested ``with`` blocks nest naturally);
* **executor / worker threads** — capture ``current_context()`` where
  the work is scheduled and wrap the thread body in
  ``use_context(ctx)``;
* **pool tasks and forked ranks** — ship ``ctx.to_wire()`` inside the
  task arguments, run the task body under ``capture_spans()``, and
  return the captured span dicts with the payload; the coordinator
  feeds them to ``collector.absorb()``.  A forked process (a
  distributed rank, a shard) ships its spans back the same way.  The
  same wire form rides in service request frames (``header["trace"]``).

Finished spans land in the process-wide :class:`SpanCollector` — a
bounded ring buffer plus optional sinks (e.g. a JSONL file) — unless a
``capture_spans()`` block on the current thread claims them first.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator, NamedTuple

from ._switch import enabled

__all__ = [
    "TraceContext",
    "Span",
    "SpanCollector",
    "start_span",
    "current_context",
    "use_context",
    "capture_spans",
    "get_collector",
    "new_trace_id",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


class TraceContext(NamedTuple):
    """Serializable (trace id, span id) pair — the parent link a child
    span needs, in a form that pickles into task args and JSON-encodes
    into frame headers."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, d: object) -> "TraceContext | None":
        if not isinstance(d, dict):
            return None
        tid = d.get("trace_id")
        sid = d.get("span_id")
        if not isinstance(tid, str) or not isinstance(sid, str):
            return None
        if not tid or not sid or len(tid) > 64 or len(sid) > 64:
            return None
        return cls(tid, sid)


_current: ContextVar[TraceContext | None] = ContextVar("repro_trace_ctx", default=None)


def current_context() -> TraceContext | None:
    """The trace context active on this task/thread, if any."""
    return _current.get()


@contextmanager
def use_context(ctx: TraceContext | None) -> Iterator[None]:
    """Install ``ctx`` as the current trace context (e.g. at the top of
    an executor-thread body, carrying the scheduling site's context)."""
    token = _current.set(ctx)
    try:
        yield
    finally:
        _current.reset(token)


class Span:
    """One timed operation.  Use as a context manager (the common case)
    or call :meth:`end` explicitly."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "status",
        "start",
        "duration",
        "_t0",
        "_token",
        "_ended",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.status = "ok"
        self.start = time.time()
        self.duration = 0.0
        self._t0 = time.perf_counter_ns()
        self._token = None
        self._ended = False

    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def set_status(self, status: str) -> None:
        self.status = status

    def end(self) -> None:
        if self._ended:
            return
        self._ended = True
        self.duration = (time.perf_counter_ns() - self._t0) / 1e9
        _deposit(self.to_dict())

    def to_dict(self) -> dict:
        d = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
        }
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    def __enter__(self) -> "Span":
        self._token = _current.set(self.context())
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if exc_type is not None and self.status == "ok":
            self.status = f"error:{exc_type.__name__}"
        self.end()


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is off."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    status = "ok"
    duration = 0.0
    attrs: dict = {}

    def context(self) -> None:  # no context: children stay no-op too
        return None

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass

    def end(self) -> None:
        pass

    def to_dict(self) -> dict:
        return {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()

_UNSET = object()


def start_span(
    name: str,
    parent: TraceContext | None | object = _UNSET,
    attrs: dict | None = None,
):
    """Create a span parented to ``parent`` (default: current context).

    ``parent=None`` forces a new root trace.  Returns the shared no-op
    span when telemetry is disabled, so instrumentation sites need no
    guard of their own.
    """
    if not enabled():
        return NOOP_SPAN
    if parent is _UNSET:
        parent = _current.get()
    if parent is None:
        return Span(name, new_trace_id(), None, attrs)
    return Span(name, parent.trace_id, parent.span_id, attrs)


# --------------------------------------------------------------------------
# collection

_tls = threading.local()


def _deposit(span_dict: dict) -> None:
    stack = getattr(_tls, "capture", None)
    if stack:
        stack[-1].append(span_dict)
    else:
        _collector.add(span_dict)


@contextmanager
def capture_spans() -> Iterator[list[dict]]:
    """Divert spans finished on this thread into a local list instead of
    the global collector — the task half of cross-thread and
    cross-process propagation.
    The task returns the list; the coordinator ``absorb()``s it."""
    buf: list[dict] = []
    stack = getattr(_tls, "capture", None)
    if stack is None:
        stack = _tls.capture = []
    stack.append(buf)
    try:
        yield buf
    finally:
        stack.pop()


class SpanCollector:
    """Bounded in-memory ring of finished spans, plus optional sinks.

    Sinks (callables taking one span dict) fire for locally finished
    spans *and* absorbed worker spans, so a JSONL sink sees the whole
    tree regardless of which process ran each piece.
    """

    def __init__(self, max_spans: int = 8192) -> None:
        self.max_spans = int(max_spans)
        self._lock = threading.Lock()
        self._spans: list[dict] = []
        self._dropped = 0
        self._sinks: list[Callable[[dict], None]] = []

    def add(self, span_dict: dict) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                # drop oldest: the ring favours recent traces
                del self._spans[: max(1, self.max_spans // 8)]
                self._dropped += 1
            self._spans.append(span_dict)
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink(span_dict)
            except Exception:
                pass  # a broken sink must never take down the workload

    def absorb(self, span_dicts: list[dict] | None) -> None:
        """Fold spans captured elsewhere (pool tasks, forked ranks) into
        this collector, preserving their ids so parent links stay
        intact."""
        if not span_dicts:
            return
        for d in span_dicts:
            if isinstance(d, dict) and d.get("trace_id"):
                self.add(d)

    def spans(self, trace_id: str | None = None) -> list[dict]:
        with self._lock:
            if trace_id is None:
                return list(self._spans)
            return [s for s in self._spans if s.get("trace_id") == trace_id]

    def drain(self) -> list[dict]:
        with self._lock:
            out = self._spans
            self._spans = []
            return out

    def add_sink(self, sink: Callable[[dict], None]) -> None:
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[dict], None]) -> None:
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass


_collector = SpanCollector()


def get_collector() -> SpanCollector:
    """The process-wide collector finished spans land in."""
    return _collector
