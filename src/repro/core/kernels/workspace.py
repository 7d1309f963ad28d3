"""Pooled kernel workspaces and per-stage kernel timings.

Scratch whose size a bound fixes — the band buffers of the reduce
(packed keys, their sorted copy, values; see
:data:`~repro.core.kernels.masked._BAND_BYTES`), the Gustavson
accumulator, marker and touched-row list, the partial sum's row buffers
— comes from a :class:`KernelWorkspace` that is reused across packs and
batches instead of reallocated per call.  Scratch sized to one call's
input (the pack build's buffers, a fold's CSC) is that call's own and
freed when it returns: pooled, it would stay resident at the size of the
largest input ever seen.  Workspaces are per-thread (the tile cache runs
kernels from executor threads) and grow geometrically, so a steady-state
synthesis run takes no pooled buffer anew after the first batch.

This module also keeps the per-stage kernel clocks (``pack_build``,
``spgemm``, ``accumulate``) that :class:`~repro.core.pipeline.SynthesisReport`
surfaces and ``repro synth --profile`` prints.  Collection is a handful
of ``perf_counter`` calls per task — cheap enough to stay always-on.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from ...evlog.reader import publish_walk_stats
from ...obs import (
    TraceContext,
    capture_spans,
    get_collector,
    record_kernel_timings,
    start_span,
)

__all__ = [
    "KernelWorkspace",
    "get_workspace",
    "kernel_stage",
    "count_twin",
    "collect_kernel_timings",
    "collect_task_telemetry",
    "merge_kernel_timings",
    "absorb_task_telemetry",
    "task_span",
    "KERNEL_STAGES",
]

#: the attributable kernel stages, in pipeline order
KERNEL_STAGES = ("pack_build", "spgemm", "accumulate")


class KernelWorkspace:
    """A named pool of growable scratch arrays.

    ``take(name, size, dtype)`` returns a contiguous view of at least
    *size* elements, reusing (and geometrically growing) one buffer per
    name.  Contents are unspecified — kernels initialize what they read.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        #: buffers served without an allocation
        self.hits = 0
        #: buffers (re)allocated
        self.grows = 0

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        size = int(size)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            grown = max(size, buf.size * 2 if buf is not None else 0, 1024)
            buf = np.empty(grown, dtype=dtype)
            self._buffers[name] = buf
            self.grows += 1
        else:
            self.hits += 1
        return buf[:size]

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


_tls = threading.local()


def get_workspace() -> KernelWorkspace:
    """This thread's kernel workspace (created on first use)."""
    ws = getattr(_tls, "workspace", None)
    if ws is None:
        ws = _tls.workspace = KernelWorkspace()
    return ws


def _times() -> dict:
    t = getattr(_tls, "stage_times", None)
    if t is None:
        t = _tls.stage_times = {}
    return t


@contextmanager
def kernel_stage(name: str):
    """Accumulate wall time under a kernel stage for this thread."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        times = _times()
        times[name] = times.get(name, 0.0) + (time.perf_counter() - t0)


def count_twin(stage: str) -> None:
    """Note one *stage* call that ran its numpy/scipy twin — the C
    extension was unavailable or declined the input.  The count rides
    with the stage times as ``<stage>.twin``."""
    times, key = _times(), f"{stage}.twin"
    times[key] = times.get(key, 0) + 1


def collect_kernel_timings() -> dict[str, float]:
    """Drain this thread's accumulated kernel stage times.

    Worker tasks call this after building/multiplying and ship the dict
    back with their payload; the pipeline folds the dicts into the
    :class:`~repro.core.pipeline.SynthesisReport`.
    """
    times = _times()
    out = dict(times)
    times.clear()
    return out


def merge_kernel_timings(total: dict[str, float], part: dict[str, float] | None) -> None:
    """Fold one task's stage times into a running total, in place."""
    if not part:
        return
    for name, secs in part.items():
        total[name] = total.get(name, 0.0) + secs


@contextmanager
def task_span(name: str, ctx_wire: dict | None, attrs: dict | None = None):
    """Worker-side telemetry scope for a pool task.

    Opens a span parented to the wire context the coordinator shipped in
    the task args, and captures every span the task finishes into the
    yielded list (instead of the worker process's own collector, which
    would be lost).  With no context — tracing off at the root, or a
    call path that doesn't propagate — the scope is free and the list
    stays empty.
    """
    parent = TraceContext.from_wire(ctx_wire) if ctx_wire else None
    if parent is None:
        yield []
        return
    with capture_spans() as spans:
        with start_span(name, parent=parent, attrs=attrs):
            yield spans


def collect_task_telemetry(
    spans: list[dict] | None = None, reader: dict | None = None
) -> dict:
    """Drain this thread's kernel timings plus any captured spans and the
    task's log-walk stats (:func:`~repro.evlog.reader.read_window_columns`)
    into the dict a worker task ships back with its payload."""
    return {
        "kernel": collect_kernel_timings(),
        "spans": spans or [],
        "reader": reader,
    }


def absorb_task_telemetry(total: dict[str, float], telemetry: dict | None) -> None:
    """Coordinator-side: fold one task's shipped telemetry into the run.

    Accepts either the rich :func:`collect_task_telemetry` form or a
    plain stage-times dict.  Kernel stage times merge into ``total`` and
    land in the metrics registry, as do the walk's ``evlog.reader.*``
    counters — exactly once per task, so batch→total merges must keep
    using :func:`merge_kernel_timings` to avoid double counting.  Worker
    spans are absorbed into the process-wide collector, parent links
    intact.
    """
    if not telemetry:
        return
    if "kernel" in telemetry or "spans" in telemetry:
        times = telemetry.get("kernel")
        spans = telemetry.get("spans")
        publish_walk_stats(telemetry.get("reader"))
    else:
        times, spans = telemetry, None
    merge_kernel_timings(total, times)
    record_kernel_timings(times)
    if spans:
        get_collector().absorb(spans)
