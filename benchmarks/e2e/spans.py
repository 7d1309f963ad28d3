"""Bench-side span recorder.

Spans are recorded here, around the benchmark's calls into each layer's
public functions; nothing under ``src/`` is touched.  A span's name is the
stem of the per-layer metric it feeds (``distrib.run`` feeds
``distrib.run_s``) and its layer is the name up to the last dot.  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import statistics
import time
from pathlib import Path


class SpanRecorder:
    """In-memory span list; ``enabled`` is off except in traced rounds."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        # a context variable, not a stack: the two serve-mix clients are
        # asyncio tasks whose spans interleave on one thread
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "bench_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "id": index,
            "run": self.run_id,
            "name": name,
            "layer": name.rsplit(".", 1)[0],
            "parent": self._current.get(),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        token = self._current.set(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._current.reset(token)

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``; 0 when none ran."""
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_times(self) -> list[float]:
        """Per span: duration minus the part its child spans cover (children
        of concurrent tasks may overlap, so their union is subtracted)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            if s["end"] is None:
                out.append(0.0)
                continue
            covered, edge = 0.0, s["start"]
            for lo, hi in sorted(children.get(s["id"], ())):
                lo, hi = max(lo, edge), min(hi, s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            totals[s["layer"]] = totals.get(s["layer"], 0.0) + self_s
        return totals

    def write(self, path: Path) -> None:
        spans = [
            dict(s, self_s=self_s) for s, self_s in zip(self.spans, self.self_times())
        ]
        path.write_text(
            json.dumps(
                {
                    "run": self.run_id,
                    "layer_self_s": self.layer_self_seconds(),
                    "spans": spans,
                }
            )
        )
