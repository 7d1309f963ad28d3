"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the cumulative side of the telemetry layer (spans in
:mod:`repro.obs.trace` are the per-request side).  Everything here is
dependency-free and cheap enough to stay on by default:

* metric objects are created once (``registry.counter(name)`` returns
  the same object for the same name) and held by the instrumented code,
  so the hot path is one ``inc()``/``observe()`` call;
* each metric carries its own small ``threading.Lock`` — recording never
  contends on a registry-wide lock, and never allocates beyond the
  bookkeeping ints;
* ``snapshot()`` takes each metric's lock in turn, so a reader never
  observes a half-applied update (a histogram whose ``count`` moved but
  whose bucket did not, say).

Histograms use fixed upper bounds with *less-or-equal* semantics: an
observation lands in the first bucket whose bound is ``>= value``; a
value above the last bound lands in the implicit overflow bucket.  That
makes bucket counts cumulative-friendly and keeps ``observe`` at a
single bisect plus five int updates.

Instrumented code writes through two functions, :func:`count` and
:func:`observe`, which resolve the *current* default registry on every
call and do nothing while telemetry is off; per-object counters
(:class:`MirroredStats`) keep their own fields and mirror each bump
into the registry the same way.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

from ._switch import enabled

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MirroredStats",
    "default_registry",
    "set_default_registry",
    "count",
    "observe",
    "record_kernel_timings",
    "BYTE_BUCKETS",
    "LATENCY_BUCKETS",
]

# Default histogram bounds (seconds): 100us .. ~2min, roughly 3x apart.
# Wide enough for both kernel stages and end-to-end service requests.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.0003,
    0.001,
    0.003,
    0.01,
    0.03,
    0.1,
    0.3,
    1.0,
    3.0,
    10.0,
    30.0,
    120.0,
)

#: byte-size histogram bounds: 64 KiB .. 64 GiB, 4x apart
BYTE_BUCKETS: tuple[float, ...] = tuple(float(4**i << 16) for i in range(11))


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self.value += n

    def get(self) -> int | float:
        with self._lock:
            return self.value


class Gauge:
    """Last-write-wins instantaneous value (also supports add/sub)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        with self._lock:
            self.value = v

    def add(self, n: float = 1) -> None:
        with self._lock:
            self.value += n

    def get(self) -> float:
        with self._lock:
            return self.value


class Histogram:
    """Fixed-bucket histogram with le-semantics buckets.

    ``bounds`` are the finite upper edges; ``counts`` has one extra slot
    for the overflow bucket (> last bound).  A value exactly equal to an
    edge is counted in that edge's bucket; anything below the first edge
    lands in bucket 0 (there is no separate underflow bucket — the first
    bound is the floor of interest).
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        i = bisect_left(self.bounds, v)
        with self._lock:
            self.counts[i] += 1
            self.count += 1
            self.sum += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket edges (upper edge of the
        bucket holding the q-th observation; overflow reports ``max``)."""
        with self._lock:
            total = self.count
            if total == 0:
                return 0.0
            rank = max(1, math.ceil(q * total))
            seen = 0
            for i, c in enumerate(self.counts):
                seen += c
                if seen >= rank:
                    return self.bounds[i] if i < len(self.bounds) else self.max
            return self.max


class MetricsRegistry:
    """Named metric namespace with get-or-create accessors.

    Accessors are safe to call from any thread; the same name always
    maps to the same object, and a name may not change kind.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.get(name)
                if m is None:
                    m = factory()
                    self._metrics[name] = m
        if not isinstance(m, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(m).__name__}, "
                f"not {kind.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def snapshot(self) -> dict:
        """Consistent point-in-time export of every metric.

        Per-metric consistency is guaranteed (each metric's lock is held
        while it is copied); the registry as a whole is copied in one
        pass without stopping writers.
        """
        with self._lock:
            items = sorted(self._metrics.items())
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, m in items:
            if isinstance(m, Counter):
                out["counters"][name] = m.get()
            elif isinstance(m, Gauge):
                out["gauges"][name] = m.get()
            else:
                with m._lock:
                    out["histograms"][name] = {
                        "bounds": list(m.bounds),
                        "counts": list(m.counts),
                        "count": m.count,
                        "sum": m.sum,
                        "min": None if m.count == 0 else m.min,
                        "max": None if m.count == 0 else m.max,
                    }
        return out

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Difference of two ``snapshot()`` exports (after - before).

        Counters and histogram counts subtract; gauges report the later
        value (an instantaneous reading has no meaningful difference);
        min/max come from the later snapshot.  Metrics absent from
        ``before`` are treated as zero.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, v in after.get("counters", {}).items():
            out["counters"][name] = v - before.get("counters", {}).get(name, 0)
        out["gauges"] = dict(after.get("gauges", {}))
        for name, h in after.get("histograms", {}).items():
            prev = before.get("histograms", {}).get(name)
            if prev is None or prev.get("bounds") != h.get("bounds"):
                out["histograms"][name] = dict(h)
                continue
            out["histograms"][name] = {
                "bounds": list(h["bounds"]),
                "counts": [a - b for a, b in zip(h["counts"], prev["counts"])],
                "count": h["count"] - prev["count"],
                "sum": h["sum"] - prev["sum"],
                "min": h["min"],
                "max": h["max"],
            }
        return out

    def absorb(self, delta: dict) -> None:
        """Add a :meth:`delta` recorded elsewhere — a forked rank's, say —
        into this registry: counters add, histograms add their bucket
        counts, count and sum (min/max widen; a histogram new here takes
        the delta's bounds), gauges are set."""
        for name, v in delta.get("counters", {}).items():
            self.counter(name).inc(v)
        for name, v in delta.get("gauges", {}).items():
            self.gauge(name).set(v)
        for name, d in delta.get("histograms", {}).items():
            if not d["count"]:
                continue
            h = self.histogram(name, tuple(d["bounds"]))
            if list(h.bounds) != list(d["bounds"]):
                raise ValueError(f"histogram {name!r} has other bounds here")
            with h._lock:
                h.counts = [a + b for a, b in zip(h.counts, d["counts"])]
                h.count += d["count"]
                h.sum += d["sum"]
                h.min = min(h.min, d["min"])
                h.max = max(h.max, d["max"])

    def reset(self) -> None:
        """Drop every metric (test/benchmark isolation helper)."""
        with self._lock:
            self._metrics.clear()


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry components attach to by default."""
    return _default


def set_default_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default
    prev = _default
    _default = reg
    return prev


def count(name: str, n: int | float = 1) -> None:
    """Add ``n`` to the default registry's counter ``name``."""
    if enabled():
        _default.counter(name).inc(n)


def observe(
    name: str, value: float, buckets: tuple[float, ...] = LATENCY_BUCKETS
) -> None:
    """Record ``value`` in the default registry's histogram ``name``
    (made with *buckets* on first use)."""
    if enabled():
        _default.histogram(name, buckets).observe(value)


def record_kernel_timings(times: dict | None) -> None:
    """Emit one task's kernel stage timings: ``kernel.<stage>.seconds`` /
    ``.tasks`` counters and a ``.task_seconds`` histogram per stage; a
    ``<stage>.twin`` entry (calls that ran the numpy/scipy twin) is
    counted as ``kernels.<stage>.twin``.

    Call exactly once per completed task result (not on batch→total
    merges — that would double-count).
    """
    if not times or not enabled():
        return
    for stage, value in times.items():
        if stage.endswith(".twin"):
            count(f"kernels.{stage}", value)
        else:
            count(f"kernel.{stage}.seconds", value)
            count(f"kernel.{stage}.tasks")
            observe(f"kernel.{stage}.task_seconds", value)


class MirroredStats:
    """Base of per-object integer counters mirrored into the registry.

    A dataclass subclass declares its counters as ``int`` fields and
    names its registry scope in ``scope``.  :meth:`bump` adds to the
    field under one lock and to the registry counter
    ``<scope>.<field>``; :meth:`snapshot` copies every counter under the
    same lock, so a reader never sees a half-updated set even when
    executor threads race the event loop.  Fields count whether or not
    telemetry is on; direct attribute reads stay valid.
    """

    scope = ""

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, name: str, n: int = 1) -> None:
        """Atomically add ``n`` to the field ``name`` and its counter."""
        with self._lock:
            setattr(self, name, getattr(self, name) + n)
        count(f"{self.scope}.{name}", n)

    def snapshot(self, **gauges) -> dict:
        """One consistent copy of every counter field, plus any
        instantaneous gauges the caller supplies."""
        with self._lock:
            out = {
                k: v
                for k in self.__dataclass_fields__
                if isinstance(v := getattr(self, k), int)
            }
        out.update(gauges)
        return out
