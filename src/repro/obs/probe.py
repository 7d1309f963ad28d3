"""Profiling hooks: the Probe callback interface.

A :class:`Probe` is the single seam instrumented code calls into when
something measurable happens — a kernel stage finished, a tile hit or
missed the cache, a pool shipped bytes to a worker.  The default probe
(:class:`RegistryProbe`) folds every event into the process-wide
metrics registry; a custom probe (e.g. the one behind ``repro
synthesize --profile``) can additionally accumulate a structured
profile for export.

Instrumentation sites call ``get_probe()`` per event rather than
caching the probe, so a profile run can swap probes without re-wiring
the pipeline.  When telemetry is disabled the null probe is returned
and every event is a single attribute lookup plus a no-op call.
"""

from __future__ import annotations

import threading

from ._switch import enabled
from .metrics import MetricsRegistry, default_registry

__all__ = [
    "Probe",
    "NullProbe",
    "RegistryProbe",
    "CollectingProbe",
    "get_probe",
    "set_probe",
    "push_probe",
    "record_kernel_timings",
]


class Probe:
    """Callback interface for profiling events.  Subclass and override
    what you care about; every hook defaults to a no-op."""

    def stage(self, name: str, seconds: float) -> None:
        """A coarse timed stage finished; ``name`` arrives scoped, e.g.
        ``synthesis.slice`` or ``cache.compose``."""

    def kernel_stage(self, stage: str, seconds: float) -> None:
        """A kernel stage (pack_build/spgemm/accumulate) accumulated
        ``seconds`` of work (summed across one task's places)."""

    def cache_event(self, event: str, n: int = 1) -> None:
        """A tile-cache event: tile_hit, fringe_hit, disk_hit, miss,
        built, merged, evicted, invalidated, quarantined, query."""

    def count(self, name: str, n: int = 1) -> None:
        """Generic named event counter."""

    def observe(self, name: str, value: float) -> None:
        """Generic named distribution observation (seconds, sizes...)."""


class NullProbe(Probe):
    """Probe that drops every event (telemetry off)."""

    __slots__ = ()


NULL_PROBE = NullProbe()


class RegistryProbe(Probe):
    """Default probe: every event becomes registry metrics.

    Seconds-valued events land both in a cumulative counter (cheap to
    ratio between snapshots) and a histogram (distribution shape).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else default_registry()

    def stage(self, name: str, seconds: float) -> None:
        self.registry.counter(f"stage.{name}.seconds").inc(seconds)
        self.registry.counter(f"stage.{name}.calls").inc()

    def kernel_stage(self, stage: str, seconds: float) -> None:
        self.registry.counter(f"kernel.{stage}.seconds").inc(seconds)
        self.registry.counter(f"kernel.{stage}.tasks").inc()
        self.registry.histogram(f"kernel.{stage}.task_seconds").observe(seconds)

    def cache_event(self, event: str, n: int = 1) -> None:
        self.registry.counter(f"cache.{event}").inc(n)

    def count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.registry.histogram(name).observe(value)


class CollectingProbe(Probe):
    """Accumulates every event into plain dicts — the structured profile
    behind ``repro synthesize --profile``.  Events are additionally
    forwarded to a :class:`RegistryProbe` so a profile run still feeds
    the process registry.  :meth:`to_dict` is the JSON artifact."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._registry_probe = RegistryProbe(registry)
        self.stages: dict[str, dict] = {}
        self.kernel: dict[str, dict] = {}
        self.cache: dict[str, int] = {}
        self.counters: dict[str, float] = {}

    def stage(self, name: str, seconds: float) -> None:
        with self._lock:
            e = self.stages.setdefault(name, {"seconds": 0.0, "calls": 0})
            e["seconds"] += seconds
            e["calls"] += 1
        self._registry_probe.stage(name, seconds)

    def kernel_stage(self, stage: str, seconds: float) -> None:
        with self._lock:
            e = self.kernel.setdefault(stage, {"seconds": 0.0, "tasks": 0})
            e["seconds"] += seconds
            e["tasks"] += 1
        self._registry_probe.kernel_stage(stage, seconds)

    def cache_event(self, event: str, n: int = 1) -> None:
        with self._lock:
            self.cache[event] = self.cache.get(event, 0) + n
        self._registry_probe.cache_event(event, n)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n
        self._registry_probe.count(name, n)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[f"{name}.sum"] = (
                self.counters.get(f"{name}.sum", 0.0) + value
            )
            self.counters[f"{name}.count"] = (
                self.counters.get(f"{name}.count", 0) + 1
            )
        self._registry_probe.observe(name, value)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "stages": {k: dict(v) for k, v in self.stages.items()},
                "kernel": {k: dict(v) for k, v in self.kernel.items()},
                "cache": dict(self.cache),
                "counters": dict(self.counters),
            }


_lock = threading.Lock()
_probe: Probe = RegistryProbe()


def get_probe() -> Probe:
    """The active probe, or the null probe while telemetry is off."""
    return _probe if enabled() else NULL_PROBE


def set_probe(probe: Probe | None) -> Probe:
    """Install ``probe`` (None restores the registry default); returns
    the previously active probe."""
    global _probe
    with _lock:
        prev = _probe
        _probe = probe if probe is not None else RegistryProbe()
    return prev


class push_probe:
    """Context manager: install a probe for the duration of a block
    (used by ``--profile`` runs), restoring the previous one after."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self._prev: Probe | None = None

    def __enter__(self) -> Probe:
        self._prev = set_probe(self.probe)
        return self.probe

    def __exit__(self, exc_type, exc, tb) -> None:
        set_probe(self._prev)


def record_kernel_timings(times: dict | None) -> None:
    """Emit one task's kernel stage timings through the active probe;
    a ``<stage>.twin`` entry (calls that ran the numpy/scipy twin) is
    counted as ``kernels.<stage>.twin``.

    Call exactly once per completed task result (not on batch→total
    merges — that would double-count).
    """
    if not times or not enabled():
        return
    probe = _probe
    for stage, value in times.items():
        if stage.endswith(".twin"):
            probe.count(f"kernels.{stage}", value)
        else:
            probe.kernel_stage(stage, value)
