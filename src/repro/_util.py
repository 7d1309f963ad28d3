"""Shared low-level helpers: seeding, timing, grouping, formatting.

These utilities encode the package-wide determinism and vectorization
discipline:

* all randomness flows through :class:`numpy.random.Generator` objects
  derived from a single :class:`numpy.random.SeedSequence`, so any run is
  exactly reproducible from one integer seed and independent substreams can
  be handed to parallel workers without correlation;
* grouping of large id arrays is done with ``argsort`` + boundary detection
  rather than Python dict loops (the ``data.table``-style fast subsetting
  from the paper's Section IV.A.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "rng_from_seed",
    "spawn_rngs",
    "group_by_key",
    "group_slices",
    "Timer",
    "StageTimings",
    "human_bytes",
    "human_count",
    "check_uint32",
    "stable_hash_u32",
    "stable_uniform",
    "atomic_write_bytes",
]


def rng_from_seed(seed: int | np.random.SeedSequence | None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from an integer seed.

    ``None`` yields a nondeterministically-seeded generator (OS entropy);
    everything else is fully deterministic.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn *n* statistically independent generators from one seed.

    Used to hand each simulated rank / worker its own stream so that results
    do not depend on scheduling order.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def group_by_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group row indices of ``keys`` by value.

    Returns ``(unique_keys, order, boundaries)`` where ``order`` is an argsort
    of ``keys`` and ``boundaries`` contains the start offset of each group in
    ``order`` plus a final sentinel ``len(keys)``.  Rows of group ``i`` are
    ``order[boundaries[i]:boundaries[i+1]]``.

    This is the vectorized equivalent of ``split(df, df$key)`` and is the
    backbone of per-place log subsetting.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("group_by_key expects a 1-D key array")
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    if len(sorted_keys) == 0:
        return sorted_keys, order, np.array([0], dtype=np.intp)
    # boundaries where the sorted key changes
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], change, [len(keys)]))
    unique = sorted_keys[starts[:-1]]
    return unique, order, starts


def group_slices(keys: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(key, row_indices)`` per distinct key value (vectorized)."""
    unique, order, starts = group_by_key(keys)
    for i, key in enumerate(unique):
        yield int(key), order[starts[i] : starts[i + 1]]


class Timer:
    """Context-manager wall-clock timer with nanosecond resolution.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0
    True
    """

    def __init__(self) -> None:
        self._start: int | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None
        self.elapsed = (time.perf_counter_ns() - self._start) / 1e9


@dataclass
class StageTimings:
    """Accumulates named stage durations for pipeline reports.

    Every ``add`` also lands in the process-wide metrics registry as the
    ``stage.{scope}.{name}.seconds`` / ``.calls`` counters, so stage
    timings need no second instrumentation at the call site.
    """

    stages: dict[str, float] = field(default_factory=dict)
    #: registry scope ("synthesis" for pipeline runs, "cache" for the
    #: tile cache's internal stage clocks)
    scope: str = "synthesis"

    def add(self, name: str, seconds: float) -> None:
        seconds = float(seconds)
        self.stages[name] = self.stages.get(name, 0.0) + seconds
        from .obs import count  # deferred: _util must stay import-light

        count(f"stage.{self.scope}.{name}.seconds", seconds)
        count(f"stage.{self.scope}.{name}.calls")

    def merge(self, other: "StageTimings") -> None:
        """Fold another table in without re-emitting registry counts (the
        other table already emitted when its stages were recorded)."""
        for name, secs in other.stages.items():
            self.stages[name] = self.stages.get(name, 0.0) + float(secs)

    def time(self, name: str) -> "_StageContext":
        return _StageContext(self, name)

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    def report(self) -> str:
        """Multi-line human-readable timing table."""
        if not self.stages:
            return "(no stages timed)"
        width = max(len(k) for k in self.stages)
        lines = [
            f"{name:<{width}}  {secs:10.4f} s" for name, secs in self.stages.items()
        ]
        lines.append(f"{'total':<{width}}  {self.total:10.4f} s")
        return "\n".join(lines)


class _StageContext:
    def __init__(self, timings: StageTimings, name: str) -> None:
        self._timings = timings
        self._name = name
        self._timer = Timer()

    def __enter__(self) -> "_StageContext":
        self._timer.__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        self._timer.__exit__(*exc)
        self._timings.add(self._name, self._timer.elapsed)


_BYTE_UNITS = ["B", "KiB", "MiB", "GiB", "TiB"]


def human_bytes(n: int | float) -> str:
    """Format a byte count, e.g. ``human_bytes(2048) == '2.00 KiB'``."""
    n = float(n)
    for unit in _BYTE_UNITS:
        if abs(n) < 1024.0 or unit == _BYTE_UNITS[-1]:
            return f"{n:.2f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")


def human_count(n: int | float) -> str:
    """Format a large count with thousands separators."""
    return f"{int(n):,}"


def stable_hash_u32(*values: int) -> int:
    """Deterministic 32-bit hash of a tuple of integers.

    Unlike :func:`hash`, the result is identical across processes and
    interpreter invocations (``PYTHONHASHSEED`` does not apply), which the
    retry machinery relies on for reproducible backoff jitter.
    """
    import zlib

    blob = b"".join(int(v).to_bytes(8, "little", signed=True) for v in values)
    return zlib.crc32(blob) & 0xFFFFFFFF


def stable_uniform(*values: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed by integers."""
    return stable_hash_u32(*values) / 2**32


def atomic_write_bytes(path: "str | Path", data: bytes) -> None:
    """Write *data* to *path* via a same-directory temp file + rename.

    Readers never observe a partially written file: they see either the
    previous content or the full new content.  This is the commit primitive
    for synthesis checkpoints.
    """
    import os

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


U32_MAX = np.uint32(0xFFFFFFFF)


def check_uint32(values: np.ndarray | Sequence[int], name: str) -> np.ndarray:
    """Validate that *values* fit in uint32 and return them as uint32.

    The EVL log schema (paper Section III) stores every field as a 4-byte
    unsigned integer; anything outside [0, 2**32) is a caller bug worth a
    loud error rather than silent wraparound.
    """
    arr = np.asarray(values)
    if arr.size and (arr.min() < 0 or arr.max() > int(U32_MAX)):
        raise ValueError(
            f"{name} contains values outside the uint32 range "
            f"[{arr.min()}, {arr.max()}]"
        )
    return arr.astype(np.uint32, copy=False)
