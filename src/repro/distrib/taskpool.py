"""SNOW-style worker pool for the synthesis pipeline.

The paper's R pipeline uses "the SNOW R package ... to manage the worker
processes", with a socket cluster on one workstation or an Rmpi backend on
a large cluster.  Both are master/worker task pools: the root partitions a
task list, workers map a function over their share, results return to the
root.

There is one pool, :class:`TaskPool`, and it lives in the calling process:
one worker runs every task inline, more run them on threads (the mapped
functions are numpy/scipy/C-kernel heavy and release the GIL there).
Results preserve input order, which the pipeline's deterministic output
depends on.  Synthesis across real processes is
:func:`~repro.distrib.shardsynth.shard_synthesize`: places are partitioned
*before* the read, so only a shard's partial crosses a process boundary.

Fault tolerance
---------------
On the Blues cluster a multi-hour synthesis run dies if one worker task
raises once.  The pool therefore accepts a :class:`RetryPolicy`: a failed
task is re-executed up to ``max_attempts`` times with exponential backoff
and *deterministic* jitter (keyed on the task index and attempt number, so
two runs of the same job sleep identically).  Per-task attempt counts are
surfaced through a :class:`PoolReport` on the pool (``pool.report``
accumulates across ``map`` calls; ``pool.last_attempts`` details the most
recent call).  A task that fails on every attempt raises
:class:`~repro.errors.TaskRetryError` with the original exception chained.
A retried task is re-run alone; the tasks mapped beside it run exactly once.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Protocol, Sequence, TypeVar

from .._util import stable_uniform
from ..errors import LogFormatError, PartitionError, TaskRetryError
from ..obs import get_probe

__all__ = ["RetryPolicy", "PoolReport", "WorkerPool", "TaskPool"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """How a pool re-runs failing tasks.

    Parameters
    ----------
    max_attempts:
        Total tries per task (1 = no retries).
    base_delay:
        Sleep before the first retry, in seconds.  0 disables sleeping
        entirely (the right setting for tests).
    backoff:
        Multiplier applied per additional attempt (exponential backoff).
    max_delay:
        Ceiling on the un-jittered delay.
    jitter:
        Fractional spread around the delay; the draw is deterministic in
        ``(seed, task_index, attempt)`` so reruns are reproducible.
    seed:
        Jitter stream selector.
    retry_on:
        Exception classes that are retried; anything else propagates
        immediately.  Defaults to :class:`Exception`.  A
        :class:`~repro.errors.LogFormatError` is never retried: damage in
        a log file is deterministic, a re-run reads the same bytes.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    backoff: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: tuple[type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PartitionError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise PartitionError("delays must be >= 0")
        if self.backoff < 1.0:
            raise PartitionError("backoff must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise PartitionError("jitter must be in [0, 1]")

    def delay(self, task_index: int, attempt: int) -> float:
        """Sleep before retry number *attempt* (1-based) of a task."""
        if self.base_delay == 0.0:
            return 0.0
        raw = min(self.max_delay, self.base_delay * self.backoff ** (attempt - 1))
        u = stable_uniform(self.seed, task_index, attempt)  # in [0, 1)
        return raw * (1.0 + self.jitter * (2.0 * u - 1.0))

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        if isinstance(exc, LogFormatError):
            return False
        return attempt < self.max_attempts and isinstance(exc, self.retry_on)


@dataclass
class PoolReport:
    """Attempt accounting, cumulative across a pool's ``map`` calls."""

    n_tasks: int = 0
    n_retries: int = 0
    n_exhausted: int = 0
    max_attempts_seen: int = 1
    #: task indices (per map call) that needed more than one attempt,
    #: mapped to their final attempt count
    retried_tasks: dict[int, int] = field(default_factory=dict)

    def record(self, task_index: int, attempts: int, exhausted: bool) -> None:
        self.n_tasks += 1
        self.n_retries += attempts - 1
        self.max_attempts_seen = max(self.max_attempts_seen, attempts)
        if attempts > 1:
            self.retried_tasks[task_index] = attempts
        if exhausted:
            self.n_exhausted += 1

    def summary(self) -> str:
        return (
            f"tasks={self.n_tasks} retries={self.n_retries} "
            f"exhausted={self.n_exhausted} "
            f"max_attempts={self.max_attempts_seen}"
        )


class WorkerPool(Protocol):
    """Minimal pool protocol used by the pipeline."""

    @property
    def n_workers(self) -> int: ...

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]: ...

    def close(self) -> None: ...


def _caught(fn: Callable[[Any], Any]) -> Callable[[Any], tuple[bool, Any]]:
    """``fn(item)`` as ``(ok, payload)``: catching at the task boundary keeps
    a failure addressable per item when the tasks ran as one map."""

    def call(item: Any) -> tuple[bool, Any]:
        try:
            return True, fn(item)
        except Exception as exc:  # noqa: BLE001 — re-raised by TaskPool.map
            return False, exc

    return call


class TaskPool:
    """The worker pool: inline for one worker, threads otherwise."""

    def __init__(self, n_workers: int = 1, retry: RetryPolicy | None = None) -> None:
        if n_workers < 1:
            raise PartitionError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._executor = (
            ThreadPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
        )
        self._closed = False
        self.retry = retry
        self.report = PoolReport()
        #: attempt counts per task index for the most recent ``map`` call
        self.last_attempts: dict[int, int] = {}

    def _run(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        if self._executor is None:
            return [fn(item) for item in items]
        return list(self._executor.map(fn, items))

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if self._closed:
            raise PartitionError("pool is closed")
        probe = get_probe()
        probe.count("pool.map_calls")
        probe.count("pool.tasks", len(items))
        if self.retry is None:
            return self._run(fn, items)
        caught = _caught(fn)
        results = self._run(caught, items)
        self.last_attempts = attempts = {}
        try:
            for i, (ok, payload) in enumerate(results):
                attempts[i] = 1
                while not ok:
                    if not self.retry.should_retry(payload, attempts[i]):
                        self.report.record(i, attempts[i], exhausted=True)
                        raise TaskRetryError(
                            f"task {i} failed after {attempts[i]} attempt(s): "
                            f"{payload!r}",
                            task_index=i,
                            attempts=attempts[i],
                        ) from payload
                    delay = self.retry.delay(i, attempts[i])
                    if delay > 0:
                        time.sleep(delay)
                    attempts[i] += 1
                    ((ok, payload),) = self._run(caught, [items[i]])
                results[i] = payload
                self.report.record(i, attempts[i], exhausted=False)
        finally:
            retries = sum(a - 1 for a in attempts.values())
            if retries:
                probe.count("pool.retries", retries)
        return results

    def close(self) -> None:
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
