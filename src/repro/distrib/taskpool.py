"""SNOW-style worker pools for the synthesis pipeline.

The paper's R pipeline uses "the SNOW R package ... to manage the worker
processes", with a socket cluster on one workstation or an Rmpi backend on
a large cluster.  Both are master/worker task pools: the root partitions a
task list, workers map a function over their share, results return to the
root.

Three interchangeable backends:

* :class:`SerialPool` — in-process, for tests and tiny runs;
* :class:`ThreadPool` — threads; effective when the mapped function is
  numpy/scipy-heavy (GIL released in kernels);
* :class:`ProcessPool` — ``multiprocessing``; genuine parallelism, the
  closest analogue of SNOW's socket cluster.

All backends preserve input ordering of results, which the pipeline's
deterministic output depends on.

Fault tolerance
---------------
On the Blues cluster a multi-hour synthesis run dies if one worker task
raises once.  Each pool therefore accepts a :class:`RetryPolicy`: a failed
task is re-executed up to ``max_attempts`` times with exponential backoff
and *deterministic* jitter (keyed on the task index and attempt number, so
two runs of the same job sleep identically).  Per-task attempt counts are
surfaced through a :class:`PoolReport` on the pool (``pool.report``
accumulates across ``map`` calls; ``pool.last_attempts`` details the most
recent call).  A task that fails on every attempt raises
:class:`~repro.errors.TaskRetryError` with the original exception chained.

Retried tasks are always re-submitted *individually*, even on the chunked
:class:`ProcessPool` backend — a transient failure in one task must not
re-run the other tasks that happened to share its chunk.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Protocol, Sequence, TypeVar

from .._util import stable_uniform
from ..errors import LogFormatError, PartitionError, TaskRetryError
from ..obs import get_probe

__all__ = [
    "RetryPolicy",
    "PoolReport",
    "WorkerPool",
    "SerialPool",
    "ThreadPool",
    "ProcessPool",
    "make_pool",
]

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


class _Caught:
    """Picklable wrapper that turns ``fn(item)`` into ``(ok, payload)``.

    Chunked backends cannot tell *which* task of a chunk raised; catching
    at the task boundary keeps failures addressable per item.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> tuple[bool, Any]:
        try:
            return True, self.fn(item)
        except Exception as exc:  # noqa: BLE001 — re-raised by the driver
            return False, exc


class _RetryDriver:
    """Shared retry loop: first pass through ``submit_all``, then
    individual re-submission through ``run_one``."""

    def __init__(self, retry: RetryPolicy, report: PoolReport) -> None:
        self.retry = retry
        self.report = report
        #: per-task attempt counts of the most recent map call
        self.attempts: dict[int, int] = {}

    def finish(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        first_pass: list[tuple[bool, Any]],
        run_one: Callable[[Callable[[Any], Any], Any], tuple[bool, Any]],
    ) -> list[Any]:
        results: list[Any] = [None] * len(items)
        caught = _Caught(fn)
        for i, (ok, payload) in enumerate(first_pass):
            attempt = 1
            while not ok:
                exc = payload
                if not self.retry.should_retry(exc, attempt):
                    self.attempts[i] = attempt
                    self.report.record(i, attempt, exhausted=True)
                    raise TaskRetryError(
                        f"task {i} failed after {attempt} attempt(s): {exc!r}",
                        task_index=i,
                        attempts=attempt,
                    ) from exc
                delay = self.retry.delay(i, attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                ok, payload = run_one(caught, items[i])
            results[i] = payload
            self.attempts[i] = attempt
            self.report.record(i, attempt, exhausted=False)
        return results


class _PoolBase:
    """Retry plumbing common to all backends."""

    def __init__(self, retry: RetryPolicy | None) -> None:
        self.retry = retry
        self.report = PoolReport()
        #: attempt counts per task index for the most recent ``map`` call
        self.last_attempts: dict[int, int] = {}
        #: when True, ``map`` pickles each task item once and accumulates
        #: the byte count in :attr:`bytes_shipped` — the root→worker
        #: serialization traffic a process backend pays (measured even on
        #: in-process backends, so task shapes compare like for like).
        #: Off by default: measuring costs a pickle pass.
        self.track_bytes = False
        self.bytes_shipped = 0

    def _account_items(self, items: Sequence[Any]) -> None:
        probe = get_probe()
        probe.count("pool.map_calls")
        probe.count("pool.tasks", len(items))
        if self.track_bytes:
            shipped = sum(
                len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
                for item in items
            )
            self.bytes_shipped += shipped
            probe.pool_bytes(shipped)

    def _finish_with_retries(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        first_pass: list[tuple[bool, Any]],
        run_one: Callable[[Callable[[Any], Any], Any], tuple[bool, Any]],
    ) -> list[Any]:
        assert self.retry is not None
        driver = _RetryDriver(self.retry, self.report)
        try:
            results = driver.finish(fn, items, first_pass, run_one)
        finally:
            self.last_attempts = driver.attempts
            retries = sum(a - 1 for a in driver.attempts.values() if a > 1)
            if retries:
                get_probe().count("pool.retries", retries)
        return results


class SerialPool(_PoolBase):
    """Degenerate single-worker pool (the root does everything)."""

    def __init__(self, retry: RetryPolicy | None = None) -> None:
        super().__init__(retry)
        self._closed = False

    @property
    def n_workers(self) -> int:
        return 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if self._closed:
            raise PartitionError("pool is closed")
        self._account_items(items)
        if self.retry is None:
            return [fn(item) for item in items]
        caught = _Caught(fn)
        first = [caught(item) for item in items]
        return self._finish_with_retries(
            fn, items, first, lambda c, item: c(item)
        )

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "SerialPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class ThreadPool(_PoolBase):
    """Thread-backed pool; best for numpy-heavy task functions."""

    def __init__(self, n_workers: int, retry: RetryPolicy | None = None) -> None:
        super().__init__(retry)
        if n_workers < 1:
            raise PartitionError("n_workers must be >= 1")
        self._n = n_workers
        self._executor = ThreadPoolExecutor(max_workers=n_workers)

    @property
    def n_workers(self) -> int:
        return self._n

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        self._account_items(items)
        if self.retry is None:
            return list(self._executor.map(fn, items))
        caught = _Caught(fn)
        first = list(self._executor.map(caught, items))
        # retries run individually on the executor, preserving task order
        return self._finish_with_retries(
            fn,
            items,
            first,
            lambda c, item: self._executor.submit(c, item).result(),
        )

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class ProcessPool(_PoolBase):
    """``multiprocessing``-backed pool (the SNOW socket-cluster analogue).

    Task functions and items must be picklable.  Results preserve input
    order.  Worker count defaults to the CPU count, like SNOW's "set of
    workers equal to the number of available CPUs".

    With a :class:`RetryPolicy`, the first pass still ships chunks (cheap),
    but every task result is individually addressable: a failing task is
    re-submitted *alone* via ``apply_async``, never as part of its original
    chunk, so its chunk-mates run exactly once.
    """

    def __init__(
        self, n_workers: int | None = None, retry: RetryPolicy | None = None
    ) -> None:
        super().__init__(retry)
        self._n = n_workers or os.cpu_count() or 1
        if self._n < 1:
            raise PartitionError("n_workers must be >= 1")
        ctx = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context()
        self._pool = ctx.Pool(processes=self._n)

    @property
    def n_workers(self) -> int:
        return self._n

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        if not items:
            return []
        self._account_items(items)
        chunksize = max(1, len(items) // (self._n * 4))
        if self.retry is None:
            return self._pool.map(fn, items, chunksize=chunksize)
        caught = _Caught(fn)
        first = self._pool.map(caught, items, chunksize=chunksize)
        return self._finish_with_retries(
            fn,
            items,
            first,
            lambda c, item: self._pool.apply_async(c, (item,)).get(),
        )

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def make_pool(
    kind: str,
    n_workers: int | None = None,
    retry: RetryPolicy | None = None,
) -> WorkerPool:
    """Factory: ``'serial'``, ``'thread'``, or ``'process'``."""
    if kind == "serial":
        return SerialPool(retry=retry)
    if kind == "thread":
        return ThreadPool(n_workers or os.cpu_count() or 1, retry=retry)
    if kind == "process":
        return ProcessPool(n_workers, retry=retry)
    raise PartitionError(f"unknown pool kind {kind!r}")
