"""Deterministic fault injection for pool, pipeline, and evlog tests.

Two layers of injection, matching the two layers of fault handling:

* :func:`inject_failures` wraps a *task function* so that chosen tasks
  fail on their first ``times`` attempts.  State lives on the filesystem,
  so it works unchanged on a :class:`~repro.distrib.taskpool.TaskPool`'s
  threads and in forked processes.

* :class:`FlakyPool` wraps a *worker pool* so that a chosen ``map`` call
  either dies outright (simulating a run killed mid-batch) or injects
  first-attempt task failures beneath the pool's retry machinery.

``kind=Kill`` simulates a hard worker crash.  It raises
:class:`WorkerCrash` rather than delivering a real SIGKILL: by the time a
crashed worker matters to the retry layer, it manifests as exactly this
kind of task failure.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping


class Kill:
    """Sentinel failure kind: a simulated hard worker crash."""


class WorkerCrash(RuntimeError):
    """The exception a :data:`Kill` injection raises."""


class _FailureInjector:
    """Picklable task-function wrapper that fails chosen tasks.

    The task key is the item itself (tests pass integer items), so the
    failure schedule is deterministic regardless of which worker runs the
    task or in what order the pool schedules it.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        fail_on: frozenset,
        kind: type,
        times: int,
        state_dir: str,
    ) -> None:
        self.fn = fn
        self.fail_on = fail_on
        self.kind = kind
        self.times = times
        self.state_dir = state_dir

    def _register_attempt(self, key: Any) -> int:
        """Record one invocation for *key*; return its 1-based attempt
        number.  O_CREAT|O_EXCL makes the claim atomic across processes."""
        attempt = 1
        while True:
            marker = os.path.join(self.state_dir, f"inv_{key}_{attempt}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                attempt += 1
                continue
            os.close(fd)
            return attempt

    def __call__(self, item: Any) -> Any:
        attempt = self._register_attempt(item)
        if item in self.fail_on and attempt <= self.times:
            if self.kind is Kill:
                raise WorkerCrash(
                    f"injected worker crash on task {item!r} attempt {attempt}"
                )
            raise self.kind(
                f"injected failure on task {item!r} attempt {attempt}"
            )
        return self.fn(item)


def inject_failures(
    fn: Callable[[Any], Any],
    fail_on: Iterable,
    kind: type = ValueError,
    times: int = 1,
    state_dir: str | Path | None = None,
) -> _FailureInjector:
    """Wrap *fn* so the tasks whose item is in *fail_on* fail their first
    *times* attempts, then succeed.

    ``kind`` is an exception class to raise, or :class:`Kill` for a
    simulated worker crash.  ``state_dir`` holds the cross-process attempt
    ledger; it defaults to a fresh temp directory.
    """
    if state_dir is None:
        import tempfile

        state_dir = tempfile.mkdtemp(prefix="faults_")
    Path(state_dir).mkdir(parents=True, exist_ok=True)
    return _FailureInjector(fn, frozenset(fail_on), kind, times, str(state_dir))


class FlakyPool:
    """A :class:`~repro.distrib.taskpool.WorkerPool` wrapper with scripted
    failures, keyed on the zero-based index of the ``map`` call.

    Parameters
    ----------
    inner:
        The real pool doing the work.
    die_on_calls:
        ``map`` call indices that raise :class:`WorkerCrash` before any
        task runs — simulates the whole run being killed mid-batch.
    fail_tasks:
        ``{call_index: set_of_task_indices}``: in those ``map`` calls, the
        listed task positions fail their first attempt and succeed when
        re-run — exercises the inner pool's retry machinery.
    """

    def __init__(
        self,
        inner,
        die_on_calls: Iterable[int] = (),
        fail_tasks: Mapping[int, Iterable[int]] | None = None,
        kind: type = Kill,
    ) -> None:
        self.inner = inner
        self.die_on_calls = frozenset(die_on_calls)
        self.fail_tasks = {
            int(c): frozenset(ts) for c, ts in (fail_tasks or {}).items()
        }
        self.kind = kind
        self.calls = 0
        self._lock = threading.Lock()
        self._failed_once: set[tuple[int, int]] = set()

    @property
    def n_workers(self) -> int:
        return self.inner.n_workers

    @property
    def report(self):
        return getattr(self.inner, "report", None)

    @property
    def last_attempts(self):
        return getattr(self.inner, "last_attempts", {})

    def map(self, fn, items):
        call = self.calls
        self.calls += 1
        if call in self.die_on_calls:
            raise WorkerCrash(f"injected pool death on map call {call}")
        targets = self.fail_tasks.get(call)
        if not targets:
            return self.inner.map(fn, items)

        indexed = list(enumerate(items))
        pool = self

        def flaky(pair):
            index, item = pair
            with pool._lock:
                first = (call, index) not in pool._failed_once
                if index in targets and first:
                    pool._failed_once.add((call, index))
                    failing = True
                else:
                    failing = False
            if failing:
                if pool.kind is Kill:
                    raise WorkerCrash(
                        f"injected worker crash: call {call} task {index}"
                    )
                raise pool.kind(
                    f"injected failure: call {call} task {index}"
                )
            return fn(item)

        return self.inner.map(flaky, indexed)

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "FlakyPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
