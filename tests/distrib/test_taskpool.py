"""Tests for the SNOW-style worker pool and its retry machinery.

``TestSerialPool`` and the ``serial`` rows hold the inline leg (one
worker), ``TestThreadPool`` and the ``thread`` rows the threaded one.
"""

from __future__ import annotations

import pytest

from repro.distrib import PoolReport, RetryPolicy, TaskPool
from repro.errors import PartitionError, TaskRetryError
from tests._faults import Kill, inject_failures


def square(x):
    return x * x


NO_SLEEP = RetryPolicy(max_attempts=3, base_delay=0.0)


class TestSerialPool:
    def test_map_preserves_order(self):
        with TaskPool() as pool:
            assert pool.map(square, [3, 1, 2]) == [9, 1, 4]

    def test_closed_pool_rejects_map(self):
        pool = TaskPool()
        pool.close()
        with pytest.raises(PartitionError):
            pool.map(square, [1])

    def test_n_workers(self):
        assert TaskPool().n_workers == 1


class TestThreadPool:
    def test_map_preserves_order(self):
        with TaskPool(4) as pool:
            assert pool.map(square, list(range(20))) == [i * i for i in range(20)]

    def test_exception_propagates(self):
        def boom(x):
            raise ValueError("boom")

        with TaskPool(2) as pool:
            with pytest.raises(ValueError):
                pool.map(boom, [1, 2])

    def test_rejects_zero_workers(self):
        with pytest.raises(PartitionError):
            TaskPool(0)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("retry", [None, RetryPolicy(max_attempts=3)])
class TestOneContractForEveryWorkerCount:
    def test_closed_pool_is_a_typed_error(self, workers, retry):
        pool = TaskPool(workers, retry=retry)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PartitionError, match="pool is closed"):
            pool.map(square, [1, 2])
        with pytest.raises(PartitionError, match="pool is closed"):
            pool.map(square, [])

    def test_empty_map_is_accounted(self, workers, retry, registry):
        with TaskPool(workers, retry=retry) as pool:
            assert pool.map(square, []) == []
            assert pool.map(square, [2]) == [4]
        counters = registry.snapshot()["counters"]
        assert counters["pool.map_calls"] == 2
        assert counters["pool.tasks"] == 1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(PartitionError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(PartitionError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(PartitionError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(PartitionError):
            RetryPolicy(base_delay=-1.0)

    def test_zero_base_delay_never_sleeps(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        assert policy.delay(0, 1) == 0.0
        assert policy.delay(7, 4) == 0.0

    def test_delay_is_deterministic(self):
        a = RetryPolicy(max_attempts=4, base_delay=0.1, seed=9)
        b = RetryPolicy(max_attempts=4, base_delay=0.1, seed=9)
        assert a.delay(3, 2) == b.delay(3, 2)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, backoff=2.0, max_delay=4.0,
            jitter=0.0,
        )
        assert policy.delay(0, 1) == 1.0
        assert policy.delay(0, 2) == 2.0
        assert policy.delay(0, 3) == 4.0
        assert policy.delay(0, 5) == 4.0  # capped

    def test_jitter_within_fraction(self):
        policy = RetryPolicy(
            max_attempts=2, base_delay=1.0, backoff=1.0, jitter=0.2
        )
        for task in range(50):
            d = policy.delay(task, 1)
            assert 0.8 <= d <= 1.2

    def test_should_retry_respects_kinds(self):
        policy = RetryPolicy(max_attempts=3, retry_on=(ValueError,))
        assert policy.should_retry(ValueError(), 1)
        assert not policy.should_retry(KeyError(), 1)
        assert not policy.should_retry(ValueError(), 3)


@pytest.mark.parametrize("make", [
    lambda retry: TaskPool(retry=retry),
    lambda retry: TaskPool(2, retry=retry),
], ids=["serial", "thread"])
class TestRetryAcrossBackends:
    def test_transient_failure_recovers(self, make, tmp_path):
        flaky = inject_failures(square, fail_on={3}, state_dir=tmp_path)
        with make(NO_SLEEP) as pool:
            assert pool.map(flaky, list(range(6))) == [i * i for i in range(6)]
            assert pool.report.n_retries == 1
            assert pool.report.n_exhausted == 0
            assert pool.last_attempts[3] == 2
            assert all(
                pool.last_attempts[i] == 1 for i in range(6) if i != 3
            )

    def test_simulated_worker_crash_recovers(self, make, tmp_path):
        flaky = inject_failures(
            square, fail_on={1, 4}, kind=Kill, state_dir=tmp_path
        )
        with make(NO_SLEEP) as pool:
            assert pool.map(flaky, list(range(6))) == [i * i for i in range(6)]
            assert pool.report.n_retries == 2
            assert pool.report.retried_tasks == {1: 2, 4: 2}

    def test_exhausted_retries_raise(self, make, tmp_path):
        always = inject_failures(
            square, fail_on={2}, times=99, state_dir=tmp_path
        )
        with make(NO_SLEEP) as pool:
            with pytest.raises(TaskRetryError) as err:
                pool.map(always, list(range(4)))
            assert err.value.task_index == 2
            assert err.value.attempts == NO_SLEEP.max_attempts
            assert isinstance(err.value.__cause__, ValueError)
            assert pool.report.n_exhausted == 1

    def test_report_accumulates_across_maps(self, make, tmp_path):
        flaky = inject_failures(square, fail_on={0}, state_dir=tmp_path)
        with make(NO_SLEEP) as pool:
            pool.map(flaky, [0, 1])  # one retry (task 0, first attempt)
            pool.map(square, [5, 6])  # clean
            assert pool.report.n_tasks == 4
            assert pool.report.n_retries == 1


class TestPoolReport:
    def test_summary_mentions_counts(self):
        report = PoolReport()
        report.record(0, 1, exhausted=False)
        report.record(1, 3, exhausted=False)
        assert "retries=2" in report.summary()
        assert "tasks=2" in report.summary()
