"""Checkpoint/resume, worker-crash recovery, and quarantine for
``synthesize_from_logs`` — the acceptance scenarios of the robustness layer.

The central invariant: however a run is interrupted (a raising worker
task, a killed process between batches) and however it is brought back
(pool-level retries, checkpoint resume), the final adjacency matrix is
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import synthesize_from_logs
from repro.core.pipeline import (
    CHECKPOINT_MANIFEST,
    CHECKPOINT_PARTIAL,
    checkpoint_digest,
    load_checkpoint_manifest,
)
from repro.distrib import RetryPolicy, TaskPool
from repro.errors import CheckpointError, LogCorruptError, TaskRetryError
from repro.evlog import LogSet, make_records, write_rank_logs
from tests._faults import FlakyPool, WorkerCrash

N_PERSONS = 120
N_PLACES = 40
T0, T1 = 0, 100
NO_SLEEP = RetryPolicy(max_attempts=3, base_delay=0.0)


def random_rank_records(rng, n_records):
    start = rng.integers(0, 90, n_records).astype(np.uint32)
    stop = start + rng.integers(1, 8, n_records).astype(np.uint32)
    return make_records(
        start,
        stop,
        rng.integers(0, N_PERSONS, n_records),
        rng.integers(0, 6, n_records),
        rng.integers(0, N_PLACES, n_records),
    )


def write_random_logs(directory, seed, n_ranks=6, records_per_rank=300):
    rng = np.random.default_rng(seed)
    per_rank = [random_rank_records(rng, records_per_rank) for _ in range(n_ranks)]
    write_rank_logs(directory, per_rank)
    return directory


def identical(a, b):
    """Bit-for-bit CSR equality, not just numerical closeness."""
    return (
        a.adjacency.shape == b.adjacency.shape
        and np.array_equal(a.adjacency.data, b.adjacency.data)
        and np.array_equal(a.adjacency.indices, b.adjacency.indices)
        and np.array_equal(a.adjacency.indptr, b.adjacency.indptr)
    )


class TestCheckpointResumeEquivalence:
    """Property: for random record sets and random interrupt points, a
    resumed run reproduces the uninterrupted run bit-for-bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_resume_matches_uninterrupted(self, tmp_path, seed):
        logs = write_random_logs(tmp_path / "logs", seed)
        baseline, base_report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2
        )
        assert base_report.batches == 3

        # every batch issues one pool.map call (its file tasks); dying on
        # call k kills the run inside batch k
        rng = np.random.default_rng(1000 + seed)
        die_call = int(rng.integers(0, 3))
        ckpt = tmp_path / "ckpt"
        pool = FlakyPool(TaskPool(), die_on_calls={die_call})
        with pytest.raises(WorkerCrash):
            synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2,
                pool=pool, checkpoint=ckpt,
            )
        pool.inner.close()

        done_batches = die_call
        if done_batches:
            manifest = load_checkpoint_manifest(ckpt)
            assert manifest["batches_done"] == done_batches
            resumed, report = synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2, resume=ckpt
            )
            assert report.resumed_batches == done_batches
        else:
            # killed inside batch 0: nothing committed, start clean
            resumed, report = synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2
            )
        assert report.batches == 3
        assert identical(baseline, resumed)
        assert report.n_records == base_report.n_records
        assert report.n_places == base_report.n_places

    def test_resume_after_every_batch_boundary(self, tmp_path):
        """Kill cleanly after each batch in turn; every resume must match."""
        logs = write_random_logs(tmp_path / "logs", seed=42)
        baseline, _ = synthesize_from_logs(logs, N_PERSONS, T0, T1, batch_size=2)
        for done in (1, 2):
            ckpt = tmp_path / f"ckpt_{done}"
            pool = FlakyPool(TaskPool(), die_on_calls={done})
            with pytest.raises(WorkerCrash):
                synthesize_from_logs(
                    logs, N_PERSONS, T0, T1, batch_size=2,
                    pool=pool, checkpoint=ckpt,
                )
            pool.inner.close()
            resumed, report = synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2, resume=ckpt
            )
            assert report.resumed_batches == done
            assert identical(baseline, resumed)


class TestCheckpointSafety:
    def test_resume_refuses_mismatched_config(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=3)
        ckpt = tmp_path / "ckpt"
        synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2, checkpoint=ckpt
        )
        # different window
        with pytest.raises(CheckpointError):
            synthesize_from_logs(
                logs, N_PERSONS, T0, T1 - 10, batch_size=2, resume=ckpt
            )
        # different batch size
        with pytest.raises(CheckpointError):
            synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=3, resume=ckpt
            )
        # different population
        with pytest.raises(CheckpointError):
            synthesize_from_logs(
                logs, N_PERSONS + 1, T0, T1, batch_size=2, resume=ckpt
            )

    def test_resume_refuses_missing_checkpoint(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=4)
        with pytest.raises(CheckpointError):
            synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2,
                resume=tmp_path / "nowhere",
            )

    def test_digest_changes_with_file_list(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=5, n_ranks=4)
        log_set = LogSet(logs)
        d1 = checkpoint_digest(log_set, N_PERSONS, T0, T1, 2)
        (logs / "rank_0003.evl").unlink()
        d2 = checkpoint_digest(LogSet(logs), N_PERSONS, T0, T1, 2)
        assert d1 != d2

    def test_completed_run_resumes_as_noop(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=6)
        ckpt = tmp_path / "ckpt"
        baseline, _ = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2, checkpoint=ckpt
        )
        assert (ckpt / CHECKPOINT_MANIFEST).is_file()
        assert (ckpt / CHECKPOINT_PARTIAL).is_file()
        resumed, report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2, resume=ckpt
        )
        assert report.resumed_batches == 3
        assert identical(baseline, resumed)


class TestWorkerCrashRecovery:
    """Acceptance: a worker crash in batch 2 of 4 is retried and the run
    completes with the correct network and the retries on record."""

    def test_injected_crash_mid_run_recovers(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=7, n_ranks=8)
        baseline, _ = synthesize_from_logs(logs, N_PERSONS, T0, T1, batch_size=2)

        # batch 2 (zero-based batch index 1) = map call 1; fail the first
        # attempt of both its file tasks
        pool = FlakyPool(
            TaskPool(retry=NO_SLEEP), fail_tasks={1: {0, 1}}
        )
        net, report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2, pool=pool
        )
        pool.inner.close()
        assert identical(baseline, net)
        assert report.batches == 4
        assert report.n_retries == 2

    def test_crash_recovery_with_threads(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=8)
        baseline, _ = synthesize_from_logs(logs, N_PERSONS, T0, T1, batch_size=2)
        pool = FlakyPool(
            TaskPool(2, retry=NO_SLEEP), fail_tasks={0: {0}, 2: {1}}
        )
        net, report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2, pool=pool
        )
        pool.inner.close()
        assert identical(baseline, net)
        assert report.n_retries == 2

    def test_exhausted_retries_raise_and_the_run_resumes(self, tmp_path):
        """A file task that keeps crashing exhausts the policy: the run
        dies with ``TaskRetryError`` between two committed batches and
        resumes bit-identically."""
        logs = write_random_logs(tmp_path / "logs", seed=13)
        baseline, _ = synthesize_from_logs(logs, N_PERSONS, T0, T1, batch_size=2)
        ckpt = tmp_path / "ckpt"
        pool = FlakyPool(
            TaskPool(2, retry=RetryPolicy(max_attempts=1, base_delay=0.0)),
            fail_tasks={1: {1}},
        )
        with pytest.raises(TaskRetryError) as err:
            synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2,
                pool=pool, checkpoint=ckpt,
            )
        pool.inner.close()
        assert isinstance(err.value.__cause__, WorkerCrash)
        assert load_checkpoint_manifest(ckpt)["batches_done"] == 1
        resumed, report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2, resume=ckpt
        )
        assert report.resumed_batches == 1
        assert identical(baseline, resumed)

    def test_unrecoverable_crash_still_fails(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=9)
        pool = FlakyPool(TaskPool(), die_on_calls={2})
        with pytest.raises(WorkerCrash):
            synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2, pool=pool
            )
        pool.inner.close()


class TestQuarantine:
    """Acceptance: quarantining one corrupted file yields the same network
    as synthesizing the remaining files directly; strict=True raises."""

    @staticmethod
    def _corrupt(path):
        """Flip one byte mid-file: a chunk CRC failure, not a bad header."""
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_quarantine_matches_remaining_files(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=10, n_ranks=4)
        bad = logs / "rank_0002.evl"

        # reference: only the three good files, in their own directory
        good_dir = tmp_path / "good"
        good_dir.mkdir()
        for p in sorted(logs.iterdir()):
            if p.name != bad.name:
                (good_dir / p.name).write_bytes(p.read_bytes())
        reference, _ = synthesize_from_logs(
            good_dir, N_PERSONS, T0, T1, batch_size=16
        )

        self._corrupt(bad)
        net, report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=16
        )
        assert identical(reference, net)
        assert report.quarantined == [str(bad)]
        assert report.skipped_records >= 0

    def test_strict_mode_still_raises(self, tmp_path):
        logs = write_random_logs(tmp_path / "logs", seed=11, n_ranks=4)
        self._corrupt(logs / "rank_0001.evl")
        with pytest.raises(LogCorruptError):
            synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=16, strict=True
            )

    def test_quarantine_and_checkpoint_compose(self, tmp_path):
        """A corrupt file plus a mid-run kill: resume still matches the
        quarantined baseline and keeps the quarantine record."""
        logs = write_random_logs(tmp_path / "logs", seed=12, n_ranks=6)
        self._corrupt(logs / "rank_0003.evl")
        baseline, base_report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2
        )
        assert len(base_report.quarantined) == 1

        ckpt = tmp_path / "ckpt"
        pool = FlakyPool(TaskPool(), die_on_calls={2})
        with pytest.raises(WorkerCrash):
            synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2,
                pool=pool, checkpoint=ckpt,
            )
        pool.inner.close()
        resumed, report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2, resume=ckpt
        )
        assert identical(baseline, resumed)
        assert report.quarantined == base_report.quarantined
