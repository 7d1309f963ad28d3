"""Rank failure detection (heartbeat) and supervised recovery."""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from repro.config import ScaleConfig, SimulationConfig
from repro.distrib.dmodel import DistributedSimulation
from repro.distrib.partition import PlacePartition
from repro.distrib.simcluster import SimCluster
from repro.errors import CommError, RankDeadError, RankFailureError
from repro.synthpop import generate_population

SCALE = ScaleConfig(n_persons=350, seed=19)
HOURS = 48
N_RANKS = 3


@pytest.fixture(scope="module")
def pop():
    return generate_population(SCALE)


def _partition(pop, n_ranks=N_RANKS):
    assignment = (np.arange(pop.n_places) % n_ranks).astype(np.int32)
    return PlacePartition(assignment, n_ranks)


def _config(**overrides):
    defaults = dict(
        scale=SCALE,
        duration_hours=HOURS,
        n_ranks=N_RANKS,
        checkpoint_every_hours=12,
        heartbeat_timeout=5.0,
        log_durability="wal",
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestHeartbeat:
    def test_dead_rank_detected_with_suspects(self):
        cluster = SimCluster(4, heartbeat_timeout=1.0)

        def rank_fn(comm):
            for i in range(8):
                if i == 4 and comm.rank == 2:
                    comm.die()
                comm.allreduce_sum(comm.rank)
            return comm.rank

        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as exc_info:
            cluster.run(rank_fn)
        assert time.monotonic() - t0 < 10  # deadline, not the join timeout
        assert exc_info.value.suspects == [2]

    def test_single_rank_death(self):
        with pytest.raises(RankFailureError) as exc_info:
            SimCluster(1).run(lambda comm: comm.die())
        assert exc_info.value.suspects == [0]

    def test_die_is_silent_no_barrier_abort(self):
        """Siblings must NOT learn of the death via exception propagation;
        without a heartbeat the run stalls until the shared deadline."""
        cluster = SimCluster(2)  # no heartbeat armed

        def rank_fn(comm):
            if comm.rank == 1:
                comm.die()
            comm.barrier()  # rank 0 blocks here forever

        t0 = time.monotonic()
        with pytest.raises(CommError, match="deadline"):
            cluster.run(rank_fn, timeout=1.5)
        assert time.monotonic() - t0 >= 1.4

    def test_die_marks_communicator(self):
        held = {}

        def rank_fn(comm):
            held[comm.rank] = comm
            if comm.rank == 0:
                comm.die()

        with pytest.raises(RankFailureError):
            SimCluster(1).run(rank_fn)
        assert held[0].dead
        with pytest.raises(RankDeadError):
            held[0].die()

    def test_ordinary_error_still_propagates(self):
        def rank_fn(comm):
            if comm.rank == 1:
                raise ValueError("real bug")
            comm.barrier()

        with pytest.raises(CommError, match="real bug"):
            SimCluster(3, heartbeat_timeout=2.0).run(rank_fn)

    def test_rejects_bad_heartbeat(self):
        with pytest.raises(CommError, match="positive"):
            SimCluster(2, heartbeat_timeout=0.0)


class TestSharedDeadline:
    def test_join_timeout_is_shared_not_per_thread(self):
        """Four hung ranks must fail after ~timeout, not ~4 × timeout."""
        cluster = SimCluster(4)

        def rank_fn(comm):
            time.sleep(30)

        t0 = time.monotonic()
        with pytest.raises(CommError, match="deadline"):
            cluster.run(rank_fn, timeout=1.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 3.0  # per-thread joins would take >= 4s


class TestSupervisedRecovery:
    """Kill one rank mid-run and restart from the last snapshot.  The
    subclass below runs every case on a world of one rank, which is what
    ``simulate --ranks 1`` runs."""

    n_ranks = N_RANKS

    @pytest.fixture()
    def partition(self, pop):
        return _partition(pop, self.n_ranks)

    def _config(self, **overrides):
        return _config(n_ranks=self.n_ranks, **overrides)

    def victim(self, rank: int) -> int:
        """The rank a case kills: ``rank``, or the last one of a smaller
        world."""
        return min(rank, self.n_ranks - 1)

    def test_recovery_is_bit_for_bit(self, pop, partition, tmp_path):
        ref = DistributedSimulation(pop, self._config(), partition).run(
            log_dir=tmp_path / "logs_ref", checkpoint_dir=tmp_path / "ck_ref"
        )
        assert ref.checkpoints_written == 3
        assert ref.restarts == 0

        state = {"killed": False}

        def hook(comm, hour):
            # kill rank 1 (0 on one rank) once, after the hour-24 checkpoint
            if hour == 30 and comm.rank == self.victim(1) and not state["killed"]:
                state["killed"] = True
                comm.die()

        rec = DistributedSimulation(pop, self._config(), partition).run(
            log_dir=tmp_path / "logs_rec",
            checkpoint_dir=tmp_path / "ck_rec",
            fault_hook=hook,
            max_restarts=2,
        )
        assert state["killed"]
        assert rec.restarts == 1
        assert np.array_equal(ref.merged_records(), rec.merged_records())
        for name in sorted(p.name for p in (tmp_path / "logs_ref").glob("*.evl")):
            ha = hashlib.sha256(
                (tmp_path / "logs_ref" / name).read_bytes()
            ).hexdigest()
            hb = hashlib.sha256(
                (tmp_path / "logs_rec" / name).read_bytes()
            ).hexdigest()
            assert ha == hb, f"rank log {name} diverged after recovery"

    def test_failure_without_restarts_propagates(self, pop, partition, tmp_path):
        def hook(comm, hour):
            if hour == 30 and comm.rank == 0:
                comm.die()

        with pytest.raises(RankFailureError) as exc_info:
            DistributedSimulation(pop, self._config(), partition).run(
                checkpoint_dir=tmp_path / "ck", fault_hook=hook
            )
        assert 0 in exc_info.value.suspects

    def test_recovery_before_first_checkpoint_restarts_from_scratch(
        self, pop, partition, tmp_path
    ):
        ref = DistributedSimulation(pop, self._config(), partition).run()

        state = {"killed": False}

        def hook(comm, hour):
            if hour == 5 and comm.rank == self.victim(2) and not state["killed"]:
                state["killed"] = True
                comm.die()

        rec = DistributedSimulation(pop, self._config(), partition).run(
            log_dir=tmp_path / "logs",
            checkpoint_dir=tmp_path / "ck",
            fault_hook=hook,
            max_restarts=1,
        )
        assert rec.restarts == 1
        assert np.array_equal(ref.merged_records(), rec.merged_records())

    def test_restart_budget_exhausted(self, pop, partition, tmp_path):
        def hook(comm, hour):  # unconditional: dies again after each restart
            if hour == 20 and comm.rank == self.victim(1):
                comm.die()

        with pytest.raises(RankFailureError):
            DistributedSimulation(pop, self._config(), partition).run(
                checkpoint_dir=tmp_path / "ck",
                fault_hook=hook,
                max_restarts=2,
            )


class TestOneRankSupervisedRecovery(TestSupervisedRecovery):
    n_ranks = 1
