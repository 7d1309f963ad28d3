"""Rank failure detection (heartbeat) and supervised recovery."""

from __future__ import annotations

import hashlib
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HOURS_PER_WEEK, ScaleConfig, SimulationConfig
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


class TestKillAnywhere:
    """A rank killed at any hour — a change-free one (no collective), a
    snapshot hour, either side of the week boundary — and restarted from
    the last snapshot leaves rank logs byte-equal to a run nobody killed,
    and the records they read back equal a run without logs."""

    HOURS = HOURS_PER_WEEK + 30
    EVERY = 24

    def config(self, n_ranks):
        return _config(
            n_ranks=n_ranks, duration_hours=self.HOURS,
            checkpoint_every_hours=self.EVERY, heartbeat_timeout=1.0,
        )

    @pytest.fixture(scope="class")
    def reference(self, pop, tmp_path_factory):
        """Per rank count: the never-killed logs, the no-log records and
        the hours worth drawing on purpose."""
        generator = pop.schedule_generator()
        planes = [
            generator.week(0).change_plane(None),
            generator.week(1).change_plane(generator.week(0)),
        ]
        quiet = [
            h for h in range(1, self.HOURS)
            if not planes[h // HOURS_PER_WEEK][h % HOURS_PER_WEEK].any()
        ]
        edges = list(range(self.EVERY - 1, self.HOURS, self.EVERY))
        edges += [h + 1 for h in edges] + [HOURS_PER_WEEK - 1, HOURS_PER_WEEK]
        out = {}
        for n_ranks in (1, N_RANKS):
            sim = DistributedSimulation(
                pop, self.config(n_ranks), _partition(pop, n_ranks)
            )
            logs = tmp_path_factory.mktemp(f"never-killed-{n_ranks}")
            sim.run(log_dir=logs, checkpoint_dir=logs / "ck")
            logs_bytes = {p.name: p.read_bytes() for p in sorted(logs.glob("*.evl"))}
            out[n_ranks] = (logs_bytes, sim.run().per_rank_records)
        return out, quiet, sorted(set(edges) - {self.HOURS})

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("n_ranks", [1, N_RANKS])
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_killed_anywhere_logs_what_nobody_killed(
        self, pop, reference, n_ranks, data
    ):
        by_ranks, quiet, edges = reference
        logs_bytes, held = by_ranks[n_ranks]
        hour = data.draw(
            st.one_of(
                st.integers(1, self.HOURS - 1),
                st.sampled_from(quiet),
                st.sampled_from(edges),
            ),
            label="kill hour",
        )
        victim = data.draw(st.integers(0, n_ranks - 1), label="killed rank")
        fired = []

        def hook(comm, at):
            if at == hour and comm.rank == victim and not fired:
                fired.append(at)
                comm.die()

        with tempfile.TemporaryDirectory() as tmp:
            logs = Path(tmp) / "logs"
            run = DistributedSimulation(
                pop, self.config(n_ranks), _partition(pop, n_ranks)
            ).run(
                log_dir=logs, checkpoint_dir=Path(tmp) / "ck",
                fault_hook=hook, max_restarts=2,
            )
            assert fired and run.restarts >= 1
            written = {p.name: p.read_bytes() for p in sorted(logs.glob("*.evl"))}
            assert written == logs_bytes
            for a, b in zip(run.per_rank_records, held):
                assert a.tobytes() == b.tobytes()
