"""Tests for the real-process BSP cluster."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.distrib import (
    DistributedSimulation,
    ProcessBspCluster,
    spatial_partition,
)
from repro.core.kernels import compiled_impl
from repro.errors import CommError, RankFailureError
from repro.evlog import LogSet
from repro.obs import configure, get_collector


class TestCollectives:
    def test_alltoall(self):
        def fn(comm):
            return comm.alltoall([f"{comm.rank}->{j}" for j in range(comm.size)])

        result = ProcessBspCluster(3).run(fn)
        assert result.returns[1] == ["0->1", "1->1", "2->1"]

    def test_consecutive_collectives_sequenced(self):
        def fn(comm):
            first = comm.alltoall([comm.rank] * comm.size)
            gathered = comm.gather(comm.rank * 2, root=1)
            comm.barrier()
            second = comm.alltoall([comm.rank * 10] * comm.size)
            return first, gathered, second

        result = ProcessBspCluster(4).run(fn)
        for rank, (first, gathered, second) in enumerate(result.returns):
            assert first == [0, 1, 2, 3]
            assert gathered == ([0, 2, 4, 6] if rank == 1 else None)
            assert second == [0, 10, 20, 30]

    def test_single_rank_fast_path(self):
        result = ProcessBspCluster(1).run(lambda comm: comm.alltoall([7]))
        assert result.returns == [[7]]

    def test_traffic_metered(self):
        def fn(comm):
            comm.alltoall([np.zeros(10, dtype=np.uint8)] * comm.size)
            return None

        result = ProcessBspCluster(3).run(fn)
        for stats in result.traffic:
            assert stats.bytes_sent == 20  # 2 peers x 10 B


class TestFailure:
    def test_rank_error_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            return comm.rank

        with pytest.raises(CommError, match="rank 1"):
            ProcessBspCluster(3).run(fn)

    def test_rank_error_fails_the_run_while_siblings_wait(self):
        """The others block in a collective the failed rank never joins:
        the run fails as soon as the error arrives, not at the deadline."""

        def fn(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 exploded")
            comm.barrier()

        tic = time.monotonic()
        with pytest.raises(CommError, match="rank 2 failed"):
            ProcessBspCluster(3).run(fn, timeout=30.0)
        assert time.monotonic() - tic < 10.0

    def test_single_rank_error_is_a_comm_error_with_its_cause(self):
        with pytest.raises(CommError, match="rank 0 failed") as exc_info:
            ProcessBspCluster(1).run(lambda comm: 1 / 0)
        assert isinstance(exc_info.value.__cause__, ZeroDivisionError)

    def test_timeout_is_one_shared_deadline(self):
        """Each rank finishes within ``timeout`` of the one before it, the
        last well past ``timeout``: the run fails at the deadline, not at
        ~n × timeout (nor succeeds)."""

        def fn(comm):
            time.sleep(0.4 * (comm.rank + 1))
            return comm.rank

        tic = time.monotonic()
        with pytest.raises(CommError, match="deadline"):
            ProcessBspCluster(4).run(fn, timeout=0.5)
        assert time.monotonic() - tic < 1.2  # rank 2 needs 1.2 s

    def test_killed_rank_is_named_at_once(self):
        """A rank SIGKILLed mid-run (as the OOM killer would) never reports;
        its siblings wait at a barrier it never reaches.  The run names it as
        soon as its exit code shows, well before the deadline."""

        def fn(comm):
            if comm.rank == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            comm.barrier()

        tic = time.monotonic()
        with pytest.raises(RankFailureError) as exc_info:
            ProcessBspCluster(3).run(fn, timeout=20.0)
        assert exc_info.value.suspects == [1]
        assert time.monotonic() - tic < 5.0

    def test_ranks_that_reported_then_exited_are_not_suspects(self):
        def fn(comm):
            if comm.rank == comm.size - 1:
                time.sleep(0.5)  # the others report and exit meanwhile
            return comm.rank

        result = ProcessBspCluster(4).run(fn, timeout=20.0)
        assert result.returns == [0, 1, 2, 3]

    def test_zero_ranks(self):
        with pytest.raises(CommError):
            ProcessBspCluster(0)

    def test_rank_args_length(self):
        with pytest.raises(CommError):
            ProcessBspCluster(2).run(lambda c, x: x, rank_args=[(1,)])


class TestModelOnProcesses:
    def test_identical_to_the_default_cluster(self, tmp_path):
        pop = repro.generate_population(repro.ScaleConfig(n_persons=300, seed=8))
        cfg = repro.SimulationConfig(
            scale=pop.scale, duration_hours=48, n_ranks=3
        )
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 3
        )
        sim = DistributedSimulation(pop, cfg, part)
        lockstep = sim.run()
        procs = sim.run(
            log_dir=tmp_path, cluster=ProcessBspCluster(3)
        )
        assert (lockstep.merged_records() == procs.merged_records()).all()
        assert lockstep.total_migrations == procs.total_migrations
        # children wrote real per-rank log files
        logs = LogSet(tmp_path)
        assert len(logs) == 3
        assert logs.total_records() == procs.total_events

    def test_forked_ranks_report_what_ran(self):
        """``run`` loads the extension before the fork, so every forked rank
        steps with what the parent reports; each rank's span ends in a child
        whose collector dies with it and comes back with the return value."""
        pop = repro.generate_population(repro.ScaleConfig(n_persons=300, seed=8))
        cfg = repro.SimulationConfig(scale=pop.scale, duration_hours=30, n_ranks=3)
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 3
        )
        previous = configure(True)  # the suite may run under REPRO_TELEMETRY=0
        try:
            get_collector().drain()
            res = DistributedSimulation(pop, cfg, part).run(
                cluster=ProcessBspCluster(3)
            )
            spans = get_collector().drain()
        finally:
            configure(previous)
        assert res.impl == ("cext" if compiled_impl() == "cext" else "twin")
        (run,) = [s for s in spans if s["name"] == "distrib.run"]
        ranks = sorted(
            (s for s in spans if s["name"] == "distrib.rank"),
            key=lambda s: s["attrs"]["rank"],
        )
        assert [s["attrs"]["rank"] for s in ranks] == [0, 1, 2]
        for s, records in zip(ranks, res.per_rank_records):
            assert (s["trace_id"], s["parent_id"]) == (run["trace_id"], run["span_id"])
            assert s["attrs"]["hours"] == 29
            assert s["attrs"]["records"] == len(records)
        assert sum(s["attrs"]["migrants"] for s in ranks) == res.total_migrations
