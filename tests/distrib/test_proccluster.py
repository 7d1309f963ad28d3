"""Tests for the real-process BSP cluster."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.distrib import (
    DistributedSimulation,
    ProcessBspCluster,
    spatial_partition,
)
from repro.core.kernels import compiled_impl
from repro.errors import CommError
from repro.evlog import LogSet
from repro.obs import configure, get_collector


class TestCollectives:
    def test_allreduce(self):
        result = ProcessBspCluster(4).run(
            lambda comm: comm.allreduce_sum(comm.rank + 1)
        )
        assert result.returns == [10, 10, 10, 10]

    def test_allreduce_arrays(self):
        def fn(comm):
            return comm.allreduce_sum(np.full(2, comm.rank, dtype=np.int64))

        result = ProcessBspCluster(3).run(fn)
        for out in result.returns:
            assert out.tolist() == [3, 3]

    def test_alltoall(self):
        def fn(comm):
            return comm.alltoall([f"{comm.rank}->{j}" for j in range(comm.size)])

        result = ProcessBspCluster(3).run(fn)
        assert result.returns[1] == ["0->1", "1->1", "2->1"]

    def test_gather_and_bcast(self):
        def fn(comm):
            g = comm.gather(comm.rank * 2, root=1)
            b = comm.bcast("hello" if comm.rank == 0 else None, root=0)
            return g, b

        result = ProcessBspCluster(3).run(fn)
        assert result.returns[1][0] == [0, 2, 4]
        assert all(r[1] == "hello" for r in result.returns)

    def test_consecutive_collectives_sequenced(self):
        def fn(comm):
            first = comm.allgather(comm.rank)
            second = comm.allgather(comm.rank * 10)
            third = comm.allreduce_sum(1)
            return first, second, third

        result = ProcessBspCluster(4).run(fn)
        for first, second, third in result.returns:
            assert first == [0, 1, 2, 3]
            assert second == [0, 10, 20, 30]
            assert third == 4

    def test_single_rank_fast_path(self):
        result = ProcessBspCluster(1).run(lambda comm: comm.allreduce_sum(7))
        assert result.returns == [7]

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

    def test_zero_ranks(self):
        with pytest.raises(CommError):
            ProcessBspCluster(0)

    def test_rank_args_length(self):
        with pytest.raises(CommError):
            ProcessBspCluster(2).run(lambda c, x: x, rank_args=[(1,)])


class TestModelOnProcesses:
    def test_identical_to_thread_cluster(self, tmp_path):
        pop = repro.generate_population(repro.ScaleConfig(n_persons=300, seed=8))
        cfg = repro.SimulationConfig(
            scale=pop.scale, duration_hours=48, n_ranks=3
        )
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 3
        )
        sim = DistributedSimulation(pop, cfg, part)
        threads = sim.run()
        procs = sim.run(
            log_dir=tmp_path, cluster=ProcessBspCluster(3)
        )
        assert (threads.merged_records() == procs.merged_records()).all()
        assert threads.total_migrations == procs.total_migrations
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
