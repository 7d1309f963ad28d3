"""The ranks of one process, stepped together: failures and traffic.

In process one loop steps every rank (``DistributedSimulation.run`` with
no cluster); a forked process rank runs the same loop for itself.  Here:
the per-rank traffic and outputs the in-process ranks report against what
forked ranks' communicators meter, and the failure semantics the
distributed model relies on — a killed rank named at once, an ordinary
error a ``CommError`` with its cause, a heartbeat that bounds a rank's
work between two collectives, and rank spans that never become the
current span.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import ScaleConfig, SimulationConfig
from repro.distrib import DistributedSimulation, ProcessBspCluster
from repro.distrib.partition import PlacePartition
from repro.errors import CommError, LogTruncatedError, RankFailureError
from repro.evlog import LogReader
from repro.obs import current_context, get_collector, start_span
from repro.synthpop import generate_population


class TestCollectives:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_same_replies_and_traffic_as_the_communicators(self, pop, tmp_path, n_ranks):
        """What the in-process ranks emit and meter — an alltoall every
        active hour, a snapshot's gather and barrier — equals what forked
        ranks emit and their communicators meter."""
        in_process, processes = (
            model(pop, n_ranks).run(cluster=cluster, checkpoint_dir=tmp_path / label)
            for label, cluster in (("in-process", None), ("processes", ProcessBspCluster(n_ranks)))
        )
        assert in_process.checkpoints_written == processes.checkpoints_written == 2
        assert in_process.per_rank_traffic == processes.per_rank_traffic
        assert [r.tobytes() for r in in_process.per_rank_records] == [
            r.tobytes() for r in processes.per_rank_records
        ]
        assert np.array_equal(in_process.migrations_per_hour, processes.migrations_per_hour)
        by_kind = in_process.traffic.by_kind
        assert set(by_kind) == {"alltoall", "gather", "barrier"}
        assert (by_kind["alltoall"] == 0) == (n_ranks == 1)


class TestFailures:
    def test_killed_rank_is_named_at_once(self, pop, tmp_path):
        killed = []

        def die(comm):
            killed.append(comm)
            comm.die()

        tic = time.monotonic()
        with pytest.raises(RankFailureError) as exc_info:
            model(pop, 4, heartbeat_timeout=30.0).run(
                log_dir=tmp_path, fault_hook=hook_once(3, 2, die)
            )
        assert time.monotonic() - tic < 30.0
        assert exc_info.value.suspects == [2]
        assert killed[0].dead and killed[0].rank == 2
        # every rank unwound: the victim's log torn by its kill, the
        # others' closed
        with pytest.raises(LogTruncatedError):
            LogReader(tmp_path / "rank_0002.evl", strict=True)
        for rank in (0, 1, 3):
            with LogReader(tmp_path / f"rank_{rank:04d}.evl", strict=True):
                pass

    def test_ordinary_error_is_a_comm_error_with_its_cause(self, pop, tmp_path):
        def boom(comm):
            raise ValueError("real bug")

        with pytest.raises(CommError, match="rank 1 failed.*real bug") as exc_info:
            model(pop, heartbeat_timeout=2.0).run(
                log_dir=tmp_path, fault_hook=hook_once(2, 1, boom)
            )
        assert not isinstance(exc_info.value, RankFailureError)
        assert isinstance(exc_info.value.__cause__, ValueError)
        # no kill: every rank's log is closed, the failing rank's too
        for rank in range(3):
            with LogReader(tmp_path / f"rank_{rank:04d}.evl", strict=True):
                pass

    def test_heartbeat_bounds_the_work_between_collectives(self, pop):
        def nap(comm):
            time.sleep(0.6)

        with pytest.raises(RankFailureError, match="heartbeat") as exc_info:
            model(pop, heartbeat_timeout=0.2).run(fault_hook=hook_once(2, 1, nap))
        assert exc_info.value.suspects == [1]
        # not armed: the same nap is only slow
        assert model(pop).run(fault_hook=hook_once(2, 1, nap)).total_events


SCALE = ScaleConfig(n_persons=300, seed=23)


@pytest.fixture(scope="module")
def pop():
    return generate_population(SCALE)


def model(pop, n_ranks=3, **overrides):
    assignment = (np.arange(pop.n_places) % n_ranks).astype(np.int32)
    config = SimulationConfig(
        **{
            "scale": SCALE, "duration_hours": 60, "n_ranks": n_ranks,
            "checkpoint_every_hours": 24, "log_durability": "wal",
            **overrides,
        }
    )
    return DistributedSimulation(pop, config, PlacePartition(assignment, n_ranks))


def hook_once(hour, rank, action):
    fired = []

    def hook(comm, at):
        if at == hour and comm.rank == rank and not fired:
            fired.append(at)
            action(comm)

    return hook


class TestModelFaults:
    """The distributed model with its ranks in process."""

    def test_killed_rank_fails_the_run_before_any_heartbeat(self, pop, tmp_path):
        sim = model(pop, heartbeat_timeout=30.0)
        tic = time.monotonic()
        with pytest.raises(RankFailureError) as exc_info:
            sim.run(
                log_dir=tmp_path / "logs", checkpoint_dir=tmp_path / "ck",
                fault_hook=hook_once(30, 1, lambda comm: comm.die()),
            )
        assert time.monotonic() - tic < 30.0
        assert exc_info.value.suspects == [1]
        # the victim's log is torn; the others' writers closed theirs
        with pytest.raises(LogTruncatedError):
            LogReader(tmp_path / "logs" / "rank_0001.evl", strict=True)
        for rank in (0, 2):
            with LogReader(tmp_path / "logs" / f"rank_{rank:04d}.evl", strict=True):
                pass

    def test_rank_error_is_a_comm_error_with_its_cause(self, pop):
        def boom(comm):
            raise ValueError("hook bug")

        with pytest.raises(CommError, match="rank 2 failed.*hook bug") as exc_info:
            model(pop).run(fault_hook=hook_once(30, 2, boom))
        assert type(exc_info.value) is CommError
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_heartbeat_overrun_is_a_failure_and_restarts(self, pop, tmp_path):
        def nap(comm):
            time.sleep(1.0)

        with pytest.raises(RankFailureError, match="heartbeat") as exc_info:
            model(pop, heartbeat_timeout=0.5).run(
                log_dir=tmp_path / "failed", fault_hook=hook_once(30, 2, nap)
            )
        assert exc_info.value.suspects == [2]

        clean = tmp_path / "clean"
        model(pop).run(log_dir=clean, checkpoint_dir=tmp_path / "clean-ck")
        logs = tmp_path / "logs"
        run = model(pop, heartbeat_timeout=0.5).run(
            log_dir=logs, checkpoint_dir=tmp_path / "ck",
            fault_hook=hook_once(30, 2, nap), max_restarts=1,
        )
        assert run.restarts == 1
        for path in sorted(clean.glob("*.evl")):
            assert path.read_bytes() == (logs / path.name).read_bytes()


class TestRankSpans:
    def test_rank_spans_never_become_the_current_span(self, pop, registry):
        seen = {}

        def hook(comm, hour):
            seen[(comm.rank, hour)] = current_context()

        get_collector().drain()
        with start_span("outer") as outer:
            res = model(pop).run(fault_hook=hook)
            assert current_context() == outer.context()
        spans = get_collector().drain()
        (run,) = [s for s in spans if s["name"] == "distrib.run"]
        ranks = [s for s in spans if s["name"] == "distrib.rank"]
        assert run["parent_id"] == outer.span_id
        # every rank-hour ran under the run's context, whichever rank ran
        # before it on the thread
        assert len(seen) == 3 * 59
        assert set(seen.values()) == {(run["trace_id"], run["span_id"])}
        assert sorted(s["attrs"]["rank"] for s in ranks) == [0, 1, 2]
        for s in ranks:
            assert (s["trace_id"], s["parent_id"]) == (run["trace_id"], run["span_id"])
            assert s["status"] == "ok"
            assert s["attrs"]["records"] == len(res.per_rank_records[s["attrs"]["rank"]])
        assert current_context() is None

    def test_a_killed_run_ends_every_rank_span(self, pop, registry):
        get_collector().drain()
        with pytest.raises(RankFailureError):
            model(pop).run(fault_hook=hook_once(30, 1, lambda comm: comm.die()))
        spans = get_collector().drain()
        ranks = {s["attrs"]["rank"]: s for s in spans if s["name"] == "distrib.rank"}
        assert sorted(ranks) == [0, 1, 2]
        assert ranks[1]["status"] == "error:RankDeadError"
        # the survivors end with the run's failure
        assert {ranks[0]["status"], ranks[2]["status"]} == {"error:RankFailureError"}
        assert current_context() is None
