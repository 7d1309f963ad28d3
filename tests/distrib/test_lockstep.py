"""The lockstep cluster: ranks as generators stepped by one thread.

Collectives and their traffic against the process cluster, the refusals
blocking ranks would deadlock on, and the failure semantics the
distributed model relies on: a killed rank named at once, an ordinary
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
from repro.distrib.lockstep import LockstepCluster, spmd
from repro.distrib.partition import PlacePartition
from repro.errors import CommError, LogTruncatedError, RankFailureError
from repro.evlog import LogReader
from repro.obs import current_context, get_collector, start_span
from repro.synthpop import generate_population


def exchange_body(comm):
    """alltoall, gather, barrier, alltoall of arrays: every collective the
    model yields, with payloads of several sizes."""
    got = yield ("alltoall", [f"{comm.rank}->{j}" for j in range(comm.size)])
    gathered = yield ("gather", {"rank": comm.rank, "rows": np.arange(comm.rank)}, 0)
    yield ("barrier",)
    arrays = [
        np.full(comm.rank + j, comm.rank, np.int32) if j != comm.rank else None
        for j in range(comm.size)
    ]
    back = yield ("alltoall", arrays)
    roots = None if gathered is None else [g["rank"] for g in gathered]
    return got, roots, [None if a is None else a.tolist() for a in back]


class TestCollectives:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_same_replies_and_traffic_as_the_communicators(self, n_ranks):
        lockstep = LockstepCluster(n_ranks).run(exchange_body)
        processes = ProcessBspCluster(n_ranks).run(spmd(exchange_body))
        assert lockstep.returns == processes.returns
        assert lockstep.traffic == processes.traffic
        assert lockstep.returns[0][1] == list(range(n_ranks))
        assert all(out[1] is None for out in lockstep.returns[1:])
        assert lockstep.returns[n_ranks - 1][0] == [
            f"{src}->{n_ranks - 1}" for src in range(n_ranks)
        ]

    def test_rank_args_reach_each_body(self):
        def body(comm, base):
            got = yield ("alltoall", [base + comm.rank] * comm.size)
            return got

        result = LockstepCluster(3).run(body, rank_args=[(10,), (20,), (30,)])
        assert result.returns == [[10, 21, 32]] * 3

    def test_refuses_bad_configuration(self):
        with pytest.raises(CommError, match="at least one rank"):
            LockstepCluster(0)
        with pytest.raises(CommError, match="positive"):
            LockstepCluster(2, heartbeat_timeout=0.0)
        with pytest.raises(CommError, match="rank_args"):
            LockstepCluster(3).run(exchange_body, rank_args=[()])


def closing_body(closed):
    """A body that records when its ``finally`` ran, then yields ``step``
    for each rank (a callable per rank) until ``step`` returns None."""

    def body(comm, plan):
        try:
            for op in plan:
                yield op(comm)
            return comm.rank
        finally:
            closed.append(comm.rank)

    return body


class TestRefusals:
    def test_ranks_at_different_collectives(self):
        closed = []

        def op(comm):
            if comm.rank == 1:
                return ("barrier",)
            return ("alltoall", [None] * comm.size)

        with pytest.raises(CommError, match="different collectives"):
            LockstepCluster(3).run(closing_body(closed), rank_args=[([op],)] * 3)
        assert sorted(closed) == [0, 1, 2]

    def test_gathers_to_different_roots(self):
        def op(comm):
            return ("gather", comm.rank, comm.rank % 2)

        with pytest.raises(CommError, match="different roots"):
            LockstepCluster(2).run(closing_body([]), rank_args=[([op],)] * 2)

    def test_a_rank_returning_while_others_wait(self):
        def op(comm):
            return ("barrier",)

        plans = [([op],), ([],), ([op],)]
        with pytest.raises(CommError, match="1 of 3 ranks returned"):
            LockstepCluster(3).run(closing_body([]), rank_args=plans)

    def test_alltoall_with_too_few_payloads(self):
        def op(comm):
            return ("alltoall", [None] * (comm.size - comm.rank))

        with pytest.raises(CommError, match="alltoall needs 3 payloads"):
            LockstepCluster(3).run(closing_body([]), rank_args=[([op],)] * 3)


class TestFailures:
    def test_killed_rank_is_named_at_once(self):
        closed, killed = [], []

        def body(comm):
            try:
                for i in range(6):
                    if i == 3 and comm.rank == 2:
                        killed.append(comm)
                        comm.die()
                    yield ("alltoall", [None] * comm.size)
            finally:
                closed.append(comm.rank)

        tic = time.monotonic()
        with pytest.raises(RankFailureError) as exc_info:
            LockstepCluster(4, heartbeat_timeout=30.0).run(body)
        assert time.monotonic() - tic < 30.0
        assert exc_info.value.suspects == [2]
        assert killed[0].dead
        # every rank unwound: the victim by its kill, the rest where they
        # waited
        assert sorted(closed) == [0, 1, 2, 3]

    def test_ordinary_error_is_a_comm_error_with_its_cause(self):
        closed = []

        def body(comm):
            try:
                yield ("barrier",)
                if comm.rank == 1:
                    raise ValueError("real bug")
                yield ("barrier",)
            finally:
                closed.append(comm.rank)

        with pytest.raises(CommError, match="real bug") as exc_info:
            LockstepCluster(3, heartbeat_timeout=2.0).run(body)
        assert not isinstance(exc_info.value, RankFailureError)
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert sorted(closed) == [0, 1, 2]

    def test_heartbeat_bounds_the_work_between_collectives(self):
        def body(comm, nap):
            yield ("barrier",)
            time.sleep(nap)
            yield ("barrier",)
            return comm.rank

        naps = [(0.0,), (0.6,), (0.0,)]
        with pytest.raises(RankFailureError, match="heartbeat") as exc_info:
            LockstepCluster(3, heartbeat_timeout=0.2).run(body, rank_args=naps)
        assert exc_info.value.suspects == [1]
        # not armed: the same nap is only slow
        assert LockstepCluster(3).run(body, rank_args=naps).returns == [0, 1, 2]

    def test_a_collective_that_raises_raises_inside_the_body(self):
        """Through ``spmd`` a communicator method that raises is thrown into
        the body at its ``yield``, so the body's ``finally`` runs (the one
        process rank runs in this process, where that is seen)."""
        closed, caught = [], []

        def body(comm):
            try:
                yield ("alltoall", [None] * (comm.size + 1))
            except CommError as exc:
                caught.append(exc)
                raise
            finally:
                closed.append(comm.rank)

        with pytest.raises(CommError, match="alltoall needs 1 payloads"):
            ProcessBspCluster(1).run(spmd(body))
        assert closed == [0]
        assert len(caught) == 1


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
    """The distributed model on its default (lockstep) cluster."""

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
        assert {ranks[0]["status"], ranks[2]["status"]} == {"error:GeneratorExit"}
        assert current_context() is None
