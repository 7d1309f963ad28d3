"""Tests for the BSP communicator collectives and traffic metering."""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distrib import SimCluster
from repro.distrib.comm import TrafficStats, payload_nbytes
from repro.errors import CommError, RankFailureError


class TestCollectives:
    def test_allreduce_sum_scalars(self):
        result = SimCluster(5).run(lambda c: c.allreduce_sum(c.rank + 1))
        assert result.returns == [15] * 5

    def test_allreduce_sum_arrays(self):
        def fn(c):
            return c.allreduce_sum(np.full(3, c.rank, dtype=np.int64))

        result = SimCluster(4).run(fn)
        for out in result.returns:
            assert out.tolist() == [6, 6, 6]

    def test_allreduce_does_not_mutate_input(self):
        def fn(c):
            mine = np.full(2, c.rank, dtype=np.int64)
            c.allreduce_sum(mine)
            return mine.copy()

        result = SimCluster(3).run(fn)
        for rank, out in enumerate(result.returns):
            assert out.tolist() == [rank, rank]

    def test_allgather(self):
        result = SimCluster(3).run(lambda c: c.allgather(c.rank * 2))
        assert result.returns == [[0, 2, 4]] * 3

    def test_gather_root_only(self):
        result = SimCluster(3).run(lambda c: c.gather(c.rank, root=1))
        assert result.returns[0] is None
        assert result.returns[1] == [0, 1, 2]
        assert result.returns[2] is None

    def test_bcast(self):
        def fn(c):
            return c.bcast("hello" if c.rank == 2 else None, root=2)

        assert SimCluster(4).run(fn).returns == ["hello"] * 4

    def test_alltoall_permutation(self):
        def fn(c):
            sent = [f"{c.rank}->{j}" for j in range(c.size)]
            return c.alltoall(sent)

        result = SimCluster(3).run(fn)
        assert result.returns[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_length(self):
        def fn(c):
            return c.alltoall([None])  # wrong size on all ranks

        with pytest.raises(CommError):
            SimCluster(3).run(fn)

    def test_reduce_with_custom_fold(self):
        def fn(c):
            return c.reduce_with({c.rank}, lambda a, b: a | b)

        result = SimCluster(4).run(fn)
        assert result.returns[0] == {0, 1, 2, 3}

    def test_consecutive_collectives_isolated(self):
        """Back-to-back collectives must not read stale slots."""
        def fn(c):
            first = c.allgather(c.rank)
            second = c.allgather(c.rank * 10)
            return first, second

        result = SimCluster(4).run(fn)
        for first, second in result.returns:
            assert first == [0, 1, 2, 3]
            assert second == [0, 10, 20, 30]


class TestTraffic:
    def test_alltoall_metering_excludes_self(self):
        def fn(c):
            payloads = [np.zeros(10, dtype=np.uint8) for _ in range(c.size)]
            c.alltoall(payloads)
            return None

        result = SimCluster(4).run(fn)
        for stats in result.traffic:
            assert stats.bytes_sent == 30  # 3 foreign ranks x 10 bytes
            assert stats.messages_sent == 3

    def test_empty_payloads_cost_nothing(self):
        def fn(c):
            c.alltoall([None] * c.size)
            return None

        result = SimCluster(3).run(fn)
        assert result.total_traffic.bytes_sent == 0

    def test_traffic_merge(self):
        def fn(c):
            c.allgather(np.zeros(8, dtype=np.uint8))
            return None

        result = SimCluster(3).run(fn)
        total = result.total_traffic
        assert total.bytes_sent == sum(t.bytes_sent for t in result.traffic)
        assert "allgather" in total.by_kind


class TestPayloadSizing:
    @pytest.mark.parametrize(
        "obj,expected",
        [
            (None, 0),
            (b"abcd", 4),
            (7, 8),
            (3.14, 8),
            ("hé", 3),
            ([b"ab", b"c"], 3),
            ({"k": b"vv"}, 3),
        ],
    )
    def test_sizes(self, obj, expected):
        assert payload_nbytes(obj) == expected

    def test_numpy_nbytes(self):
        assert payload_nbytes(np.zeros((4, 5), dtype=np.float64)) == 160

    def test_arbitrary_object_uses_pickle(self):
        assert payload_nbytes({1, 2, 3}) > 0  # sets go through pickle

    def test_unpicklable_object_counts_zero(self):
        class Local:  # local classes cannot pickle
            pass

        assert payload_nbytes(Local()) == 0


# -- the collectives against a sequential model --------------------------------

OPS = ("alltoall", "gather", "allgather", "barrier", "bcast")


@st.composite
def programs(draw):
    """``(size, steps)``: every rank runs ``steps`` in order; a step is
    ``(op, root, sleeps)`` with one pre-call sleep (ms) per rank."""
    size = draw(st.integers(2, 5))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, size - 1),
                st.lists(st.sampled_from([0, 0, 0, 1, 3]), min_size=size, max_size=size),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return size, steps


def payload(step: int, src: int, dst: int | None = None) -> bytes:
    """Distinct per (step, sender, receiver); its length is what is metered."""
    return f"{step}:{src}:{dst}".encode() * (1 + (step + src) % 3)


def run_program(comm, steps):
    seen = []
    for k, (op, root, sleeps) in enumerate(steps):
        if sleeps[comm.rank]:
            time.sleep(sleeps[comm.rank] / 1000.0)
        if op == "alltoall":
            seen.append(comm.alltoall([payload(k, comm.rank, j) for j in range(comm.size)]))
        elif op == "gather":
            seen.append(comm.gather(payload(k, comm.rank), root=root))
        elif op == "allgather":
            seen.append(comm.allgather(payload(k, comm.rank)))
        elif op == "bcast":
            mine = payload(k, root) if comm.rank == root else None
            seen.append(comm.bcast(mine, root=root))
        else:
            seen.append(comm.barrier())
    return seen


def model(size: int, steps, rank: int):
    """What ``rank`` must see and be charged, worked out sequentially."""
    seen, stats = [], TrafficStats()
    for k, (op, root, _) in enumerate(steps):
        if op == "alltoall":
            seen.append([payload(k, src, rank) for src in range(size)])
            sent = [len(payload(k, rank, j)) for j in range(size) if j != rank]
            stats.record("alltoall", len(sent), sum(sent))
        elif op == "gather":
            everyone = [payload(k, src) for src in range(size)]
            seen.append(everyone if rank == root else None)
            if rank == root:
                stats.record("gather", 0, 0)
            else:
                stats.record("gather", 1, len(payload(k, rank)))
        elif op == "allgather":
            seen.append([payload(k, src) for src in range(size)])
            stats.record("allgather", size - 1, len(payload(k, rank)) * (size - 1))
        elif op == "bcast":
            seen.append(payload(k, root))
            if rank == root:
                stats.record("bcast", size - 1, len(payload(k, root)) * (size - 1))
            else:
                stats.record("bcast", 0, 0)
        else:
            seen.append(None)
            stats.record("barrier", 0, 0)
    return seen, stats


class TestAgainstSequentialModel:
    @settings(max_examples=30, deadline=None)
    @given(programs())
    def test_interleaved_collectives_with_jitter(self, program):
        size, steps = program
        result = SimCluster(size, heartbeat_timeout=10.0).run(
            run_program, rank_args=[(steps,)] * size
        )
        for rank in range(size):
            seen, stats = model(size, steps, rank)
            assert result.returns[rank] == seen
            assert result.traffic[rank] == stats


class TestOneBarrierAlltoall:
    def test_back_to_back_calls_never_read_a_stale_matrix(self):
        """1 000 calls, more ranks than cores, one rank that dawdles, and a
        short switch interval: a fast rank is often a whole call ahead of the
        slow one, and must still never overwrite what the slow one reads."""
        size, calls = 5, 1000

        def fn(comm):
            bad = 0
            for k in range(calls):
                if comm.rank == 3 and k % 97 == 0:
                    time.sleep(0.002)
                got = comm.alltoall([(k, comm.rank, j) for j in range(comm.size)])
                bad += got != [(k, src, comm.rank) for src in range(comm.size)]
            return bad

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = SimCluster(size, heartbeat_timeout=20.0).run(fn, timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert result.returns == [0] * size
        for stats in result.traffic:
            assert stats.collectives == calls

    def test_one_barrier_per_call(self):
        held = {}

        def fn(comm):
            held[comm.rank] = comm
            for _ in range(7):
                comm.alltoall([None] * comm.size)
            comm.allgather(0)

        SimCluster(3).run(fn)
        assert held[0]._board.sync_counts == [7 + 2] * 3

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.binary(max_size=6),
                st.integers(0, 9).map(lambda n: np.zeros(n, dtype=np.uint16)),
                st.integers(),
                st.text(max_size=4),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_metering_matches_the_two_pass_formula(self, payloads):
        """Bytes and messages as the former two-pass metering counted them:
        every off-diagonal payload's size once, a message per non-empty one."""
        result = SimCluster(3).run(lambda comm: comm.alltoall(payloads))
        for rank, stats in enumerate(result.traffic):
            foreign = [p for j, p in enumerate(payloads) if j != rank]
            assert stats.bytes_sent == sum(payload_nbytes(p) for p in foreign)
            assert stats.messages_sent == sum(1 for p in foreign if payload_nbytes(p) > 0)
            assert stats.by_kind == {"alltoall": stats.bytes_sent}
            assert stats.collectives == 1

    def test_death_between_two_calls_names_the_rank(self):
        timeout = 1.0

        def fn(comm):
            comm.alltoall([comm.rank] * comm.size)
            if comm.rank == 2:
                comm.die()
            comm.alltoall([comm.rank] * comm.size)

        tic = time.monotonic()
        with pytest.raises(RankFailureError) as exc_info:
            SimCluster(4, heartbeat_timeout=timeout).run(fn)
        assert exc_info.value.suspects == [2]
        assert time.monotonic() - tic < timeout + 4.0  # the deadline, not a hang
