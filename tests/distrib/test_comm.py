"""Tests for the collectives and their traffic metering.

The three collectives a forked rank performs — ``alltoall``, ``gather``
and ``barrier`` on its :class:`~repro.distrib.ProcessCommunicator` — must
give every rank the replies and the :class:`TrafficStats` a sequential
model works out (the distributed model's in-process ranks meter what they
send each other with the same formula, held equal to these in
``test_lockstep_equivalence.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distrib import ProcessBspCluster
from repro.distrib.comm import TrafficStats, payload_nbytes
from repro.errors import CommError


def one_op(op):
    """A rank function that performs the collective ``op(comm)`` names
    once and returns the reply."""

    def rank_fn(comm):
        name, *args = op(comm)
        return getattr(comm, name)(*args)

    return rank_fn


class TestCollectives:
    def test_gather_root_only(self):
        result = ProcessBspCluster(3).run(one_op(lambda c: ("gather", c.rank, 1)))
        assert result.returns[0] is None
        assert result.returns[1] == [0, 1, 2]
        assert result.returns[2] is None

    def test_alltoall_permutation(self):
        def op(c):
            return ("alltoall", [f"{c.rank}->{j}" for j in range(c.size)])

        result = ProcessBspCluster(3).run(one_op(op))
        assert result.returns[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_length(self):
        with pytest.raises(CommError):
            ProcessBspCluster(3).run(one_op(lambda c: ("alltoall", [None])))

    def test_consecutive_collectives_isolated(self):
        """Back-to-back collectives must not read stale replies."""

        def rank_fn(c):
            first = c.alltoall([c.rank] * c.size)
            second = c.alltoall([c.rank * 10] * c.size)
            return first, second

        result = ProcessBspCluster(4).run(rank_fn)
        for first, second in result.returns:
            assert first == [0, 1, 2, 3]
            assert second == [0, 10, 20, 30]


class TestTraffic:
    def test_alltoall_metering_excludes_self(self):
        def op(c):
            return ("alltoall", [np.zeros(10, dtype=np.uint8)] * c.size)

        result = ProcessBspCluster(4).run(one_op(op))
        for stats in result.traffic:
            assert stats.bytes_sent == 30  # 3 foreign ranks x 10 bytes
            assert stats.messages_sent == 3

    def test_empty_payloads_cost_nothing(self):
        result = ProcessBspCluster(3).run(
            one_op(lambda c: ("alltoall", [None] * c.size))
        )
        assert result.total_traffic.bytes_sent == 0

    def test_traffic_merge(self):
        result = ProcessBspCluster(3).run(
            one_op(lambda c: ("gather", np.zeros(8, dtype=np.uint8), 0))
        )
        total = result.total_traffic
        assert total.bytes_sent == sum(t.bytes_sent for t in result.traffic) == 16
        assert "gather" in total.by_kind

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
        result = ProcessBspCluster(3).run(one_op(lambda c: ("alltoall", payloads)))
        for rank, stats in enumerate(result.traffic):
            foreign = [p for j, p in enumerate(payloads) if j != rank]
            assert stats.bytes_sent == sum(payload_nbytes(p) for p in foreign)
            assert stats.messages_sent == sum(1 for p in foreign if payload_nbytes(p) > 0)
            assert stats.by_kind == {"alltoall": stats.bytes_sent}
            assert stats.collectives == 1


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

OPS = ("alltoall", "gather", "barrier")


@st.composite
def programs(draw):
    """``(size, steps)``: every rank runs ``steps`` in order; a step is
    ``(op, root, sleeps)`` with one pre-call sleep (ms) per rank."""
    size = draw(st.integers(1, 5))
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


def run_program(comm, steps, jitter):
    seen = []
    for k, (op, root, sleeps) in enumerate(steps):
        if jitter and sleeps[comm.rank]:
            time.sleep(sleeps[comm.rank] / 1000.0)
        if op == "alltoall":
            got = comm.alltoall([payload(k, comm.rank, j) for j in range(comm.size)])
        elif op == "gather":
            got = comm.gather(payload(k, comm.rank), root)
        else:
            got = comm.barrier()
        seen.append(got)
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
        else:
            seen.append(None)
            stats.record("barrier", 0, 0)
    return seen, stats


def assert_matches_model(result, size, steps):
    for rank in range(size):
        seen, stats = model(size, steps, rank)
        assert result.returns[rank] == seen
        assert result.traffic[rank] == stats


class TestAgainstSequentialModel:
    @settings(max_examples=60, deadline=None)
    @given(programs())
    def test_interleaved_collectives_in_lockstep(self, program):
        size, steps = program
        result = ProcessBspCluster(size).run(
            run_program, rank_args=[(steps, False)] * size
        )
        assert_matches_model(result, size, steps)

    @pytest.mark.timeout(120)
    @settings(max_examples=10, deadline=None)
    @given(programs())
    def test_interleaved_collectives_with_jitter(self, program):
        """Forked ranks, each sleeping before some calls: a rank often runs
        whole collectives ahead of a sibling, and the sequence tags must
        still keep every reply in its own collective."""
        size, steps = program
        result = ProcessBspCluster(size).run(
            run_program, rank_args=[(steps, True)] * size, timeout=60.0
        )
        assert_matches_model(result, size, steps)
