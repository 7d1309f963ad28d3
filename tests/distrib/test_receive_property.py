"""What arrives at a rank, two ways: ``HostedTable.receive`` and the
reference ``unpack_migrants`` + slice assignment it replaced.

A rank hands ``alltoall``'s list straight to its table, which appends the
payloads in source-rank order as raw 20-byte rows.  On generated worlds
(the ones ``test_rank_step_property.py`` steps) whose hosted rows arrive in
pieces — lists of ``None``, empty and 1..n_ranks sources, sized to grow
the table up to the population, some of them carrying a dtype that equals
``MIGRANT_DTYPE`` without being it, some strided — the table must hold the
bytes the reference concatenation gives, and the next step must match
``reference_step`` on both implementations.  A payload of another dtype is
refused with ``CommError`` (nothing appended), and hosting more than the
population with ``SimulationError``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distrib.migration import MIGRANT_DTYPE, pack_migrants
from repro.errors import CommError, SimulationError

from ._reference_rank_step import reference_step, unpack_migrants
from .test_rank_step_property import (
    CASES, IMPLS, hosted_table, same_bytes, same_records, worlds,
)

#: equal to MIGRANT_DTYPE, not the same object (what a pickle hands back)
EQUAL_DTYPE = pickle.loads(pickle.dumps(MIGRANT_DTYPE))


def as_sent(rows: np.ndarray, how: str) -> np.ndarray:
    """``rows`` as a payload of the given flavour."""
    if how == "equal-dtype":
        return rows.view(EQUAL_DTYPE)
    if how == "strided":
        return np.repeat(rows, 2)[::2]
    return rows


@st.composite
def deliveries(draw, rows: np.ndarray, n_ranks: int):
    """``rows`` split into a hosted prefix and a sequence of payload lists
    that carry the rest, in order."""
    cut = draw(st.integers(0, len(rows)))
    lists, at = [], cut
    while at < len(rows) or draw(st.booleans()):
        payloads: list[np.ndarray | None] = []
        for _ in range(n_ranks):
            kind = draw(st.sampled_from(["none", "empty", "rows", "rows"]))
            if kind == "none":
                payloads.append(None)
                continue
            size = 0 if kind == "empty" else draw(st.integers(0, len(rows) - at))
            how = draw(st.sampled_from(["same", "equal-dtype", "strided"]))
            payloads.append(as_sent(rows[at : at + size], how))
            at += size
        lists.append(payloads)
        if len(lists) > 6:  # the last list takes what is left
            lists.append([rows[at:]] + [None] * (n_ranks - 1))
            break
    return cut, lists


@CASES
@given(world=worlds(), data=st.data())
def test_receive_matches_the_reference(world, data):
    rows, hour, n_ranks = world["rows"], world["hour"], world["n_ranks"]
    cut, lists = data.draw(deliveries(rows, n_ranks))
    ref = rows[:cut]
    for payloads in lists:
        ref = np.concatenate([ref, unpack_migrants(payloads)])
    assert same_bytes(ref, rows)
    ref_rec, ref_state, ref_payloads = reference_step(
        ref["person"], ref["spell_start"], ref["activity"], ref["place"],
        world["week"], world["assignment"], world["rank"], n_ranks, hour,
    )
    for impl in IMPLS:
        table = hosted_table(impl, rows[:cut], world)
        capacity = len(table.table)
        for payloads in lists:
            table.receive(payloads)
        assert same_bytes(table.hosted(), ref), impl
        assert capacity <= len(table.table) <= world["n_persons"]
        rec, payloads, _ = table.step(hour)
        assert not len(ref_rec) if rec is None else same_records(rec, ref_rec), impl
        assert same_bytes(table.hosted(), pack_migrants(*ref_state)), impl
        for got, want in zip(payloads, ref_payloads):
            assert (got is None) == (want is None), impl
            if want is not None:
                assert same_bytes(got, want), impl


WRONG = {
    "other-struct": np.zeros(2, dtype=np.dtype([("person", "<u4"), ("place", "<u4")])),
    "plain-ints": np.arange(3, dtype=np.int64),
    "same-size-bytes": np.zeros(20, dtype=np.uint8),
    "list": [(1, 0, 0, 0)],
    "empty-other": np.empty(0, dtype=np.int64),
}


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("payload", WRONG.values(), ids=WRONG.keys())
def test_wrong_dtype_is_a_protocol_error(impl, payload):
    """Refused, never cast, and nothing of the list is appended."""
    world = {
        "rank": 0, "n_ranks": 3, "n_persons": 10,
        "assignment": np.zeros(2, dtype=np.int32),
    }
    good = pack_migrants(*(np.arange(2, dtype=np.uint32),) * 4)
    table = hosted_table(impl, good[:1], world)
    with pytest.raises(CommError, match="dtype"):
        table.receive([good[1:], None, payload])
    assert same_bytes(table.hosted(), good[:1])


@pytest.mark.parametrize("impl", IMPLS)
def test_hosting_more_than_the_population_is_refused(impl):
    world = {
        "rank": 0, "n_ranks": 2, "n_persons": 5,
        "assignment": np.zeros(3, dtype=np.int32),
    }
    table = hosted_table(impl, np.zeros(2, dtype=MIGRANT_DTYPE), world)
    table.receive([np.zeros(1, dtype=MIGRANT_DTYPE), np.zeros(2, dtype=EQUAL_DTYPE)])
    assert (table.count, len(table.table)) == (5, 5)
    with pytest.raises(SimulationError, match="population is 5"):
        table.receive([None, np.zeros(1, dtype=MIGRANT_DTYPE)])
    assert table.count == 5

