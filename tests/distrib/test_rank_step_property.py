"""One rank-hour three ways: the C scan, its numpy twin, the reference step.

``HostedTable.step`` runs ``rk_rank_step`` when the extension loaded and
its numpy twin otherwise; ``_reference_rank_step.reference_step`` is one
hour of the step both replaced (full grid compare, owner of every hosted
agent, no change plane).  On generated tables that satisfy the invariants
of DESIGN.md §8a all three must give the same bytes — records, the table
after compaction, every payload — and on malformed state both production
steps must refuse with ``SimulationError``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HOURS_PER_WEEK
from repro.core.kernels import cext
from repro.distrib import rankstep
from repro.distrib.migration import MIGRANT_DTYPE, pack_migrants
from repro.distrib.rankstep import HostedTable, WeekRows
from repro.errors import SimulationError
from repro.synthpop.schedule import WeekGrid

from ._reference_rank_step import reference_step

#: the twin leg of CI (``REPRO_NO_CC=1``) still holds the twin to the
#: reference step
IMPLS = ["cext", "twin"] if cext.load_cext() is not None else ["twin"]
CASES = settings(
    deadline=None,
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


#: (persons, places, ranks)
SHAPES = [(40, 12, 4), (40, 7, 3), (12, 7, 2), (40, 12, 1), (12, 2, 4), (3, 2, 2), (1, 1, 1)]


def hosted_table(impl, rows, world):
    """A ``HostedTable`` pinned to one implementation, its week bound if
    the world has one."""
    with pytest.MonkeyPatch.context() as patch:
        if impl == "twin":
            patch.setattr(rankstep, "load_cext", lambda: None)
        table = HostedTable(
            rows, rank=world["rank"], n_ranks=world["n_ranks"],
            n_persons=world["n_persons"], assignment=world["assignment"],
        )
    assert table.impl == impl
    if "week" in world:
        table.bind_week(WeekRows.of(world["week"], world["plane"]))
    return table


@st.composite
def worlds(draw):
    """A week, the week before it, an owner map, one rank and an hour,
    plus the rows that rank hosts when ``hour`` is stepped."""
    # sampled shapes, largest first: hypothesis favours small integers and
    # early elements, and a table of two rows never sends leavers to two
    # ranks in one hour
    n_persons, n_places, n_ranks = draw(st.sampled_from(SHAPES))
    rank = draw(st.integers(0, n_ranks - 1))
    week_index = draw(st.integers(0, 2))
    how = draw(st.sampled_from([0, 1, 2, 90, HOURS_PER_WEEK - 1]))
    hour = week_index * HOURS_PER_WEEK + how
    if hour == 0:
        hour = how = 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["any", "everybody", "any", "nobody", "exodus"]))

    def grid(index):
        return WeekGrid(
            index,
            rng.integers(0, 3, (n_persons, HOURS_PER_WEEK)).astype(np.uint8),
            rng.integers(0, n_places, (n_persons, HOURS_PER_WEEK)).astype(np.uint32),
        )

    previous, week = grid(week_index - 1), grid(week_index)
    before = (week, how - 1) if how else (previous, HOURS_PER_WEEK - 1)
    assignment = rng.integers(0, n_ranks, n_places).astype(np.int32)
    if mode == "nobody":
        week.activity[:, how] = before[0].activity[:, before[1]]
        week.place[:, how] = before[0].place[:, before[1]]
    elif mode == "everybody":
        week.activity[:, how] = before[0].activity[:, before[1]] + 1
    elif mode == "exodus" and n_ranks > 1 and n_places > 1:
        # the rank owns every place but the last; at ``hour`` all go there
        assignment[:] = rank
        assignment[-1] = (rank + 1) % n_ranks
        before[0].place[:, before[1]] = rng.integers(0, n_places - 1, n_persons)
        week.place[:, how] = n_places - 1
    plane = week.change_plane(previous if week_index else None)
    # invariants 1 and 2: the open spell is the grid an hour ago, hosted
    # on a place the rank owns; hosted order is arbitrary
    place_before = before[0].place[:, before[1]]
    ids = rng.permutation(np.flatnonzero(assignment[place_before] == rank))
    rows = pack_migrants(
        ids,
        rng.integers(0, hour, len(ids)),
        before[0].activity[ids, before[1]],
        place_before[ids],
    )
    return {
        "rows": rows, "hour": hour, "week": week, "plane": plane,
        "assignment": assignment, "rank": rank, "n_ranks": n_ranks,
        "n_persons": n_persons, "n_places": n_places,
    }


def same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@CASES
@given(world=worlds(), spare=st.integers(0, 3))
def test_kernel_twin_and_reference_agree(world, spare):
    rows, hour = world["rows"], world["hour"]
    ref_rec, ref_state, ref_payloads = reference_step(
        rows["person"], rows["spell_start"], rows["activity"], rows["place"],
        world["week"], world["assignment"], world["rank"], world["n_ranks"], hour,
    )
    ref_rows = pack_migrants(*ref_state)
    for impl in IMPLS:
        # the last ``spare`` rows arrive later: the table grows under them
        cut = max(len(rows) - spare, 0)
        table = hosted_table(impl, rows[:cut], world)
        table.receive([rows[cut:]])
        rec, payloads, n_leavers = table.step(hour)
        if rec is None:
            rec = ref_rec[:0]
        else:
            assert rec.flags.owndata or rec.base.nbytes == rec.nbytes
        assert same_bytes(rec, ref_rec), impl
        assert same_bytes(table.hosted(), ref_rows), impl
        assert n_leavers == len(rows) - len(ref_rows)
        assert len(payloads) == world["n_ranks"]
        for got, want in zip(payloads, ref_payloads):
            assert (got is None) == (want is None), impl
            if want is not None:
                assert same_bytes(got, want), impl
        closing = table.close_all(hour + 1)
        assert closing["stop"].tolist() == [hour + 1] * len(ref_rows)
        assert closing["start"].tolist() == ref_rows["spell_start"].tolist()


def changer(world):
    """Index of a hosted row that changes at ``hour``, or None."""
    how = world["hour"] % HOURS_PER_WEEK
    hits = np.flatnonzero(world["plane"][how][world["rows"]["person"]])
    return int(hits[0]) if len(hits) else None


def corrupt(world, what):
    """``world`` with one malformed value; None when it has no row to carry
    it (the step only sees what it touches)."""
    rows, how = world["rows"].copy(), world["hour"] % HOURS_PER_WEEK
    week = WeekGrid(
        world["week"].week_index,
        world["week"].activity.copy(),
        world["week"].place.copy(),
    )
    assignment = world["assignment"].copy()
    row = changer(world)
    if what.startswith("person"):
        if not len(rows):
            return None
        rows["person"][-1] = world["n_persons"] if what == "person" else 2**32 - 1
    elif row is None:
        return None
    elif what == "hosted-place":
        rows["place"][row] = world["n_places"]
    elif what == "hosted-place-edge":
        rows["place"][row] = 2**32 - 1
    elif what == "grid-place":
        week.place[rows["person"][row], how] = world["n_places"]
    elif what == "grid-place-edge":
        week.place[rows["person"][row], how] = 2**32 - 1
    elif what == "owner-high":
        assignment[week.place[rows["person"][row], how]] = world["n_ranks"]
    elif what == "owner-negative":
        assignment[week.place[rows["person"][row], how]] = -1
    elif what == "start-now":
        rows["spell_start"][row] = world["hour"]
    elif what == "start-late":
        rows["spell_start"][row] = 2**40
    elif what == "start-negative":
        rows["spell_start"][row] = -1
    return dict(world, rows=rows, week=week, assignment=assignment)


MALFORMED = [
    "person", "person-edge", "hosted-place", "hosted-place-edge", "grid-place",
    "grid-place-edge", "owner-high", "owner-negative", "start-now", "start-late",
    "start-negative",
]


@CASES
@given(world=worlds(), what=st.sampled_from(MALFORMED))
def test_malformed_state_is_refused(world, what):
    bad = corrupt(world, what)
    if bad is None:
        return
    for impl in IMPLS:
        table = hosted_table(impl, bad["rows"], bad)
        with pytest.raises(SimulationError, match=f"hour {bad['hour']}: "):
            table.step(bad["hour"])


@pytest.mark.parametrize("impl", IMPLS)
def test_table_never_outgrows_the_population(impl):
    world = {
        "rank": 0, "n_ranks": 2, "n_persons": 5,
        "assignment": np.zeros(3, dtype=np.int32),
    }
    table = hosted_table(impl, np.zeros(1, dtype=MIGRANT_DTYPE), world)
    capacities = []
    for _ in range(4):
        table.receive([np.zeros(1, dtype=MIGRANT_DTYPE)])
        capacities.append(len(table.table))
    assert capacities == [2, 4, 4, 5]  # doubles, then stops at the population
    with pytest.raises(SimulationError, match="population is 5"):
        table.receive([np.zeros(1, dtype=MIGRANT_DTYPE)])
    assert table.count == 5


@pytest.mark.parametrize("impl", IMPLS)
def test_step_needs_its_week(impl):
    world = {
        "rank": 0, "n_ranks": 1, "n_persons": 2,
        "assignment": np.zeros(1, dtype=np.int32),
    }
    week = WeekGrid(
        0, np.zeros((2, HOURS_PER_WEEK), np.uint8), np.zeros((2, HOURS_PER_WEEK), np.uint32)
    )
    table = hosted_table(impl, np.zeros(2, dtype=MIGRANT_DTYPE), world)
    with pytest.raises(SimulationError, match="without its week"):
        table.step(1)
    table.bind_week(WeekRows.of(week, week.change_plane(None)))
    assert table.step(1) == (None, [None], 0)
    with pytest.raises(SimulationError, match="without its week"):
        table.step(HOURS_PER_WEEK)  # next week's first hour
    with pytest.raises(SimulationError, match="do not fit"):
        table.bind_week(
            WeekRows.of(WeekGrid(0, week.activity[:1], week.place[:1]), week.change_plane(None))
        )
    with pytest.raises(SimulationError, match="end of the run"):
        table.close_all(0)
