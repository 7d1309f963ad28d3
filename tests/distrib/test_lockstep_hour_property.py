"""Every rank's hour in one call, against the step it replaced.

``HostedTable.step`` on a table hosting several ranks runs
``rk_lockstep_hour`` when the extension loaded and its numpy twin
otherwise: each rank's scan, the leavers handed to hosted destinations in
source-rank order, each rank's records appended to its log sink and its
sent traffic metered.  The reference is the pre-change step of
``_reference_rank_step.reference_step`` run rank by rank, then the
``alltoall`` list transpose, then the receive (concatenation in source
order).  Over drawn worlds — 1 to 8 ranks, ranks hosting nobody,
partitions that send every changer away, runs of hours across a week's
last and first hour, tables hosting every rank or a run of them, log
caches of drawn sizes — both implementations must give the reference's
bytes: every rank's rows after the hour, its records (in the hour's
output and in its log, chunked exactly as ``log_batch`` chunks them), the
payloads bound outside the table, and the metered messages and bytes.
Malformed state must be refused with ``SimulationError`` naming the rank
and the hour.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import HOURS_PER_WEEK
from repro.distrib import rankstep
from repro.distrib.migration import MIGRANT_DTYPE, pack_migrants
from repro.distrib.rankstep import HostedTable, WeekRows
from repro.errors import SimulationError
from repro.evlog.writer import CachedLogWriter
from repro.synthpop.schedule import WeekGrid

from ._reference_rank_step import reference_step, unpack_migrants
from .test_rank_step_property import CASES, IMPLS, same_bytes


def group_table(impl, parts, world, first):
    """A ``HostedTable`` of ranks ``first, first + 1, …`` pinned to one
    implementation."""
    with pytest.MonkeyPatch.context() as patch:
        if impl == "twin":
            patch.setattr(rankstep, "load_cext", lambda: None)
        table = HostedTable(
            parts, rank=first, n_ranks=world["n_ranks"],
            n_persons=world["n_persons"], assignment=world["assignment"],
        )
    assert table.impl == impl
    return table


@st.composite
def groups(draw):
    """Three weeks of random grids, an owner map, a run of hours to step
    and the rows every rank hosts before the first of them."""
    n_persons = draw(st.sampled_from([1, 3, 12, 40, 60]))
    n_places = draw(st.sampled_from([1, 2, 7, 12]))
    n_ranks = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weeks = [
        WeekGrid(
            index,
            rng.integers(0, 3, (n_persons, HOURS_PER_WEEK)).astype(np.uint8),
            rng.integers(0, n_places, (n_persons, HOURS_PER_WEEK)).astype(np.uint32),
        )
        for index in range(3)
    ]
    first_hour = draw(
        st.sampled_from([1, 2, 90, HOURS_PER_WEEK - 2, HOURS_PER_WEEK - 1, HOURS_PER_WEEK,
                         HOURS_PER_WEEK + 1, 2 * HOURS_PER_WEEK - 1])
    )  # fmt: skip
    n_hours = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["any", "any", "sparse", "exodus"]))
    if mode == "sparse":
        # a few ranks own every place: the others host nobody, ever
        owners = rng.choice(n_ranks, size=max(1, n_ranks // 3), replace=False)
        assignment = rng.choice(owners, n_places).astype(np.int32)
    else:
        assignment = rng.integers(0, n_ranks, n_places).astype(np.int32)
    if mode == "exodus" and n_ranks > 1:
        # everybody changes at every stepped hour, each time to a place
        # owned by the rank after the one that owns the place before
        for hour in range(first_hour, first_hour + n_hours):
            week, how = weeks[hour // HOURS_PER_WEEK], hour % HOURS_PER_WEEK
            before = _cell(weeks, hour - 1)[1]
            wanted = (assignment[before] + 1) % n_ranks
            for p in range(n_persons):
                choice = np.flatnonzero(assignment == wanted[p])
                if len(choice):
                    week.place[p, how] = rng.choice(choice)
            week.activity[:, how] = _cell(weeks, hour - 1)[0] + 1
    place_before = _cell(weeks, first_hour - 1)[1]
    act_before = _cell(weeks, first_hour - 1)[0]
    owner = assignment[place_before]
    parts = []
    for r in range(n_ranks):
        ids = rng.permutation(np.flatnonzero(owner == r))
        parts.append(
            pack_migrants(
                ids, rng.integers(0, first_hour, len(ids)), act_before[ids],
                place_before[ids],
            )
        )
    first = draw(st.integers(0, n_ranks - 1))
    last = draw(st.integers(first, n_ranks - 1))
    local = range(first, last + 1) if draw(st.booleans()) else range(n_ranks)
    return {
        "weeks": weeks, "assignment": assignment, "n_ranks": n_ranks,
        "n_persons": n_persons, "n_places": n_places, "parts": parts,
        "hours": list(range(first_hour, first_hour + n_hours)), "local": local,
        "caches": [draw(st.sampled_from([None, 1, 2, 5, 40])) for _ in range(n_ranks)],
    }


def _cell(weeks, hour):
    """``(activity, place)`` of every person at ``hour``."""
    week = weeks[hour // HOURS_PER_WEEK]
    return week.activity[:, hour % HOURS_PER_WEEK], week.place[:, hour % HOURS_PER_WEEK]


def week_rows(world, index):
    weeks = world["weeks"]
    return WeekRows.of(weeks[index], weeks[index].change_plane(weeks[index - 1] if index else None))


def reference_hour(world, states, hour):
    """Every rank stepped by the reference, then the alltoall transpose
    and the receive; ``(records, states, payloads)`` by rank."""
    week = world["weeks"][hour // HOURS_PER_WEEK]
    n_ranks = world["n_ranks"]
    records, kept, sent = [], [], []
    for r, rows in enumerate(states):
        rec, state, payloads = reference_step(
            rows["person"], rows["spell_start"], rows["activity"], rows["place"],
            week, world["assignment"], r, n_ranks, hour,
        )
        records.append(rec)
        kept.append(pack_migrants(*state))
        sent.append(payloads)
    arrived = [
        np.concatenate([kept[d], unpack_migrants([sent[s][d] for s in range(n_ranks)])])
        for d in range(n_ranks)
    ]
    return records, arrived, sent


def sinks_for(world, directory):
    """One log writer per hosted rank (cache sizes drawn; None: no log)."""
    return [
        None if world["caches"][r] is None else CachedLogWriter(
            directory / f"rank_{r}.evl", rank=r, cache_records=world["caches"][r]
        )
        for r in world["local"]
    ]


@CASES
@given(world=groups())
def test_hour_matches_the_reference_rank_by_rank(world):
    local, n_ranks = world["local"], world["n_ranks"]
    with tempfile.TemporaryDirectory() as tmp:
        # the logs the reference's records make through log_batch
        expected_logs = sinks_for(world, Path(tmp))
        for impl in IMPLS:
            directory = Path(tmp) / impl
            directory.mkdir()
            table = group_table(impl, [world["parts"][r] for r in local], world, local.start)
            writers = sinks_for(world, directory)
            table.attach(writers)
            states = list(world["parts"])
            msgs = np.zeros(n_ranks, np.int64)
            sent_bytes = np.zeros(n_ranks, np.int64)
            for hour in world["hours"]:
                if hour == world["hours"][0] or hour % HOURS_PER_WEEK == 0:
                    table.bind_week(week_rows(world, hour // HOURS_PER_WEEK))
                records, after, payloads = reference_hour(world, states, hour)
                # ranks outside the table keep their rows; what they would
                # have sent is not the table's to deliver
                states = [
                    after[d] if d in local
                    else pack_migrants(*reference_step(
                        states[d]["person"], states[d]["spell_start"],
                        states[d]["activity"], states[d]["place"],
                        world["weeks"][hour // HOURS_PER_WEEK], world["assignment"],
                        d, n_ranks, hour,
                    )[1])
                    for d in range(n_ranks)
                ]
                # a hosted destination got only what hosted sources sent
                for d in local:
                    kept = after[d][: len(after[d]) - sum(
                        0 if payloads[s][d] is None else len(payloads[s][d])
                        for s in range(n_ranks)
                    )]
                    states[d] = np.concatenate(
                        [kept, unpack_migrants([payloads[s][d] for s in local])]
                    )
                rec, out, n_leavers = table.step(hour)
                want = [records[r] for r in local]
                n_want = sum(len(r) for r in want)
                if rec is None:
                    assert n_want == 0, impl
                else:
                    assert rec.tobytes() == b"".join(r.tobytes() for r in want), impl
                gone = [sum(p is not None and len(p) for p in payloads[r]) for r in local]
                assert n_leavers == sum(gone), impl
                assert table.left.tolist() == gone, impl
                for i, r in enumerate(local):
                    assert same_bytes(table.hosted(i), states[r]), (impl, r)
                    dests = [d for d, p in enumerate(payloads[r]) if p is not None]
                    msgs[r] += len(dests)
                    sent_bytes[r] += 20 * gone[i]
                for d in range(n_ranks):
                    want = unpack_migrants(
                        [None if d in local else payloads[s][d] for s in local]
                    )
                    assert (out[d] is None) == (not len(want)), impl
                    if out[d] is not None:
                        assert same_bytes(out[d], want), impl
                if impl == IMPLS[0]:
                    for writer, r in zip(expected_logs, local):
                        if writer is not None and len(records[r]):
                            writer.log_batch(records[r])
            assert table.sent.tolist() == [
                [msgs[r], sent_bytes[r]] for r in local
            ], impl
            table.settle()
            for writer in writers:
                if writer is not None:
                    writer.close()
        for writer, r in zip(expected_logs, local):
            if writer is None:
                continue
            writer.close()
            want = writer.path.read_bytes()
            for impl in IMPLS:
                assert (Path(tmp) / impl / writer.path.name).read_bytes() == want, (impl, r)


def test_a_full_segment_is_laid_out_again():
    """Arrivals past a rank's room move every segment into the spare
    table, each rank's rows kept in order, and the next hour reads them
    there."""
    n = 40
    assignment = np.array([0, 1], dtype=np.int32)
    act = np.zeros((n, HOURS_PER_WEEK), np.uint8)
    place = np.zeros((n, HOURS_PER_WEEK), np.uint32)
    place[:, 2:] = 1  # at hour 2 everybody moves to rank 1's place
    place[::2, 3:] = 0  # at hour 3 every other person moves back
    week = WeekGrid(0, act, place)
    rows = pack_migrants(
        np.arange(n), np.zeros(n, np.int64), np.zeros(n, np.uint32), np.zeros(n, np.uint32)
    )
    for impl in IMPLS:
        table = group_table(
            impl, [rows, np.empty(0, MIGRANT_DTYPE)],
            {"n_ranks": 2, "n_persons": n, "assignment": assignment}, 0,
        )
        table.bind_week(WeekRows.of(week, week.change_plane(None)))
        before = table.table
        assert table.step(1) == (None, [None, None], 0)
        _, _, gone = table.step(2)
        assert gone == n and table.table is not before, impl
        assert table.counts.tolist() == [0, n]
        assert table.hosted(1)["person"].tolist() == list(range(n))
        _, _, gone = table.step(3)
        assert gone == n // 2
        assert table.hosted(0)["person"].tolist() == list(range(0, n, 2))
        assert table.hosted(1)["person"].tolist() == list(range(1, n, 2))
        assert table.sent.tolist() == [[1, 20 * n], [1, 20 * n // 2]]


MALFORMED = [
    "person", "hosted-place", "grid-place", "owner-high", "owner-negative",
    "start-now", "start-negative",
]


@CASES
@given(world=groups(), what=st.sampled_from(MALFORMED))
def test_malformed_state_is_refused_naming_rank_and_hour(world, what):
    hour = world["hours"][0]
    week = world["weeks"][hour // HOURS_PER_WEEK]
    how = hour % HOURS_PER_WEEK
    plane = week_rows(world, hour // HOURS_PER_WEEK).plane[how]
    parts = [p.copy() for p in world["parts"]]
    assignment = world["assignment"].copy()
    # the first rank with a changer (with any row, for a bad person id)
    # carries it: no rank before it can stumble on anything
    victims = [
        (r, np.flatnonzero(plane[p["person"]]))
        for r, p in enumerate(parts)
        if len(p) and (what == "person" or plane[p["person"]].any())
    ]
    if not victims:
        return
    rank, changers = victims[0]
    rows = parts[rank]
    row = int(changers[0]) if len(changers) else None
    who = None if row is None else int(rows["person"][row])
    grid = WeekGrid(week.week_index, week.activity.copy(), week.place.copy())
    if what == "person":
        rows["person"][-1] = world["n_persons"]
    elif what == "hosted-place":
        rows["place"][row] = world["n_places"]
    elif what == "grid-place":
        grid.place[who, how] = world["n_places"]
    elif what in ("owner-high", "owner-negative"):
        assignment[grid.place[who, how]] = world["n_ranks"] if what == "owner-high" else -1
    elif what == "start-now":
        rows["spell_start"][row] = hour
    else:
        rows["spell_start"][row] = -1
    bad = dict(world, assignment=assignment)
    previous = world["weeks"][week.week_index - 1] if week.week_index else None
    for impl in IMPLS:
        table = group_table(impl, parts, bad, 0)
        table.bind_week(WeekRows.of(grid, grid.change_plane(previous)))
        with pytest.raises(SimulationError, match=f"^rank {rank}, hour {hour}: "):
            table.step(hour)
