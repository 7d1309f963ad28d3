"""A week two ways: ``rk_week_fill`` against the numpy body it replaced.

``WeeklyScheduleGenerator`` draws a week in numpy, then writes its
hour-major rows (and, for ``week_with_changes``, its change plane) with
the compiled fill when the extension loaded, else with the numpy twin
(``_fill_twin`` + ``WeekGrid.change_plane``).  Over schedule
configurations at their edges, populations missing whole groups and weeks
0-5, both must give the same bytes, and a week's plane must equal its
plane against the week before it: every week starts and ends at home, so
row 0 is all-false and no week needs the previous one.  A ``NO_PLACE``
cell must be refused by both.  Without a compiler (the twin leg of CI)
only the twin runs here, and ``WEEK_DIGESTS`` in ``test_schedule.py``
holds it to the pinned grids.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HOURS_PER_DAY, HOURS_PER_WEEK, ScheduleConfig
from repro.core.kernels import cext
from repro.errors import ScheduleError
from repro.synthpop.person import NO_PLACE, PersonTable
from repro.synthpop.schedule import Activity, WeeklyScheduleGenerator

IMPLS = ["cext", "twin"] if cext.load_cext() is not None else ["twin"]
CASES = settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def with_impl(impl, build):
    """``build()`` with the fill pinned to one implementation."""
    with pytest.MonkeyPatch.context() as patch:
        if impl == "twin":
            patch.setattr(cext, "load_cext", lambda: None)
        return build()


def population(persons: PersonTable, drop: str, spread: bool) -> PersonTable:
    """``persons`` without its students, its workers, or both; with every
    place id times 256 when ``spread`` (ids that differ only above their
    low byte: a change of place must not be read off the low byte)."""
    columns = [
        persons.household.copy(), persons.school.copy(),
        persons.workplace.copy(), persons.favorites.copy(),
    ]
    if spread:
        for column in columns:
            real = column != NO_PLACE
            column[real] *= 256
    household, school, workplace, favorites = columns
    if drop in ("students", "both"):
        school[:] = NO_PLACE
    if drop in ("workers", "both"):
        workplace[:] = NO_PLACE
    return PersonTable(persons.age, household, school, workplace, favorites)


def probability():
    return st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def configs(draw):
    school_start = draw(st.sampled_from([0, 23]) | st.integers(0, 23))
    return ScheduleConfig(
        school_start=school_start,
        school_end=draw(st.sampled_from([school_start + 1, 24]) | st.integers(school_start + 1, 24)),
        work_start=draw(st.sampled_from([0, 23]) | st.integers(0, 23)),
        work_hours=draw(st.sampled_from([1, 16]) | st.integers(1, 16)),
        evening_out_prob=draw(probability()),
        lunch_out_prob=draw(probability()),
        weekend_out_prob=draw(probability()),
    )


def weeks(generator, indices):
    """``(week, plane)`` of each index, plus ``week()`` of each, which
    builds no plane."""
    return [
        (*generator.week_with_changes(index), generator.week(index))
        for index in indices
    ]


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@CASES
@given(
    config=configs(),
    drop=st.sampled_from(["none", "students", "workers", "both"]),
    spread=st.booleans(),
    first=st.integers(0, 5),
    chained=st.booleans(),
)
def test_compiled_fill_matches_the_numpy_body(
    small_pop, config, drop, spread, first, chained
):
    persons = population(small_pop.persons, drop, spread)
    generator = WeeklyScheduleGenerator(persons, config, seed=small_pop.seed)
    indices = range(first, min(first + 2, 6))
    built = {
        impl: with_impl(impl, lambda: weeks(generator, indices)) for impl in IMPLS
    }
    for index, (grid, plane, alone) in zip(indices, built[IMPLS[-1]]):
        # chained: against the week before, which the fill never reads
        previous = generator.week(index - 1) if chained and index else None
        assert same(plane, grid.change_plane(previous))
        assert same(alone.activity, grid.activity) and same(alone.place, grid.place)
    if len(built) < 2:
        return
    for (grid, plane, alone), (want, want_plane, _) in zip(*built.values()):
        assert grid.week_index == want.week_index
        # both store the week hour-major
        assert grid.activity.T.flags.c_contiguous and grid.place.T.flags.c_contiguous
        assert same(grid.activity, want.activity)
        assert same(grid.place, want.place)
        assert same(plane, want_plane)
        assert same(alone.place, want.place)


@pytest.mark.skipif(IMPLS == ["twin"], reason="no C extension")
def test_a_block_is_cut_at_midnight():
    """Entries the generator never makes (it cuts its own blocks short of
    midnight): 12 hours from 20:00 on Wednesday and on Sunday write 20-22
    (23 is home) and nothing of the next day or the next person."""
    act = np.empty((HOURS_PER_WEEK, 2), np.uint8)
    place = np.empty((HOURS_PER_WEEK, 2), np.uint32)
    entries = (
        np.zeros(2, np.int32), np.array([1 << 2, 1 << 6], np.uint8),
        np.full(2, 20, np.uint8), np.full(2, 12, np.uint8),
        np.full(2, 3, np.uint8), np.full(2, 9, np.uint32),
    )
    rc = cext.load_cext().week_fill(np.array([5, 6], np.uint32), entries, act, place, None)
    assert rc == 0
    written = [2 * 24 + h for h in (20, 21, 22)] + [6 * 24 + h for h in (20, 21, 22)]
    assert np.flatnonzero(act[:, 0]).tolist() == written
    assert place[written, 0].tolist() == [9] * 6
    assert np.flatnonzero(place[:, 0] != 5).tolist() == written
    assert not act[:, 1].any() and (place[:, 1] == 6).all()
    # what does not fit is refused before the kernel sees a pointer
    for bad in (
        (entries[0].astype(np.int64),) + entries[1:],
        entries[:5] + (entries[5][:1],),
    ):
        with pytest.raises(ValueError, match="week_fill"):
            cext.load_cext().week_fill(np.array([5, 6], np.uint32), bad, act, place, None)
    for wrong in (act[:, ::2], np.empty((2, HOURS_PER_WEEK), np.uint8)):  # person-major
        with pytest.raises(ValueError, match="week_fill"):
            cext.load_cext().week_fill(
                np.array([5, 6], np.uint32), entries, wrong, place, None
            )


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("where", ["household", "favorite"])
def test_no_place_is_refused(small_pop, impl, where):
    persons = small_pop.persons
    household, favorites = persons.household.copy(), persons.favorites.copy()
    if where == "household":
        household[7] = NO_PLACE
    else:
        favorites[:] = NO_PLACE  # everybody's outings land nowhere
    broken = PersonTable(
        persons.age, household, persons.school, persons.workplace, favorites
    )
    generator = WeeklyScheduleGenerator(
        broken, ScheduleConfig(evening_out_prob=1.0), seed=small_pop.seed
    )
    for build in (lambda: generator.week(0), lambda: generator.week_with_changes(1)):
        with pytest.raises(ScheduleError, match="NO_PLACE"):
            with_impl(impl, build)


#: hours 0-6 and 23 of every day of a week
NIGHT_HOURS = [
    day * HOURS_PER_DAY + hour for day in range(7) for hour in (*range(7), 23)
]


@CASES
@given(
    config=configs(),
    drop=st.sampled_from(["none", "students", "workers", "both"]),
    spread=st.booleans(),
    index=st.integers(0, 5),
)
def test_nights_are_home_and_row_zero_is_quiet(small_pop, config, drop, spread, index):
    """What lets a week be built without the one before it: on both legs,
    over drawn populations and configurations, every person is at home
    (activity AT_HOME at their household) in hours 0-6 and 23 of every
    day, so the plane's row 0 is all-false."""
    persons = population(small_pop.persons, drop, spread)
    generator = WeeklyScheduleGenerator(persons, config, seed=small_pop.seed)
    for impl in IMPLS:
        grid, plane = with_impl(impl, lambda: generator.week_with_changes(index))
        nights = grid.activity[:, NIGHT_HOURS]
        assert (nights == int(Activity.AT_HOME)).all(), impl
        assert (grid.place[:, NIGHT_HOURS] == persons.household[:, None]).all(), impl
        assert plane.shape == (HOURS_PER_WEEK, len(persons))
        assert not plane[0].any(), impl
