"""Tests for weekly schedule generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import HOURS_PER_DAY, HOURS_PER_WEEK, ScheduleConfig
from repro.errors import ScheduleError
from repro.synthpop import schedule
from repro.synthpop.schedule import Activity, WeekGrid, WeeklyScheduleGenerator
from repro.synthpop.person import NO_PLACE


@pytest.fixture(scope="module")
def generator(small_pop):
    return small_pop.schedule_generator()


@pytest.fixture(scope="module")
def week0(generator):
    return generator.week(0)


class TestWeekGrid:
    def test_shape(self, week0, small_pop):
        assert week0.activity.shape == (small_pop.n_persons, HOURS_PER_WEEK)
        assert week0.place.shape == week0.activity.shape

    def test_no_no_place(self, week0):
        assert not (week0.place == NO_PLACE).any()

    def test_shape_validation(self):
        with pytest.raises(ScheduleError):
            WeekGrid(0, np.zeros((2, 100), dtype=np.uint8), np.zeros((2, 100), dtype=np.uint32))


class TestDeterminism:
    def test_same_week_identical(self, generator):
        a, b = generator.week(1), generator.week(1)
        assert (a.activity == b.activity).all()
        assert (a.place == b.place).all()

    def test_weeks_differ(self, generator):
        a, b = generator.week(0), generator.week(1)
        assert (a.place != b.place).any()

    def test_negative_week_raises(self, generator):
        with pytest.raises(ScheduleError):
            generator.week(-1)


class TestStructure:
    def test_nights_at_home(self, week0, small_pop):
        """Hours 0-6 and 23 of every day must be at home."""
        hh = small_pop.persons.household
        for day in range(7):
            for hour in (0, 3, 6, 23):
                col = day * HOURS_PER_DAY + hour
                assert (week0.activity[:, col] == int(Activity.AT_HOME)).all()
                assert (week0.place[:, col] == hh).all()

    def test_students_at_school_weekdays(self, week0, small_pop):
        students = np.flatnonzero(small_pop.persons.is_student)
        col = 0 * HOURS_PER_DAY + 10  # Monday 10:00
        at_school = week0.activity[students, col] == int(Activity.AT_SCHOOL)
        assert at_school.mean() > 0.95
        schooled = students[at_school]
        assert (
            week0.place[schooled, col]
            == small_pop.persons.school[schooled]
        ).all()

    def test_no_school_on_weekend(self, week0):
        sat = 5 * HOURS_PER_DAY + 10
        assert not (week0.activity[:, sat] == int(Activity.AT_SCHOOL)).any()

    def test_workers_at_work_midday(self, week0, small_pop):
        workers = np.flatnonzero(small_pop.persons.is_employed)
        col = 1 * HOURS_PER_DAY + 13  # Tuesday 13:00
        acts = week0.activity[workers, col]
        at_work = acts == int(Activity.AT_WORK)
        # most workers are at work or out at lunch at 13:00
        assert (at_work | (acts == int(Activity.LUNCH_OUT))).mean() > 0.6
        worked = workers[at_work]
        assert (
            week0.place[worked, col] == small_pop.persons.workplace[worked]
        ).all()

    def test_outing_places_are_favorites(self, week0, small_pop):
        fav = small_pop.persons.favorites
        leisure = week0.activity == int(Activity.LEISURE)
        rows, cols = np.nonzero(leisure)
        sample = slice(0, 500)
        for r, c in zip(rows[sample], cols[sample]):
            assert week0.place[r, c] in fav[r]

    def test_changes_per_day_in_paper_band(self, week0):
        """Section III sizes logs on ~5 changes/day; our schedules land in
        the 2.5-6 band (documented in EXPERIMENTS.md)."""
        rate = week0.changes_per_person_day()
        assert 2.5 <= rate <= 6.0

    def test_propensity_creates_homebodies(self, generator, week0, small_pop):
        """Some people never leave home except for anchors — the source of
        the paper's degree-1..7 head."""
        non_anchor = ~small_pop.persons.is_student & ~small_pop.persons.is_employed
        home_all_week = (
            (week0.place == small_pop.persons.household[:, None]).all(axis=1)
        )
        assert (home_all_week & non_anchor).sum() > 0


class TestActivityPlaceConsistency:
    def test_home_activity_at_household(self, week0, small_pop):
        home = week0.activity == int(Activity.AT_HOME)
        hh = np.broadcast_to(
            small_pop.persons.household[:, None], week0.place.shape
        )
        assert (week0.place[home] == hh[home]).all()

    def test_school_activity_at_school_place(self, week0, small_pop):
        at_school = week0.activity == int(Activity.AT_SCHOOL)
        rows, cols = np.nonzero(at_school)
        assert (
            week0.place[rows, cols] == small_pop.persons.school[rows]
        ).all()

    def test_work_activity_at_workplace(self, week0, small_pop):
        at_work = week0.activity == int(Activity.AT_WORK)
        rows, cols = np.nonzero(at_work)
        assert (
            week0.place[rows, cols] == small_pop.persons.workplace[rows]
        ).all()


class TestPlaceGridInit:
    def test_grid_equals_the_one_built_from_the_tiled_household(
        self, small_pop, generator, monkeypatch
    ):
        """``week`` fills its place grid by broadcast assignment; the grid
        must equal the one the former ``np.tile(...).astype(uint32)`` start
        gives (same RNG draws, same cells overwritten)."""
        want = generator.week(2)
        household = small_pop.persons.household
        shape = (small_pop.n_persons, HOURS_PER_WEEK)

        class NumpyWithTiledStart:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, got_shape, dtype=float):
                assert (tuple(got_shape), np.dtype(dtype)) == (shape, np.uint32)
                return np.tile(household[:, None], (1, HOURS_PER_WEEK)).astype(
                    np.uint32
                )

        monkeypatch.setattr(schedule, "np", NumpyWithTiledStart())
        old = generator.week(2)
        assert old.place.dtype == want.place.dtype == np.uint32
        assert np.array_equal(old.place, want.place)
        assert np.array_equal(old.activity, want.activity)


def grids(n_persons: int):
    return st.tuples(
        hnp.arrays(np.uint8, (n_persons, HOURS_PER_WEEK), elements=st.integers(0, 2)),
        hnp.arrays(np.uint32, (n_persons, HOURS_PER_WEEK), elements=st.integers(0, 2)),
    ).map(lambda pair: WeekGrid(0, *pair))


@st.composite
def grid_and_previous(draw):
    n = draw(st.integers(1, 4))
    return draw(grids(n)), draw(st.none() | grids(n))


class TestChangePlane:
    @settings(max_examples=40, deadline=None)
    @given(grid_and_previous())
    def test_matches_the_definition(self, pair):
        grid, previous = pair
        plane = grid.change_plane(previous)
        assert plane.dtype == np.bool_
        assert plane.shape == (HOURS_PER_WEEK, grid.n_persons)
        assert plane.flags.c_contiguous  # row h is one contiguous read
        for p in range(grid.n_persons):
            for h in range(HOURS_PER_WEEK):
                now = (grid.activity[p, h], grid.place[p, h])
                if h:
                    before = (grid.activity[p, h - 1], grid.place[p, h - 1])
                elif previous is not None:
                    before = (previous.activity[p, -1], previous.place[p, -1])
                else:
                    before = now  # nothing before the first hour of a run
                assert plane[h, p] == (now != before), (h, p)

    def test_changes_per_person_day_counts_the_hour_boundaries(self, week0):
        assert not week0.change_plane(None)[0].any()
        diff = (week0.activity[:, 1:] != week0.activity[:, :-1]) | (
            week0.place[:, 1:] != week0.place[:, :-1]
        )
        assert week0.changes_per_person_day() == diff.sum() / (week0.n_persons * 7)

    def test_row_zero_looks_at_the_previous_week(self, generator, week0):
        week1 = generator.week(1)
        altered = WeekGrid(0, week0.activity.copy(), week0.place.copy())
        altered.place[3, -1] += 1
        assert not week1.change_plane(week0)[0, 3]  # both nights at home
        assert week1.change_plane(altered)[0, 3]

    def test_rejects_a_previous_week_of_another_population(self, week0):
        other = WeekGrid(0, week0.activity[:5], week0.place[:5])
        with pytest.raises(ScheduleError):
            week0.change_plane(other)
