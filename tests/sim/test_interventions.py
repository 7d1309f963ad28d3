"""Tests for schedule interventions and their epidemic/network effects."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import ScheduleError
from repro.sim import (
    ClosePlaceKind,
    CloseSchools,
    InterventionSchedule,
    Simulation,
    StayHomeOrder,
)
from repro.synthpop.places import PlaceKind
from repro.synthpop.schedule import Activity


@pytest.fixture(scope="module")
def base(small_pop):
    return small_pop.schedule_generator()


class TestCloseSchools:
    def test_no_school_activity_remains(self, small_pop, base):
        sched = InterventionSchedule(base, [CloseSchools()])
        grid = sched.week(0)
        assert not (grid.activity == int(Activity.AT_SCHOOL)).any()

    def test_children_sent_home(self, small_pop, base):
        sched = InterventionSchedule(base, [CloseSchools()])
        grid = sched.week(0)
        raw = base.week(0)
        moved = raw.activity == int(Activity.AT_SCHOOL)
        rows, cols = np.nonzero(moved)
        assert (
            grid.place[rows, cols] == small_pop.persons.household[rows]
        ).all()

    def test_other_activities_untouched(self, small_pop, base):
        sched = InterventionSchedule(base, [CloseSchools()])
        grid = sched.week(0)
        raw = base.week(0)
        untouched = raw.activity != int(Activity.AT_SCHOOL)
        assert (grid.place[untouched] == raw.place[untouched]).all()

    def test_window_respected(self, base):
        iv = CloseSchools(start_week=1, end_week=3)
        assert not iv.active(0)
        assert iv.active(1) and iv.active(2)
        assert not iv.active(3)

    def test_invalid_window(self):
        with pytest.raises(ScheduleError):
            CloseSchools(start_week=2, end_week=2)


class TestClosePlaceKind:
    def test_venues_closed(self, small_pop, base):
        sched = InterventionSchedule(
            base, [ClosePlaceKind(small_pop.places, PlaceKind.OTHER)]
        )
        grid = sched.week(0)
        kinds = small_pop.places.kind[grid.place.astype(np.int64)]
        assert not (kinds == int(PlaceKind.OTHER)).any()

    def test_homes_never_closed_target(self, small_pop, base):
        """Closing venues must not touch home hours."""
        sched = InterventionSchedule(
            base, [ClosePlaceKind(small_pop.places, PlaceKind.OTHER)]
        )
        grid = sched.week(0)
        raw = base.week(0)
        home = raw.activity == int(Activity.AT_HOME)
        assert (grid.place[home] == raw.place[home]).all()


class TestStayHome:
    def test_compliant_fraction_home_all_week(self, small_pop, base):
        sched = InterventionSchedule(base, [StayHomeOrder(0.5, seed=1)])
        grid = sched.week(0)
        hh = small_pop.persons.household
        home_all = (grid.place == hh[:, None]).all(axis=1)
        frac = home_all.mean()
        assert 0.4 < frac  # at least the compliant half (plus home-bodies)

    def test_compliance_stable_across_weeks(self, small_pop, base):
        order = StayHomeOrder(0.5, seed=1)
        sched = InterventionSchedule(base, [order])
        hh = small_pop.persons.household
        home0 = (sched.week(0).place == hh[:, None]).all(axis=1)
        home1 = (sched.week(1).place == hh[:, None]).all(axis=1)
        compliant = order._compliant
        assert home0[compliant].all() and home1[compliant].all()

    def test_invalid_fraction(self):
        with pytest.raises(ScheduleError):
            StayHomeOrder(1.5)


class TestComposition:
    def test_stacked_interventions(self, small_pop, base):
        sched = InterventionSchedule(
            base,
            [
                CloseSchools(),
                ClosePlaceKind(small_pop.places, PlaceKind.OTHER),
            ],
        )
        grid = sched.week(0)
        kinds = small_pop.places.kind[grid.place.astype(np.int64)]
        assert not (kinds == int(PlaceKind.OTHER)).any()
        assert not (grid.activity == int(Activity.AT_SCHOOL)).any()

    def test_rejects_non_intervention(self, base):
        with pytest.raises(ScheduleError):
            InterventionSchedule(base, ["not an intervention"])


class TestEffects:
    def test_school_closure_guts_child_network(self, small_pop, base):
        """The endogenous-network headline: changing schedules reshapes the
        emergent network (0-14 within-group degree collapses)."""
        from repro.analysis import age_group_degree_distributions

        cfg = repro.SimulationConfig(
            scale=small_pop.scale, duration_hours=repro.HOURS_PER_WEEK
        )
        open_net, _ = repro.synthesize_network(
            Simulation(small_pop, cfg).run().records,
            small_pop.n_persons, 0, repro.HOURS_PER_WEEK,
        )
        closed_sched = InterventionSchedule(base, [CloseSchools()])
        closed_net, _ = repro.synthesize_network(
            Simulation(small_pop, cfg, schedules=closed_sched).run().records,
            small_pop.n_persons, 0, repro.HOURS_PER_WEEK,
        )
        kids_open = age_group_degree_distributions(open_net, small_pop.persons)["0-14"]
        kids_closed = age_group_degree_distributions(closed_net, small_pop.persons)["0-14"]
        # at the 800-person test scale children keep venue/household ties,
        # so the drop is large but not total
        assert kids_closed.mean_degree < 0.7 * kids_open.mean_degree

    def test_stay_home_reduces_attack_rate(self, small_pop, base):
        cfg = repro.SimulationConfig(
            scale=small_pop.scale,
            duration_hours=repro.HOURS_PER_WEEK,
            disease=repro.DiseaseConfig(
                transmissibility=0.05, initial_infected=4
            ),
        )
        baseline = Simulation(small_pop, cfg).run()
        locked_sched = InterventionSchedule(
            base, [StayHomeOrder(0.7, seed=2)]
        )
        locked = Simulation(small_pop, cfg, schedules=locked_sched).run()
        assert (
            locked.disease.attack_rate() < baseline.disease.attack_rate()
        )
