"""Tests for event records — the lossless-compression invariant.

The serial engine's records, painted back with ``events_to_grid``, must
give the schedule's own week grids hour for hour, across week seams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HOURS_PER_WEEK, ScaleConfig, SimulationConfig
from repro.errors import SimulationError
from repro.sim import Simulation
from repro.sim.events import events_to_grid
from repro.synthpop import generate_population

W = HOURS_PER_WEEK


@pytest.fixture(scope="module")
def pop():
    return generate_population(ScaleConfig(n_persons=150, seed=31))


def simulate(pop, hours):
    config = SimulationConfig(scale=pop.scale, duration_hours=hours)
    return Simulation(pop, config).run().records


def schedule_grids(pop, hours):
    """The schedule's ``(n, hours)`` activity and place grids."""
    generator = pop.schedule_generator()
    weeks = [generator.week(i) for i in range(-(-hours // W))]
    act = np.hstack([w.activity for w in weeks])[:, :hours]
    plc = np.hstack([w.place for w in weeks])[:, :hours]
    return act, plc


class TestRoundTrip:
    def test_single_grid_lossless(self, pop):
        act, plc = events_to_grid(simulate(pop, W), pop.n_persons, 0, W)
        week = pop.schedule_generator().week(0)
        assert (act == week.activity).all()
        assert (plc == week.place).all()

    def test_chained_grids_equal_single(self, pop):
        """One fortnight window == its two week windows side by side ==
        the schedule's two week grids."""
        rec = simulate(pop, 2 * W)
        act, plc = events_to_grid(rec, pop.n_persons, 0, 2 * W)
        a0, p0 = events_to_grid(rec, pop.n_persons, 0, W)
        a1, p1 = events_to_grid(rec, pop.n_persons, W, 2 * W)
        assert (act == np.hstack([a0, a1])).all()
        assert (plc == np.hstack([p0, p1])).all()
        expected_act, expected_plc = schedule_grids(pop, 2 * W)
        assert (act == expected_act).all()
        assert (plc == expected_plc).all()

    def test_spell_spanning_chunk_boundary_is_one_record(self, pop):
        """No artificial event at the week seam: a record stops at hour
        ``W`` exactly for the persons whose state changes there."""
        rec = simulate(pop, 2 * W)
        act, plc = schedule_grids(pop, 2 * W)
        changes = (act[:, W] != act[:, W - 1]) | (plc[:, W] != plc[:, W - 1])
        stopped = np.zeros(pop.n_persons, dtype=bool)
        stopped[rec["person"][rec["stop"] == W]] = True
        assert (stopped == changes).all()
        spanning = (rec["start"] < W) & (rec["stop"] > W)
        assert spanning.any()
        assert sorted(rec["person"][spanning]) == list(np.flatnonzero(~changes))

    @given(
        n_persons=st.integers(20, 120),
        seed=st.integers(0, 2**31),
        hours=st.integers(1, 2 * W + 30),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip(self, n_persons, seed, hours):
        pop = generate_population(ScaleConfig(n_persons=n_persons, seed=seed))
        rec = simulate(pop, hours)
        act, plc = schedule_grids(pop, hours)
        # event count == number of maximal runs
        runs = n_persons + int(
            ((act[:, 1:] != act[:, :-1]) | (plc[:, 1:] != plc[:, :-1])).sum()
        )
        assert len(rec) == runs
        act2, plc2 = events_to_grid(rec, n_persons, 0, hours)
        assert (act2 == act).all() and (plc2 == plc).all()

    def test_events_are_maximal_runs(self, pop):
        """No two consecutive records of one person share state (each
        record is a *change*)."""
        all_rec = simulate(pop, 50)
        order = np.lexsort((all_rec["start"], all_rec["person"]))
        s = all_rec[order]
        same_person = s["person"][1:] == s["person"][:-1]
        contiguous = s["start"][1:] == s["stop"][:-1]
        same_state = (s["activity"][1:] == s["activity"][:-1]) & (
            s["place"][1:] == s["place"][:-1]
        )
        assert not (same_person & contiguous & same_state).any()
        # person timelines have no gaps or overlaps
        assert (s["start"][1:][same_person] == s["stop"][:-1][same_person]).all()


class TestValidation:
    def test_empty_grid(self):
        """No records paint an all-zero grid of the window's shape."""
        from repro.evlog.schema import empty_records

        act, plc = events_to_grid(empty_records(0), 5, 10, 14)
        assert act.shape == plc.shape == (5, 4)
        assert not act.any() and not plc.any()

    def test_person_ids_subset(self, pop):
        """One rank's records (a subset of persons) paint those persons'
        rows and leave every other row 0."""
        rec = simulate(pop, 30)
        ids = np.arange(0, pop.n_persons, 7)
        act, plc = events_to_grid(
            rec[np.isin(rec["person"], ids)], pop.n_persons, 0, 30
        )
        expected_act, expected_plc = schedule_grids(pop, 30)
        others = np.setdiff1d(np.arange(pop.n_persons), ids)
        assert (act[ids] == expected_act[ids]).all()
        assert (plc[ids] == expected_plc[ids]).all()
        assert not act[others].any() and not plc[others].any()

    def test_events_to_grid_bad_person(self):
        from repro.evlog.schema import make_records

        rec = make_records([0], [3], [99], [0], [0])
        with pytest.raises(SimulationError):
            events_to_grid(rec, 5, 0, 4)

    def test_events_to_grid_bad_window(self):
        from repro.evlog.schema import empty_records

        with pytest.raises(SimulationError):
            events_to_grid(empty_records(0), 5, 4, 4)
