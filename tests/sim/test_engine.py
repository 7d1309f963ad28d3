"""Tests for the serial engine: the rank step on one rank against it,
event semantics, observers."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import ScaleConfig, SimulationConfig
from repro.distrib import DistributedSimulation, round_robin_partition
from repro.errors import SimulationError
from repro.evlog import LogReader
from repro.sim import MovementObserver, Simulation
from repro.sim.events import events_to_grid


@pytest.fixture(scope="module")
def pop():
    return repro.generate_population(ScaleConfig(n_persons=300, seed=9))


def config_for(pop, hours=repro.HOURS_PER_WEEK, **kw):
    return SimulationConfig(scale=pop.scale, duration_hours=hours, **kw)


def one_rank(pop, cfg, **run_kwargs):
    """The rank step on a world of one rank (what ``simulate --ranks 1``
    runs)."""
    partition = round_robin_partition(pop.n_places, 1)
    return DistributedSimulation(pop, cfg, partition).run(**run_kwargs)


class TestEquivalence:
    """The production path (the rank step, one rank) against the oracle."""

    def test_fast_equals_slow(self, pop):
        cfg = config_for(pop)
        fast = one_rank(pop, cfg).per_rank_records[0]
        slow = Simulation(pop, cfg).run().records
        assert fast.tobytes() == slow.tobytes()

    def test_multi_week_fast_equals_slow(self, pop):
        cfg = config_for(pop, hours=2 * repro.HOURS_PER_WEEK + 13)
        fast = one_rank(pop, cfg).per_rank_records[0]
        slow = Simulation(pop, cfg).run().records
        assert fast.tobytes() == slow.tobytes()

    def test_rerun_deterministic(self, pop):
        cfg = config_for(pop)
        a = Simulation(pop, cfg).run()
        b = Simulation(pop, cfg).run()
        assert (a.records == b.records).all()


class TestEventSemantics:
    def test_events_cover_full_duration(self, pop):
        cfg = config_for(pop, hours=100)
        res = Simulation(pop, cfg).run()
        rec = res.records
        # per person: intervals tile [0, 100) exactly
        order = np.lexsort((rec["start"], rec["person"]))
        s = rec[order]
        bounds = np.searchsorted(s["person"], np.arange(pop.n_persons + 1))
        for p in range(0, pop.n_persons, 37):
            mine = s[bounds[p] : bounds[p + 1]]
            assert mine["start"][0] == 0
            assert mine["stop"][-1] == 100
            assert (mine["start"][1:] == mine["stop"][:-1]).all()

    def test_grid_reconstruction_matches_schedule(self, pop):
        cfg = config_for(pop)
        res = Simulation(pop, cfg).run()
        grid = pop.schedule_generator().week(0)
        act, plc = events_to_grid(
            res.records, pop.n_persons, 0, repro.HOURS_PER_WEEK
        )
        assert (act == grid.activity).all()
        assert (plc == grid.place).all()

    def test_event_rate_plausible(self, pop):
        res = Simulation(pop, config_for(pop)).run()
        rate = res.events_per_person_day(pop.n_persons)
        assert 2.0 < rate < 7.0


class TestLogging:
    """A serial run's log is the one rank's log."""

    def test_run_writes_evl(self, pop, tmp_path):
        cfg = config_for(pop, hours=50)
        res = one_rank(pop, cfg, log_dir=tmp_path)
        assert [p.name for p in res.log_paths] == ["rank_0000.evl"]
        r = LogReader(res.log_paths[0])
        assert r.n_records == res.total_events
        # a logged run reads its records back from this log: hold the log
        # to the records a run without logs keeps in memory instead
        held = one_rank(pop, cfg).per_rank_records[0]
        assert r.read_all().tobytes() == held.tobytes()

    def test_fast_log_matches_slow_log(self, pop, tmp_path):
        cfg = config_for(pop, hours=72)
        res = one_rank(pop, cfg, log_dir=tmp_path)
        logged = LogReader(res.log_paths[0]).read_all()
        assert logged.tobytes() == Simulation(pop, cfg).run().records.tobytes()


class TestObservers:
    def test_movement_observer_counts(self, pop):
        cfg = config_for(pop, hours=48)
        obs = MovementObserver()
        Simulation(pop, cfg).run(observers=[obs])
        assert len(obs.moves_per_hour) == 47
        # moves == events whose spell ended at hours 1..47 with place change
        assert obs.total_moves > 0

    def test_run_fast_rejects_disease(self, pop):
        """Hooks run on the serial engine only: the fast path (the rank
        step, here on one rank) refuses the disease layer."""
        cfg = config_for(
            pop, hours=24, disease=repro.DiseaseConfig(initial_infected=1)
        )
        with pytest.raises(SimulationError, match="disease"):
            one_rank(pop, cfg)

    def test_config_population_mismatch(self, pop):
        bad = SimulationConfig(scale=ScaleConfig(n_persons=999))
        with pytest.raises(SimulationError):
            Simulation(pop, bad)


class TestRecordAccumulator:
    """Checkpoints flush the log and gather records; neither may change
    what a run emits."""

    def test_checkpointed_run_matches_plain(self, pop, tmp_path):
        cfg = config_for(pop, hours=72, checkpoint_every_hours=24)
        plain = Simulation(pop, cfg).run()
        ckpt = one_rank(pop, cfg, checkpoint_dir=tmp_path / "snap")
        assert ckpt.checkpoints_written == 2
        assert ckpt.per_rank_records[0].tobytes() == plain.records.tobytes()


class TestRunFastParity:
    """``run_fast`` is an alias of ``run``; neither takes the logging or
    checkpoint arguments the rank step owns."""

    def test_checkpoint_args_raise(self, pop):
        sim = Simulation(pop, config_for(pop, hours=24))
        for kwargs in (
            {"log_path": "x.evl"}, {"compress_log": True},
            {"checkpoint_dir": "ck"}, {"resume": True}, {"fault_hook": print},
        ):
            with pytest.raises(TypeError):
                sim.run(**kwargs)
            with pytest.raises(TypeError):
                sim.run_fast(**kwargs)
