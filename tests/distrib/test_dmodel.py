"""Tests for the distributed model: the serial-equivalence invariant."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import DiseaseConfig, ScaleConfig, SimulationConfig
from repro.distrib import (
    DistributedSimulation,
    random_partition,
    spatial_partition,
)
from repro.core.kernels import compiled_impl
from repro.distrib import rankstep
from repro.distrib.dmodel import _ScheduleCache
from repro.errors import RankFailureError, SimulationError
from repro.evlog import LogSet
from repro.obs import CollectingProbe, configure, get_collector, push_probe
from repro.sim import Simulation


@pytest.fixture(scope="module")
def pop():
    return repro.generate_population(ScaleConfig(n_persons=400, seed=11))


@pytest.fixture(scope="module")
def serial_sorted(pop):
    cfg = SimulationConfig(scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK)
    rec = Simulation(pop, cfg).run_fast().records
    return rec[np.lexsort((rec["start"], rec["person"]))]


def dist_config(pop, n_ranks, hours=repro.HOURS_PER_WEEK):
    return SimulationConfig(
        scale=pop.scale, duration_hours=hours, n_ranks=n_ranks
    )


class TestSerialEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 5, 8])
    def test_event_stream_identical(self, pop, serial_sorted, n_ranks):
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), n_ranks
        )
        res = DistributedSimulation(pop, dist_config(pop, n_ranks), part).run()
        merged = res.merged_records()
        assert len(merged) == len(serial_sorted)
        assert (merged == serial_sorted).all()

    def test_random_partition_also_equivalent(self, pop, serial_sorted, rng):
        part = random_partition(pop.n_places, 4, rng)
        res = DistributedSimulation(pop, dist_config(pop, 4), part).run()
        assert (res.merged_records() == serial_sorted).all()


class TestMigration:
    def test_spatial_migrates_less_than_random(self, pop, rng):
        cfg = dist_config(pop, 6)
        spatial = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 6
        )
        rand = random_partition(pop.n_places, 6, rng)
        m_spatial = DistributedSimulation(pop, cfg, spatial).run().total_migrations
        m_random = DistributedSimulation(pop, cfg, rand).run().total_migrations
        assert m_spatial < m_random

    def test_single_rank_never_migrates(self, pop):
        part = repro.PlacePartition(
            np.zeros(pop.n_places, dtype=np.int32), 1
        )
        res = DistributedSimulation(pop, dist_config(pop, 1), part).run()
        assert res.total_migrations == 0
        assert res.traffic.bytes_sent == 0

    def test_traffic_proportional_to_migrations(self, pop):
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 4
        )
        res = DistributedSimulation(pop, dist_config(pop, 4), part).run()
        # 20 bytes per migrant payload entry
        assert res.traffic.by_kind.get("alltoall", 0) == res.total_migrations * 20


class TestRankLogs:
    def test_per_rank_files_written_and_complete(self, pop, tmp_path):
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 4
        )
        res = DistributedSimulation(pop, dist_config(pop, 4), part).run(
            log_dir=tmp_path
        )
        logs = LogSet(tmp_path)
        assert len(logs) == 4
        assert logs.total_records() == res.total_events
        merged_disk = logs.read_all()
        merged_disk = merged_disk[
            np.lexsort((merged_disk["start"], merged_disk["person"]))
        ]
        assert (merged_disk == res.merged_records()).all()

    def test_rank_logs_only_own_places(self, pop, tmp_path):
        """Section III: each rank logs only activity on its own places."""
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 4
        )
        DistributedSimulation(pop, dist_config(pop, 4), part).run(
            log_dir=tmp_path
        )
        for reader in LogSet(tmp_path).iter_readers():
            rec = reader.read_all()
            owners = part.assignment[rec["place"].astype(np.int64)]
            assert (owners == reader.rank).all()


class TestValidation:
    def test_rejects_disease(self, pop):
        part = repro.PlacePartition(np.zeros(pop.n_places, dtype=np.int32), 1)
        cfg = SimulationConfig(
            scale=pop.scale,
            n_ranks=1,
            disease=DiseaseConfig(initial_infected=1),
        )
        with pytest.raises(SimulationError):
            DistributedSimulation(pop, cfg, part)

    def test_rejects_partition_size_mismatch(self, pop):
        part = repro.PlacePartition(np.zeros(5, dtype=np.int32), 1)
        with pytest.raises(SimulationError):
            DistributedSimulation(pop, dist_config(pop, 1), part)

    def test_rejects_rank_count_mismatch(self, pop):
        part = repro.PlacePartition(np.zeros(pop.n_places, dtype=np.int32), 1)
        with pytest.raises(SimulationError):
            DistributedSimulation(pop, dist_config(pop, 2), part)


class CountingGenerator:
    """A schedule generator that records which weeks it was asked for."""

    def __init__(self, generator):
        self.generator = generator
        self.asked: list[int] = []

    def week(self, index):
        self.asked.append(index)
        return self.generator.week(index)


class TestScheduleCache:
    def test_plane_and_grid_stay_in_step_through_eviction(self, pop):
        generator = pop.schedule_generator()
        cache = _ScheduleCache(generator)
        for index in range(5):
            grid = cache.week(index)
            want = generator.week(index)
            assert np.array_equal(grid.place, want.place)
            previous = generator.week(index - 1) if index else None
            assert np.array_equal(cache.changes(index), want.change_plane(previous))
            assert cache.week(index) is grid  # one generation, shared
            # current + boundary week resident, each with its own plane
            assert sorted(cache._weeks) == list(range(max(0, index - 1), index + 1))
            for kept, (kept_grid, _) in cache._weeks.items():
                assert kept_grid.week_index == kept

    def test_walking_weeks_generates_each_once(self, pop):
        counting = CountingGenerator(pop.schedule_generator())
        cache = _ScheduleCache(counting)
        for index in range(4):
            cache.week(index)
            cache.changes(index)
        assert counting.asked == [0, 1, 2, 3]

    def test_resume_past_an_uncached_week_still_compares_with_it(self, pop):
        """Row 0 of week 3's plane looks at week 2's last hour even when
        the cache never held week 2 (a resumed run starts there)."""
        generator = pop.schedule_generator()
        counting = CountingGenerator(generator)
        cache = _ScheduleCache(counting)
        plane = cache.changes(3)
        assert sorted(counting.asked) == [2, 3]
        assert np.array_equal(
            plane, generator.week(3).change_plane(generator.week(2))
        )

    def test_resume_does_not_generate_week_zero(self, pop, tmp_path, monkeypatch):
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 2
        )
        cfg = SimulationConfig(
            scale=pop.scale, duration_hours=3 * repro.HOURS_PER_WEEK, n_ranks=2,
            checkpoint_every_hours=2 * repro.HOURS_PER_WEEK + 10,
            heartbeat_timeout=2.0,
        )

        def hook(comm, hour):
            if hour == 2 * repro.HOURS_PER_WEEK + 20 and comm.rank == 1:
                comm.die()

        with pytest.raises(RankFailureError):
            DistributedSimulation(pop, cfg, part).run(
                checkpoint_dir=tmp_path, fault_hook=hook
            )
        asked: list[int] = []
        generate = pop.schedule_generator

        def counting_generator(*args, **kwargs):
            counting = CountingGenerator(generate(*args, **kwargs))
            counting.asked = asked
            return counting

        monkeypatch.setattr(pop, "schedule_generator", counting_generator)
        res = DistributedSimulation(pop, cfg, part).run(checkpoint_dir=tmp_path)
        assert sorted(asked) == [1, 2]  # the resume week and the one before
        ref = DistributedSimulation(pop, dist_config(pop, 2, cfg.duration_hours), part)
        assert (res.merged_records() == ref.run().merged_records()).all()


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def telemetry_on(self):
        previous = configure(True)  # the suite may run under REPRO_TELEMETRY=0
        yield
        configure(previous)

    def run_probed(self, pop, n_ranks=3, **run_kwargs):
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), n_ranks
        )
        sim = DistributedSimulation(pop, dist_config(pop, n_ranks, 50), part)
        get_collector().drain()
        with push_probe(CollectingProbe()) as probe:
            res = sim.run(**run_kwargs)
        return res, probe.to_dict()["counters"], get_collector().drain()

    def test_counters_once_per_rank(self, pop):
        res, counters, _ = self.run_probed(pop)
        closing = pop.n_persons  # every agent's last spell closes at the end
        assert counters["distrib.rank_hours"] == 3 * 49
        assert counters["distrib.changes"] == res.total_events - closing
        assert counters["distrib.migrants_out"] == res.total_migrations
        assert counters["distrib.alltoall_bytes"] == res.traffic.by_kind["alltoall"]
        assert counters["distrib.rank_loop_seconds.count"] == 3

    def test_twin_steps_are_counted_once_per_rank(self, pop, monkeypatch):
        res, counters, _ = self.run_probed(pop)
        if compiled_impl() == "cext":
            assert res.impl == "cext"
            assert "kernels.rank_step.twin" not in counters
        monkeypatch.setattr(rankstep, "load_cext", lambda: None)
        res, counters, _ = self.run_probed(pop)
        assert res.impl == "twin"
        assert counters["kernels.rank_step.twin"] == counters["distrib.rank_hours"]

    def test_run_span_has_one_child_per_rank(self, pop):
        res, _, spans = self.run_probed(pop)
        (run,) = [s for s in spans if s["name"] == "distrib.run"]
        ranks = [s for s in spans if s["name"] == "distrib.rank"]
        assert run["attrs"] == {"ranks": 3}
        assert sorted(s["attrs"]["rank"] for s in ranks) == [0, 1, 2]
        for s in ranks:
            assert (s["trace_id"], s["parent_id"]) == (run["trace_id"], run["span_id"])
            assert s["attrs"]["hours"] == 49
            assert s["attrs"]["records"] == len(res.per_rank_records[s["attrs"]["rank"]])
            assert s["duration"] <= run["duration"]
        assert sum(s["attrs"]["migrants"] for s in ranks) == res.total_migrations

    def test_telemetry_off_changes_nothing(self, pop, tmp_path):
        on, _, _ = self.run_probed(pop, log_dir=tmp_path / "on")
        previous = configure(False)
        try:
            off, counters, spans = self.run_probed(pop, log_dir=tmp_path / "off")
        finally:
            configure(previous)
        assert not counters and not spans
        assert on.per_rank_traffic == off.per_rank_traffic
        for a, b in zip(on.log_paths, off.log_paths):
            assert a.read_bytes() == b.read_bytes()
