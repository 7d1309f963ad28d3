"""Tests for the distributed model: the serial-equivalence invariant."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import DiseaseConfig, ScaleConfig, SimulationConfig
from repro.distrib import (
    DistributedSimulation,
    ProcessBspCluster,
    random_partition,
    spatial_partition,
)
from repro.core.kernels import cext, compiled_impl
from repro.distrib import rankstep
from repro.distrib.dmodel import _ScheduleCache
from repro.errors import RankFailureError, SimulationError
from repro.evlog import LogSet
from repro.obs import configure, get_collector
from repro.sim import Simulation


@pytest.fixture(scope="module")
def pop():
    return repro.generate_population(ScaleConfig(n_persons=400, seed=11))


@pytest.fixture(scope="module")
def serial_sorted(pop):
    cfg = SimulationConfig(scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK)
    rec = Simulation(pop, cfg).run().records
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

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_read_back_equals_held_records_equals_serial(
        self, pop, serial_sorted, tmp_path, n_ranks
    ):
        """A logged run holds counts and reads its records back from its
        logs; they equal, record for record, the records a run without
        logs holds in memory and the serial engine's."""
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), n_ranks
        )
        sim = DistributedSimulation(pop, dist_config(pop, n_ranks), part)
        logged = sim.run(log_dir=tmp_path)
        held = sim.run()
        assert logged.held_records is None and held.held_records is not None
        assert logged.events_per_rank() == held.events_per_rank() == [
            len(r) for r in held.held_records
        ]
        for a, b in zip(logged.per_rank_records, held.per_rank_records):
            assert a.tobytes() == b.tobytes()
        assert logged.merged_records().tobytes() == serial_sorted.tobytes()
        assert held.merged_records().tobytes() == serial_sorted.tobytes()

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

    def week_with_changes(self, index):
        self.asked.append(index)
        return self.generator.week_with_changes(index)


class TestScheduleCache:
    def test_plane_and_grid_stay_in_step_through_eviction(self, pop):
        generator = pop.schedule_generator()
        cache = _ScheduleCache(generator)
        for index in range(5):
            rows = cache.rows(index)
            want = generator.week(index)
            assert rows.week_index == index
            previous = generator.week(index - 1) if index else None
            assert np.array_equal(rows.plane, want.change_plane(previous))
            assert cache.rows(index) is rows  # one generation, shared
            # the rows the step reads: hour-major, the same grids
            for got, full in ((rows.activity, want.activity), (rows.place, want.place)):
                assert got.flags.c_contiguous and got.dtype == full.dtype
                assert np.array_equal(got, full.T)
            assert np.array_equal(rows.active, rows.plane.any(axis=1))
            # one week resident in the cache: no boundary week is kept
            assert cache._week is rows

    def test_walking_weeks_generates_each_once(self, pop):
        counting = CountingGenerator(pop.schedule_generator())
        cache = _ScheduleCache(counting)
        for index in range(4):
            cache.rows(index)
            cache.rows(index)
        assert counting.asked == [0, 1, 2, 3]

    def test_resume_past_an_uncached_week_still_compares_with_it(self, pop):
        """Week 3's plane equals its plane against week 2's last hour when
        the cache never held week 2 (a resumed run starts there), and week
        2 is not built for it: row 0 is all-false, both hours are home."""
        generator = pop.schedule_generator()
        counting = CountingGenerator(generator)
        cache = _ScheduleCache(counting)
        plane = cache.rows(3).plane
        assert counting.asked == [3]
        assert not plane[0].any()
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
        assert asked == [2]  # the resume week alone, not the one before
        ref = DistributedSimulation(pop, dist_config(pop, 2, cfg.duration_hours), part)
        assert (res.merged_records() == ref.run().merged_records()).all()


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def fresh(self, registry):
        self.registry = registry

    def run_probed(self, pop, n_ranks=3, **run_kwargs):
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), n_ranks
        )
        sim = DistributedSimulation(pop, dist_config(pop, n_ranks, 50), part)
        get_collector().drain()
        self.registry.reset()
        res = sim.run(**run_kwargs)
        return res, self.registry.snapshot()["counters"], get_collector().drain()

    def test_counters_once_per_rank(self, pop):
        res, counters, _ = self.run_probed(pop)
        closing = pop.n_persons  # every agent's last spell closes at the end
        assert counters["distrib.rank_hours"] == 3 * 49
        plane = pop.schedule_generator().week(0).change_plane(None)
        assert counters["distrib.quiet_hours"] == 3 * int((~plane[1:50].any(axis=1)).sum())
        assert counters["distrib.changes"] == res.total_events - closing
        assert counters["distrib.migrants_out"] == res.total_migrations
        assert counters["distrib.alltoall_bytes"] == res.traffic.by_kind["alltoall"]
        # one loop steps every rank hosted in process: one clock for it
        loops = self.registry.snapshot()["histograms"]["distrib.rank_loop_seconds"]
        assert loops["count"] == 1

    def test_twin_steps_are_counted_once_per_rank(self, pop, monkeypatch):
        res, counters, _ = self.run_probed(pop)
        if compiled_impl() == "cext":
            assert res.impl == "cext"
            assert "kernels.rank_step.twin" not in counters
        monkeypatch.setattr(rankstep, "load_cext", lambda: None)
        res, counters, _ = self.run_probed(pop)
        assert res.impl == "twin"
        assert counters["kernels.rank_step.twin"] == (
            counters["distrib.rank_hours"] - counters["distrib.quiet_hours"]
        )

    def test_receive_and_week_builds_are_observed(self, pop, monkeypatch):
        """The hour kernel's time once per hosting loop, the exchange and
        receive time once per forked rank from a local sum (ranks in one
        process exchange nothing: no such clock), and one week build per
        week the run needs (50 hours: week 0)."""
        res, counters, _ = self.run_probed(pop)
        hist = self.registry.snapshot()["histograms"]
        assert hist["distrib.step_seconds"]["count"] == 1
        assert hist["distrib.step_seconds"]["sum"] <= hist["distrib.rank_loop_seconds"]["sum"]
        assert not {"distrib.exchange_seconds", "distrib.receive_seconds"} & set(hist)
        assert hist["sim.week_build_seconds"]["count"] == 1
        self.run_probed(pop, cluster=ProcessBspCluster(3))
        hist = self.registry.snapshot()["histograms"]
        for name in ("step", "exchange", "receive", "rank_loop"):
            assert hist[f"distrib.{name}_seconds"]["count"] == 3, name
        assert hist["distrib.receive_seconds"]["sum"] <= hist["distrib.rank_loop_seconds"]["sum"]
        if compiled_impl() == "cext":
            assert "kernels.week_fill.twin" not in counters
        monkeypatch.setattr(cext, "load_cext", lambda: None)
        twin, counters, _ = self.run_probed(pop)
        assert counters["kernels.week_fill.twin"] == 1
        assert [r.tobytes() for r in twin.per_rank_records] == [
            r.tobytes() for r in res.per_rank_records
        ]

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
