"""Tests for streaming multi-week synthesis and temporal statistics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core import CollocationNetwork, StreamingSynthesizer, WeeklyNetworkSeries
from repro.distrib import DistributedSimulation, spatial_partition
from repro.errors import SynthesisError
from repro.evlog import LogSet
from repro.sim import Simulation


@pytest.fixture(scope="module")
def two_week_logs(tmp_path_factory, small_pop):
    d = tmp_path_factory.mktemp("stream-logs")
    cfg = repro.SimulationConfig(
        scale=small_pop.scale,
        duration_hours=2 * repro.HOURS_PER_WEEK,
        n_ranks=4,
    )
    part = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 4
    )
    DistributedSimulation(small_pop, cfg, part).run(log_dir=d)
    return d


class TestStreaming:
    def test_total_equals_whole_synthesis(self, small_pop, two_week_logs):
        # four rank files in batches of two: every interval sums two batches
        series = StreamingSynthesizer(small_pop.n_persons, batch_size=2).process(
            str(two_week_logs), 2
        )
        total = series.total()
        cfg = repro.SimulationConfig(
            scale=small_pop.scale, duration_hours=2 * repro.HOURS_PER_WEEK
        )
        serial = Simulation(small_pop, cfg).run()
        whole, _ = repro.synthesize_network(
            serial.records, small_pop.n_persons, 0, 2 * repro.HOURS_PER_WEEK
        )
        assert (total.adjacency != whole.adjacency).nnz == 0

    def test_interval_count(self, small_pop, two_week_logs):
        series = StreamingSynthesizer(small_pop.n_persons).process(
            LogSet(two_week_logs), 2
        )
        assert series.n_intervals == 2
        assert (series.interval_edge_counts() > 0).all()

    def test_invalid_intervals(self, small_pop, two_week_logs):
        with pytest.raises(SynthesisError):
            StreamingSynthesizer(small_pop.n_persons).process(
                str(two_week_logs), 0
            )
        with pytest.raises(SynthesisError):
            StreamingSynthesizer(small_pop.n_persons, interval_hours=0)


def series_from(adjs):
    return WeeklyNetworkSeries(
        networks=[
            CollocationNetwork(sp.csr_matrix(a, dtype=np.int64)) for a in adjs
        ],
        interval_hours=1,
    )


class TestTemporalStats:
    def test_persistence_exact(self):
        a1 = np.triu(np.array([
            [0, 1, 1], [0, 0, 1], [0, 0, 0],
        ]), 1)
        a2 = np.triu(np.array([
            [0, 1, 0], [0, 0, 1], [0, 0, 0],
        ]), 1)
        series = series_from([a1, a2])
        # 2 of week-1's 3 edges survive
        assert series.edge_persistence().tolist() == [pytest.approx(2 / 3)]

    def test_recurrence_exact(self):
        a1 = np.triu(np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]]), 1)
        a2 = np.triu(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 1)
        series = series_from([a1, a2])
        weeks, counts = series.edge_recurrence()
        # (0,1) twice; (0,2) and (1,2) once
        assert weeks.tolist() == [1, 2]
        assert counts.tolist() == [2, 1]

    def test_single_interval_no_persistence(self):
        series = series_from([np.triu(np.ones((3, 3)), 1)])
        assert len(series.edge_persistence()) == 0

    def test_population_mismatch_rejected(self):
        with pytest.raises(SynthesisError):
            WeeklyNetworkSeries(
                networks=[
                    CollocationNetwork(sp.csr_matrix((3, 3), dtype=np.int64)),
                    CollocationNetwork(sp.csr_matrix((4, 4), dtype=np.int64)),
                ],
                interval_hours=1,
            )

    def test_real_series_has_stable_core(self, small_pop, two_week_logs):
        """Households/schools/workplaces recur weekly: persistence well
        above zero; venue churn keeps it well below one."""
        series = StreamingSynthesizer(small_pop.n_persons).process(
            str(two_week_logs), 2
        )
        p = series.edge_persistence()[0]
        assert 0.25 < p < 0.95
        weeks, counts = series.edge_recurrence()
        assert weeks.tolist() == [1, 2]
        assert counts[1] > 0  # a real recurring core exists
