"""End-to-end integration tests across every subsystem.

These are the whole-paper scenarios: simulate → log → synthesize →
analyze, serial vs distributed, in-memory vs on-disk, single-window vs
multi-window — all must agree.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis import summarize
from repro.distrib import round_robin_partition, spatial_partition
from repro.evlog import LogReader, LogSet


@pytest.fixture(scope="module")
def pop():
    return repro.generate_population(repro.ScaleConfig(n_persons=500, seed=77))


def log_one_rank(pop, cfg, log_dir):
    """The rank step on one rank: how a serial run writes its log."""
    one_rank = round_robin_partition(pop.n_places, 1)
    return repro.DistributedSimulation(pop, cfg, one_rank).run(log_dir=log_dir)


class TestFullPipelineConsistency:
    def test_disk_roundtrip_equals_in_memory(self, pop, tmp_path):
        """simulate → EVL file → synthesize == simulate → synthesize."""
        cfg = repro.SimulationConfig(
            scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK
        )
        log_one_rank(pop, cfg, tmp_path)
        res = repro.Simulation(pop, cfg).run()
        net_mem, _ = repro.synthesize_network(
            res.records, pop.n_persons, 0, repro.HOURS_PER_WEEK
        )
        net_disk, _ = repro.synthesize_from_logs(
            tmp_path, pop.n_persons, 0, repro.HOURS_PER_WEEK
        )
        assert (net_mem.adjacency != net_disk.adjacency).nnz == 0

    def test_distributed_network_equals_serial_network(self, pop, tmp_path):
        cfg = repro.SimulationConfig(
            scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK, n_ranks=4
        )
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), 4
        )
        repro.DistributedSimulation(pop, cfg, part).run(log_dir=tmp_path)
        net_dist, _ = repro.synthesize_from_logs(
            tmp_path, pop.n_persons, 0, repro.HOURS_PER_WEEK, batch_size=2
        )

        serial_cfg = repro.SimulationConfig(
            scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK
        )
        serial = repro.Simulation(pop, serial_cfg).run()
        net_serial, _ = repro.synthesize_network(
            serial.records, pop.n_persons, 0, repro.HOURS_PER_WEEK
        )
        assert (net_dist.adjacency != net_serial.adjacency).nnz == 0

    def test_weekly_networks_sum_to_fortnight(self, pop):
        """Per-week synthesis + summation == one two-week synthesis
        (the paper's multi-log aggregation step)."""
        cfg = repro.SimulationConfig(
            scale=pop.scale, duration_hours=2 * repro.HOURS_PER_WEEK
        )
        res = repro.Simulation(pop, cfg).run()
        w = repro.HOURS_PER_WEEK
        net1, _ = repro.synthesize_network(res.records, pop.n_persons, 0, w)
        net2, _ = repro.synthesize_network(res.records, pop.n_persons, w, 2 * w)
        total, _ = repro.synthesize_network(res.records, pop.n_persons, 0, 2 * w)
        summed = net1 + net2
        assert (summed.adjacency != total.adjacency).nnz == 0

    def test_network_self_consistency(self, pop):
        cfg = repro.SimulationConfig(
            scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK
        )
        res = repro.Simulation(pop, cfg).run()
        net, report = repro.synthesize_network(
            res.records, pop.n_persons, 0, repro.HOURS_PER_WEEK
        )
        s = summarize(net)
        # handshake lemma, weight bounds, household floor
        assert net.degrees().sum() == 2 * s.n_edges
        # max possible pair weight is the window length
        assert net.adjacency.data.max() <= repro.HOURS_PER_WEEK
        # household members share >= 7 nightly hours every day
        hh = pop.persons.household
        groups = np.flatnonzero(np.bincount(hh) >= 2)
        checked = 0
        for h in groups[:20]:
            members = np.flatnonzero(hh == h)
            for i in range(len(members) - 1):
                w = net.edge_weight(int(members[i]), int(members[i + 1]))
                assert w >= 7 * 7  # 7 forced home hours x 7 days
                checked += 1
        assert checked > 0


class TestEpidemicOnNetwork:
    def test_disease_spreads_along_collocation_edges(self, pop):
        """Every transmission pair must be an edge of the collocation
        network for the same window — the two pipelines agree."""
        cfg = repro.SimulationConfig(
            scale=pop.scale,
            duration_hours=repro.HOURS_PER_WEEK,
            disease=repro.DiseaseConfig(
                transmissibility=0.03, initial_infected=3
            ),
        )
        res = repro.Simulation(pop, cfg).run()
        net, _ = repro.synthesize_network(
            res.records, pop.n_persons, 0, repro.HOURS_PER_WEEK
        )
        assert res.disease is not None
        pairs = [
            (t.infected, t.infector) for t in res.disease.transmissions
        ]
        assert pairs, "outbreak failed to spread"
        for infected, infector in pairs:
            assert net.edge_weight(infected, infector) > 0


class TestCacheSizeInvariance:
    def test_log_content_independent_of_cache(self, pop, tmp_path):
        """The cache is an IO policy; bytes on disk differ (chunking) but
        records must not."""
        cfg_small = repro.SimulationConfig(
            scale=pop.scale, duration_hours=100, log_cache_records=37
        )
        cfg_big = repro.SimulationConfig(
            scale=pop.scale, duration_hours=100, log_cache_records=100_000
        )
        small = log_one_rank(pop, cfg_small, tmp_path / "s")
        big = log_one_rank(pop, cfg_big, tmp_path / "b")
        a = LogReader(small.log_paths[0])
        b = LogReader(big.log_paths[0])
        assert a.n_chunks > b.n_chunks
        assert (a.read_all() == b.read_all()).all()
