"""What a forked rank records reaches the parent's metrics registry.

A :class:`~repro.distrib.proccluster.ProcessBspCluster` rank writes to
its own copy of the registry; the cluster ships each rank's
``MetricsRegistry.delta`` back with its spans and the parent absorbs it.
So a logged run on process ranks records what the lockstep run records —
the writers' counters and flush clocks included — and a sharded
synthesis records its shards' kernel timings and fold metrics.
"""

from __future__ import annotations

import pytest

import repro
from repro.config import SimulationConfig
from repro.core.kernels import compiled_impl
from repro.distrib import (
    DistributedSimulation,
    ProcessBspCluster,
    shard_synthesize,
    spatial_partition,
)

pytestmark = pytest.mark.timeout(180)


def test_logged_process_run_records_what_lockstep_records(small_pop, registry, tmp_path):
    weeks = 2
    config = SimulationConfig(
        scale=small_pop.scale, duration_hours=weeks * repro.HOURS_PER_WEEK,
        n_ranks=2, log_cache_records=256,
    )  # fmt: skip
    partition = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 2
    )
    snaps = []
    for name, cluster in (("lockstep", None), ("processes", ProcessBspCluster(2))):
        registry.reset()
        DistributedSimulation(small_pop, config, partition).run(
            log_dir=tmp_path / name, cluster=cluster
        )
        snaps.append(registry.snapshot())
    lockstep, processes = snaps
    assert lockstep["counters"]["evlog.records_written"] > 0
    # the weeks after the first are built once on shared lockstep ranks,
    # once per rank on forked ones: every build is counted where it ran
    builds = {"lockstep": weeks, "processes": 1 + 2 * (weeks - 1)}
    twin = "kernels.week_fill.twin"
    for snap, n in zip(snaps, builds.values()):
        assert snap["histograms"]["sim.week_build_seconds"]["count"] == n
        assert snap["counters"].pop(twin, n) == n
    assert lockstep["counters"] == processes["counters"]
    assert set(lockstep["histograms"]) == set(processes["histograms"])
    for name, h in lockstep["histograms"].items():
        if name != "sim.week_build_seconds":
            assert h["count"] == processes["histograms"][name]["count"], name


def test_forked_shards_report_their_kernels_and_folds(two_week_logs, small_pop, registry):
    n_shards = 2
    shard_synthesize(
        two_week_logs, small_pop.n_persons, 0, 2 * repro.HOURS_PER_WEEK,
        n_shards=n_shards,
    )  # fmt: skip
    snap = registry.snapshot()
    # every shard builds its files' packs and folds them once
    for stage in ("pack_build", "spgemm", "accumulate"):
        assert snap["counters"][f"kernel.{stage}.tasks"] >= n_shards, stage
        assert snap["histograms"][f"kernel.{stage}.task_seconds"]["count"] >= n_shards
    if compiled_impl() == "cext":
        folds = snap["histograms"]["kernels.fold.scratch_bytes"]
        assert folds["count"] == n_shards and folds["min"] > 0
        assert snap["counters"]["kernels.fold.bands"] >= n_shards
    else:
        assert snap["counters"]["kernels.spgemm.twin"] == n_shards
