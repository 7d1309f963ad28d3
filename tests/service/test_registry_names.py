"""The metrics registry's name set, pinned.

One small direct synthesis, one tile-cache warm + query and one service
``window`` request must emit exactly these names, and one short
distributed simulation its own: a renamed or vanished counter breaks every
dashboard and ``repro metrics`` reading that looks for it.  The tile cache's and the service's counters carry the names of
their ``TileCacheStats`` / ``ServiceStats`` fields (DESIGN §14), and
those fields count whether or not telemetry is on.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import SimulationConfig
from repro.core import synthesize_from_logs
from repro.core.kernels import compiled_impl
from repro.core.tilecache import TileCache
from repro.distrib import DistributedSimulation, ProcessBspCluster, spatial_partition
from repro.obs import MetricsRegistry, configure, set_default_registry
from repro.service import NetworkQueryService, ServiceClient, ServiceConfig

pytestmark = pytest.mark.timeout(120)

KERNEL_STAGES = ("accumulate", "pack_build", "spgemm")

COUNTERS = {
    "cache.fringe_hours",
    "cache.queries",
    "cache.tile_hits",
    "cache.tiles_built",
    "cache.tiles_merged",
    *(f"evlog.reader.{name}" for name in (
        "bytes_crc", "chunks_checked", "chunks_decoded",
        "records_decoded", "records_kept",
    )),
    *(f"kernel.{s}.{unit}" for s in KERNEL_STAGES for unit in ("seconds", "tasks")),
    "pool.map_calls",
    "pool.tasks",
    *(f"service.{name}" for name in (
        "compositions", "connections", "queries", "reply_bytes", "requests",
    )),
    *(f"stage.cache.{s}.{unit}" for s in ("build", "merge", "reduce")
      for unit in ("calls", "seconds")),
    *(f"stage.synthesis.{s}.{unit}"
      for s in ("adjacency", "collocation_matrices", "load", "merge")
      for unit in ("calls", "seconds")),
}
#: what the numpy/scipy twins add when the C extension is unavailable
TWIN_COUNTERS = {f"kernels.{s}.twin" for s in ("csr_sum", "pack_build", "spgemm")}
#: what the compiled fold records once per fold: the bands it reduced in
#: and the scratch it held (the twin reduces in one scipy product)
FOLD_COUNTERS = {"kernels.fold.bands"}
FOLD_HISTOGRAMS = {"kernels.fold.scratch_bytes"}
HISTOGRAMS = {
    *(f"kernel.{s}.task_seconds" for s in KERNEL_STAGES),
    "service.op_seconds.window",
}

#: what a distributed run records once per rank (counters), once per
#: loop over the ranks a process hosts (the loop clock and its hour
#: kernel's) and once per week built (``sim.week_build_seconds``), in
#: process and, for a run inside its first week (built before the fork),
#: on process ranks alike; a forked rank adds its exchange and receive
SIM_COUNTERS = {
    f"distrib.{name}"
    for name in (
        "alltoall_bytes", "changes", "migrants_out", "quiet_hours", "rank_hours"
    )
}
SIM_TWIN_COUNTERS = {"kernels.rank_step.twin", "kernels.week_fill.twin"}
SIM_HISTOGRAMS = {
    "distrib.rank_loop_seconds", "distrib.step_seconds", "sim.week_build_seconds"
}
FORKED_HISTOGRAMS = {"distrib.exchange_seconds", "distrib.receive_seconds"}
#: what a run that writes logs adds: the writers' counts and flush clock,
#: recorded per flush and per file write, never per batch
LOG_COUNTERS = {"evlog.bytes_written", "evlog.records_written"}
LOG_HISTOGRAMS = {"evlog.flush_seconds"}
#: and what the durability paths add: one fsync clock per fsync, one
#: journal clock per WAL frame
DURABLE_HISTOGRAMS = {"fsync": {"evlog.fsync_seconds"}}
DURABLE_HISTOGRAMS["wal"] = DURABLE_HISTOGRAMS["fsync"] | {"evlog.wal_append_seconds"}


def exercise(service_logs, n_persons, places):
    """The three workloads; returns the cache's and the service's stats."""
    synthesize_from_logs(service_logs, n_persons, 0, 48)
    with TileCache(service_logs, n_persons, tile_hours=24) as cache:
        cache.warm(0, 72)
        cache.query_window(5, 48)  # one fringe, one tile

    async def window():
        svc = NetworkQueryService(
            service_logs, n_persons, places=places,
            config=ServiceConfig(port=0),
        )
        async with svc:
            async with ServiceClient(port=svc.port) as client:
                await client.query_window(0, 24)
        return svc.stats

    return cache.stats, asyncio.run(window())


def test_name_set_is_pinned(service_logs, small_pop, registry):
    exercise(service_logs, small_pop.n_persons, small_pop.places)
    snap = registry.snapshot()
    cext = compiled_impl() == "cext"
    twins = set() if cext else TWIN_COUNTERS
    assert set(snap["counters"]) == COUNTERS | twins | (FOLD_COUNTERS if cext else set())
    assert set(snap["histograms"]) == HISTOGRAMS | (FOLD_HISTOGRAMS if cext else set())
    assert "kernels.compiled" not in snap["counters"]


def test_simulation_name_set_is_pinned(small_pop, registry):
    config = SimulationConfig(scale=small_pop.scale, duration_hours=30, n_ranks=2)
    partition = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 2
    )
    DistributedSimulation(small_pop, config, partition).run()
    snap = registry.snapshot()
    twins = SIM_TWIN_COUNTERS if compiled_impl() != "cext" else set()
    assert set(snap["counters"]) == SIM_COUNTERS | twins
    assert set(snap["histograms"]) == SIM_HISTOGRAMS
    assert snap["histograms"]["sim.week_build_seconds"]["count"] == 1


def test_process_ranks_record_the_same_names(small_pop, registry):
    """In process one loop steps every rank; forked process ranks run the
    same loop, one rank each, and record the same counters and names, plus
    each rank's exchange and receive clocks."""
    config = SimulationConfig(scale=small_pop.scale, duration_hours=30, n_ranks=2)
    partition = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 2
    )
    snaps = []
    for cluster in (None, ProcessBspCluster(2)):
        registry.reset()
        DistributedSimulation(small_pop, config, partition).run(cluster=cluster)
        snaps.append(registry.snapshot())
    lockstep, processes = snaps
    assert lockstep["counters"] == processes["counters"]
    assert set(lockstep["histograms"]) == SIM_HISTOGRAMS
    assert set(processes["histograms"]) == SIM_HISTOGRAMS | FORKED_HISTOGRAMS
    # one hosting loop in process, one per forked rank
    for name in SIM_HISTOGRAMS - {"sim.week_build_seconds"}:
        assert lockstep["histograms"][name]["count"] == 1
    for name in (SIM_HISTOGRAMS | FORKED_HISTOGRAMS) - {"sim.week_build_seconds"}:
        assert processes["histograms"][name]["count"] == 2
    assert (
        lockstep["histograms"]["sim.week_build_seconds"]["count"]
        == processes["histograms"]["sim.week_build_seconds"]["count"]
    )


@pytest.mark.parametrize("durability", ["none", "fsync", "wal"])
def test_logged_simulation_name_set_is_pinned(small_pop, registry, tmp_path, durability):
    config = SimulationConfig(
        scale=small_pop.scale, duration_hours=30, n_ranks=2,
        log_cache_records=64, log_durability=durability,
    )  # fmt: skip
    partition = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 2
    )
    result = DistributedSimulation(small_pop, config, partition).run(log_dir=tmp_path)
    snap = registry.snapshot()
    twins = SIM_TWIN_COUNTERS if compiled_impl() != "cext" else set()
    assert set(snap["counters"]) == SIM_COUNTERS | LOG_COUNTERS | twins
    assert set(snap["histograms"]) == (
        SIM_HISTOGRAMS | LOG_HISTOGRAMS | DURABLE_HISTOGRAMS.get(durability, set())
    )
    # once per flush: a rank flushes each full cache and its tail at close
    flushes = sum(-(-events // 64) for events in result.rank_events)
    assert snap["histograms"]["evlog.flush_seconds"]["count"] == flushes
    assert snap["counters"]["evlog.records_written"] == result.total_events
    assert snap["counters"]["evlog.bytes_written"] == sum(
        path.stat().st_size for path in result.log_paths
    )


def test_fields_count_with_telemetry_off(service_logs, small_pop):
    mine = MetricsRegistry()
    prev, was_on = set_default_registry(mine), configure(False)
    try:
        cache, service = exercise(
            service_logs, small_pop.n_persons, small_pop.places
        )
    finally:
        set_default_registry(prev)
        configure(was_on)
    assert (cache.tiles_built, cache.tiles_merged, cache.queries) == (3, 1, 1)
    assert cache.tile_hits > 0 and cache.fringe_hours == 19
    assert (service.requests, service.queries, service.compositions) == (1, 1, 1)
    snap = mine.snapshot()
    assert snap["counters"] == {} and snap["histograms"] == {}
