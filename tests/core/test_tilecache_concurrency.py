"""TileCache under concurrent readers: the thread-safety contract.

The network-query service shares one warm :class:`TileCache` across an
executor's threads, so the cache must tolerate concurrent
``query_window`` / ``warm`` calls — including with an LRU budget small
enough that evictions race live compositions.  Property under test:
*every* CSR any thread receives is bit-identical to a direct
synthesis of its window, and the stats counters
(guarded by the cache lock) never lose an update.

Seeded end to end: the window pool, each thread's query sequence, and
the budget derivation are all deterministic.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.core import TileCache, synthesize_from_logs
from repro.distrib import DistributedSimulation, spatial_partition

pytestmark = pytest.mark.timeout(300)

N_THREADS = 6
QUERIES_PER_THREAD = 8

#: mixed aligned / unaligned / sub-tile / boundary-straddling windows
WINDOW_POOL = [
    (0, 24),
    (0, 168),
    (24, 192),
    (5, 100),
    (30, 40),
    (23, 25),
    (160, 336),
    (100, 101),
    (6, 174),
    (48, 312),
]


@pytest.fixture(scope="module")
def conc_logs(tmp_path_factory, small_pop):
    """Two weeks of 2-rank logs for the concurrency property tests."""
    d = tmp_path_factory.mktemp("conc-logs")
    cfg = repro.SimulationConfig(
        scale=small_pop.scale,
        duration_hours=2 * repro.HOURS_PER_WEEK,
        n_ranks=2,
    )
    part = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 2
    )
    DistributedSimulation(small_pop, cfg, part).run(log_dir=d)
    return d


@pytest.fixture(scope="module")
def references(conc_logs, small_pop):
    """Direct single-threaded synthesis of every pool window."""
    refs = {}
    for t0, t1 in WINDOW_POOL:
        net, _ = synthesize_from_logs(
            conc_logs, small_pop.n_persons, t0, t1
        )
        refs[(t0, t1)] = net
    return refs


def assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def tight_budget(conc_logs, small_pop) -> int:
    """A budget around a quarter of the full run's tile nonzeros, so the
    concurrent workload constantly evicts and rebuilds."""
    with TileCache(conc_logs, small_pop.n_persons) as cache:
        cache.query_window(0, 2 * repro.HOURS_PER_WEEK)
        return max(1, cache.cached_nnz // 4)


def run_threads(worker) -> list:
    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        futures = [pool.submit(worker, i) for i in range(N_THREADS)]
        return [f.result() for f in futures]


class TestConcurrentReaders:
    def test_racing_queries_with_evictions_stay_bit_identical(
        self, conc_logs, small_pop, references
    ):
        budget = tight_budget(conc_logs, small_pop)
        with TileCache(
            conc_logs, small_pop.n_persons, budget_nnz=budget
        ) as cache:

            def worker(seed: int):
                rng = np.random.default_rng(1000 + seed)
                out = []
                for _ in range(QUERIES_PER_THREAD):
                    window = WINDOW_POOL[rng.integers(len(WINDOW_POOL))]
                    out.append((window, cache.query_window(*window)))
                return out

            results = run_threads(worker)
            # locked counters: no update lost to a race
            assert (
                cache.stats.queries == N_THREADS * QUERIES_PER_THREAD
            )
            # the budget really was tight enough to race evictions
            # against live compositions
            assert cache.stats.evictions > 0
            assert cache.cached_nnz <= budget
        for per_thread in results:
            for window, net in per_thread:
                assert (net.t0, net.t1) == window
                assert_bit_identical(
                    net.adjacency, references[window].adjacency
                )

    def test_warm_races_queries(self, conc_logs, small_pop, references):
        """Background warming (the service's prefetcher) must not
        perturb concurrent query results."""
        horizon = 2 * repro.HOURS_PER_WEEK
        with TileCache(conc_logs, small_pop.n_persons) as cache:
            assert cache.horizon() == horizon

            def worker(seed: int):
                rng = np.random.default_rng(2000 + seed)
                out = []
                for _ in range(QUERIES_PER_THREAD):
                    if seed % 2 == 0:
                        tile = int(rng.integers(horizon // 24))
                        cache.warm(tile * 24, (tile + 1) * 24)
                    window = WINDOW_POOL[rng.integers(len(WINDOW_POOL))]
                    out.append((window, cache.query_window(*window)))
                return out

            results = run_threads(worker)
        for per_thread in results:
            for window, net in per_thread:
                assert_bit_identical(
                    net.adjacency, references[window].adjacency
                )

    def test_single_build_per_tile_under_contention(
        self, conc_logs, small_pop, references
    ):
        """Unbounded cache, every thread asking for the same window: the
        per-tile work happens once, not once per thread."""
        with TileCache(conc_logs, small_pop.n_persons) as cache:

            def worker(_seed: int):
                return cache.query_window(24, 192)

            nets = run_threads(worker)
            # 7 base tiles cover [24, 192); contention must not
            # duplicate builds (the lock serializes plan + insert)
            assert cache.stats.tiles_built == 7
        for net in nets:
            assert_bit_identical(
                net.adjacency, references[(24, 192)].adjacency
            )
