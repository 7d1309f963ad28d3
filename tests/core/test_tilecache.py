"""Temporal tile cache: equivalence, budget, persistence, invalidation.

The load-bearing property is *bit-identity*: for any window, the
tile-composed adjacency must have exactly the same CSR ``data``,
``indices``, and ``indptr`` as a direct synthesis
over the same logs — aligned windows, unaligned fringes, single-tile and
sub-tile windows, full runs, after checkpoint resume, and with damaged
files quarantined.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    StreamingSynthesizer,
    TileCache,
    synthesize_from_logs,
    synthesize_layers,
)
from repro.core.layers import LAYER_KINDS
from repro.core.tilecache import TILE_MANIFEST, logset_digest
from repro.distrib import DistributedSimulation, spatial_partition
from repro.errors import LogTruncatedError, TileCacheError
from repro.evlog import LogSet
from repro.evlog.multifile import salvage_rank_logs
from repro.synthpop.places import PlaceKind


@pytest.fixture(scope="module")
def tile_logs(tmp_path_factory, small_pop):
    """Two weeks of 4-rank logs, shared by every cache test."""
    d = tmp_path_factory.mktemp("tile-logs")
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


@pytest.fixture(scope="module")
def tile_cache(tile_logs, small_pop):
    with TileCache(tile_logs, small_pop.n_persons) as cache:
        yield cache


def assert_bit_identical(a, b):
    """Same canonical CSR: data, indices, indptr all exactly equal."""
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def direct(log_dir, n_persons, t0, t1, **kw):
    net, _ = synthesize_from_logs(log_dir, n_persons, t0, t1, **kw)
    return net


class TestEquivalence:
    @pytest.mark.parametrize(
        "t0,t1",
        [
            (0, 24),  # exactly one base tile
            (0, 336),  # full run, aligned
            (24, 192),  # aligned multi-tile
            (5, 300),  # both edges unaligned
            (30, 40),  # strictly inside one tile
            (23, 25),  # straddles a tile boundary, no whole tile
            (0, 168),  # one aligned week
            (167, 169),  # boundary straddle at week edge
            (100, 101),  # single hour
        ],
    )
    def test_window_bit_identical(self, tile_cache, tile_logs, small_pop, t0, t1):
        net = tile_cache.query_window(t0, t1)
        ref = direct(tile_logs, small_pop.n_persons, t0, t1)
        assert_bit_identical(net.adjacency, ref.adjacency)
        assert (net.t0, net.t1) == (t0, t1)

    def test_repeat_query_serves_from_cache(self, tile_logs, small_pop):
        with TileCache(tile_logs, small_pop.n_persons) as cache:
            first = cache.query_window(0, 168)
            built = cache.stats.tiles_built
            again = cache.query_window(0, 168)
            assert cache.stats.tiles_built == built  # nothing rebuilt
            assert cache.stats.tile_hits > 0
            assert_bit_identical(first.adjacency, again.adjacency)

    def test_repeat_unaligned_query_caches_fringes(self, tile_logs, small_pop):
        with TileCache(tile_logs, small_pop.n_persons) as cache:
            first = cache.query_window(6, 174)
            hours = cache.stats.fringe_hours
            assert hours == (24 - 6) + (174 - 168)
            again = cache.query_window(6, 174)
            # the second request reads no records: both fringe partials
            # are served from the LRU alongside the cover tiles
            assert cache.stats.fringe_hours == hours
            assert cache.stats.fringe_hits == 2
            assert_bit_identical(first.adjacency, again.adjacency)

    def test_sliding_windows_share_tiles(self, tile_logs, small_pop):
        with TileCache(tile_logs, small_pop.n_persons) as cache:
            cache.query_window(0, 168)
            built = cache.stats.tiles_built
            net = cache.query_window(24, 192)  # slides by one tile
            # only the one new base tile (168–192) is constructed
            assert cache.stats.tiles_built == built + 1
            ref = direct(tile_logs, small_pop.n_persons, 24, 192)
            assert_bit_identical(net.adjacency, ref.adjacency)

    def test_zero_copy_dispatch(self, tile_logs, small_pop):
        with TileCache(tile_logs, small_pop.n_persons) as cache:
            net = cache.query_window(5, 300)
            ref = direct(tile_logs, small_pop.n_persons, 5, 300)
            assert_bit_identical(net.adjacency, ref.adjacency)

    def test_warm_then_query_builds_nothing(self, tile_logs, small_pop):
        with TileCache(tile_logs, small_pop.n_persons) as cache:
            built = cache.warm(0, 336)
            assert built == 336 // 24
            before = cache.stats.tiles_built
            net = cache.query_window(0, 336)
            assert cache.stats.tiles_built == before
            assert cache.stats.fringe_hours == 0
            ref = direct(tile_logs, small_pop.n_persons, 0, 336)
            assert_bit_identical(net.adjacency, ref.adjacency)

    def test_matches_checkpoint_resumed_synthesis(
        self, tile_cache, tile_logs, small_pop, tmp_path
    ):
        """Tile composition equals a direct synthesis that went through a
        kill + checkpoint resume."""
        ckpt = tmp_path / "ckpt"
        with pytest.raises(RuntimeError):
            synthesize_from_logs(
                tile_logs, small_pop.n_persons, 0, 336,
                batch_size=1, checkpoint=ckpt,
                pool=_DieAfter(2),
            )
        resumed, report = synthesize_from_logs(
            tile_logs, small_pop.n_persons, 0, 336,
            batch_size=1, resume=ckpt,
        )
        assert report.resumed_batches > 0
        net = tile_cache.query_window(0, 336)
        assert_bit_identical(net.adjacency, resumed.adjacency)


class _DieAfter:
    """A pool that dies after N map calls (drives the resume test)."""

    n_workers = 1

    def __init__(self, calls: int) -> None:
        self._left = calls

    def map(self, fn, items):
        if self._left <= 0:
            raise RuntimeError("injected pool failure")
        self._left -= 1
        return [fn(item) for item in items]

    def close(self) -> None:
        pass


class TestBudget:
    def test_lru_stays_under_budget(self, tile_logs, small_pop):
        budget = 8_000
        with TileCache(
            tile_logs, small_pop.n_persons, budget_nnz=budget
        ) as cache:
            for t0, t1 in [(0, 336), (5, 300), (24, 192), (100, 230)]:
                net = cache.query_window(t0, t1)
                assert cache.cached_nnz <= budget
                ref = direct(tile_logs, small_pop.n_persons, t0, t1)
                assert_bit_identical(net.adjacency, ref.adjacency)
            assert cache.stats.evictions > 0

    def test_bad_budget_rejected(self, tile_logs, small_pop):
        with pytest.raises(TileCacheError):
            TileCache(tile_logs, small_pop.n_persons, budget_nnz=0)


class TestPersistence:
    def test_reopen_serves_from_disk(self, tile_logs, small_pop, tmp_path):
        store = tmp_path / "tiles"
        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            first = cache.query_window(5, 300)
        assert (store / TILE_MANIFEST).is_file()
        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            net = cache.query_window(5, 300)
            assert cache.stats.tiles_built == 0
            assert cache.stats.tiles_merged == 0
            assert cache.stats.disk_hits > 0
        assert_bit_identical(net.adjacency, first.adjacency)

    def test_manifest_digest_mismatch_discards_tiles(
        self, tile_logs, small_pop, tmp_path
    ):
        store = tmp_path / "tiles"
        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            cache.query_window(0, 48)
        manifest = json.loads((store / TILE_MANIFEST).read_text())
        manifest["digest"] = "0" * 64
        (store / TILE_MANIFEST).write_text(json.dumps(manifest))
        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            assert cache.stats.invalidated > 0
            net = cache.query_window(0, 48)
            assert cache.stats.disk_hits == 0
        ref = direct(tile_logs, small_pop.n_persons, 0, 48)
        assert_bit_identical(net.adjacency, ref.adjacency)

    def test_different_tile_size_does_not_share_store(
        self, tile_logs, small_pop, tmp_path
    ):
        store = tmp_path / "tiles"
        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            cache.query_window(0, 48)
        with TileCache(
            tile_logs, small_pop.n_persons, tile_hours=12, cache_dir=store
        ) as cache:
            # 24 h tiles are invalid for a 12 h cache: digest differs
            assert cache.stats.invalidated > 0
            net = cache.query_window(0, 48)
        ref = direct(tile_logs, small_pop.n_persons, 0, 48)
        assert_bit_identical(net.adjacency, ref.adjacency)


class TestInvalidation:
    """Satellite: repair/salvage of a rank log must invalidate stale tiles."""

    @pytest.fixture()
    def rewritable_logs(self, tmp_path, small_pop):
        d = tmp_path / "logs"
        cfg = repro.SimulationConfig(
            scale=small_pop.scale,
            duration_hours=repro.HOURS_PER_WEEK,
            n_ranks=2,
        )
        part = spatial_partition(
            small_pop.places.coords(),
            small_pop.places.capacity.astype(float),
            2,
        )
        DistributedSimulation(small_pop, cfg, part).run(log_dir=d)
        return d

    def test_salvage_changes_digest_and_rebuilds(
        self, rewritable_logs, small_pop, tmp_path
    ):
        store = tmp_path / "tiles"
        with TileCache(
            rewritable_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            cache.query_window(3, 150)
            old_digest = cache.digest
        n_persisted = len(
            json.loads((store / TILE_MANIFEST).read_text())["tiles"]
        )
        assert n_persisted > 0

        # tear a rank file mid-chunk (real record loss), then repair it —
        # the `repro repair` path
        victim = sorted(Path(rewritable_logs).glob("rank_*.evl"))[0]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        repaired = salvage_rank_logs(rewritable_logs)
        assert [p for p, _ in repaired] == [victim]
        # the rewritten file must be readable but hold fewer records
        assert len(victim.read_bytes()) < len(data)

        with TileCache(
            rewritable_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            assert cache.digest != old_digest
            # every stale persisted tile was discarded, none loaded
            assert cache.stats.invalidated == n_persisted
            net = cache.query_window(3, 150)
            assert cache.stats.disk_hits == 0
            assert cache.stats.tiles_built > 0
        ref = direct(rewritable_logs, small_pop.n_persons, 3, 150)
        assert_bit_identical(net.adjacency, ref.adjacency)
        # the store is rebuilt under the new digest
        manifest = json.loads((store / TILE_MANIFEST).read_text())
        assert manifest["digest"] != old_digest
        assert len(manifest["tiles"]) > 0

    def test_quarantine_matches_direct_synthesis(
        self, rewritable_logs, small_pop
    ):
        """A torn (unrepaired) file is skipped by cache and pipeline alike."""
        victim = sorted(Path(rewritable_logs).glob("rank_*.evl"))[1]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])
        with TileCache(rewritable_logs, small_pop.n_persons) as cache:
            assert cache.quarantined == [str(victim)]
            net = cache.query_window(0, 168)
        ref, report = synthesize_from_logs(
            rewritable_logs, small_pop.n_persons, 0, 168, strict=False
        )
        assert report.quarantined == [str(victim)]
        assert_bit_identical(net.adjacency, ref.adjacency)
        with pytest.raises(LogTruncatedError):
            TileCache(rewritable_logs, small_pop.n_persons, strict=True)


class TestWiring:
    def test_series_total_presized_fallback(self, tile_logs, small_pop):
        """total() (one pre-sized accumulation) matches the whole-window
        synthesis exactly."""
        series = StreamingSynthesizer(small_pop.n_persons).process(
            str(tile_logs), 2
        )
        total = series.total()
        ref = direct(tile_logs, small_pop.n_persons, 0, 336)
        assert_bit_identical(total.adjacency, ref.adjacency)
        assert (total.t0, total.t1) == (0, 336)

    def test_layers_through_caches(self, tile_cache, tile_logs, small_pop):
        """One ``TileCache(place_mask=)`` per place kind — what the service
        holds per layer — against in-memory layer synthesis."""
        caches = {
            name: TileCache(
                tile_logs,
                small_pop.n_persons,
                place_mask=small_pop.places.kind == int(PlaceKind[name.upper()]),
            )
            for name in LAYER_KINDS
        }
        try:
            layers = {k: c.query_window(10, 200) for k, c in caches.items()}
            records = LogSet(tile_logs).read_all()
            ref = synthesize_layers(
                records, small_pop.places, small_pop.n_persons, 10, 200
            )
            assert set(layers) == set(ref)
            for name in ref:
                assert_bit_identical(
                    layers[name].adjacency, ref[name].adjacency
                )
            # layer decomposition stays exact under the cache
            total = None
            for net in layers.values():
                total = net if total is None else total + net
            full = tile_cache.query_window(10, 200)
            assert (total.adjacency != full.adjacency).nnz == 0
            # a second query of the window reuses the per-kind tiles
            built = {k: c.stats.tiles_built for k, c in caches.items()}
            for cache in caches.values():
                cache.query_window(10, 200)
            assert all(
                caches[k].stats.tiles_built == built[k] for k in caches
            )
        finally:
            for c in caches.values():
                c.close()


class TestErrors:
    def test_empty_window_rejected(self, tile_cache):
        with pytest.raises(TileCacheError):
            tile_cache.query_window(10, 10)
        with pytest.raises(TileCacheError):
            tile_cache.query_window(20, 10)
        with pytest.raises(TileCacheError):
            tile_cache.query_window(-5, 10)

    def test_bad_config_rejected(self, tile_logs):
        with pytest.raises(TileCacheError):
            TileCache(tile_logs, 0)
        with pytest.raises(TileCacheError):
            TileCache(tile_logs, 100, tile_hours=0)
        with pytest.raises(TypeError):
            TileCache(tile_logs, 100, dispatch="zero-copy")

    def test_closed_cache_rejected(self, tile_logs, small_pop):
        cache = TileCache(tile_logs, small_pop.n_persons)
        cache.close()
        with pytest.raises(TileCacheError):
            cache.query_window(0, 24)
        cache.close()  # idempotent


class TestDigest:
    def test_digest_tracks_content(self, tmp_path):
        a = tmp_path / "rank_0000.evl"
        b = tmp_path / "rank_0001.evl"
        a.write_bytes(b"alpha")
        b.write_bytes(b"beta")
        d1 = logset_digest([a, b])
        assert d1 == logset_digest([b, a])  # order-insensitive
        b.write_bytes(b"beta2")
        assert logset_digest([a, b]) != d1
