"""Self-healing persisted tiles: quarantine + transparent rebuild.

The store's contract after this layer: a damaged tile file — flipped
bits, torn write, truncation, even a valid-CRC-but-undecodable archive —
is *never* served.  It is renamed aside with a ``.quarantined`` suffix,
dropped from the manifest, and the tile is rebuilt from the logs so
every answer stays bit-identical to a direct synthesis.  So is a
CRC-valid tile that breaks the composition kernel's precondition (shape,
typed layout, canonical format, strict upper triangle).  v1 manifests
(no CRCs) are treated as stale wholesale.
"""

from __future__ import annotations

import io
import json
import zlib

import numpy as np
import pytest

from repro.core import TileCache, synthesize_from_logs
from repro.core.tilecache import TILE_MANIFEST

from .test_tilecache import assert_bit_identical, direct, tile_logs  # noqa: F401


def make_store(tile_logs, small_pop, tmp_path, subdir="store"):
    d = tmp_path / subdir
    with TileCache(tile_logs, small_pop.n_persons, cache_dir=d) as cache:
        cache.query_window(0, 336)  # persist every base tile + merges
    return d


def tile_files(store):
    return sorted(p for p in store.glob("tile_*.npz"))


class TestQuarantine:
    def test_flipped_bits_quarantined_and_rebuilt_bit_identical(
        self, tile_logs, small_pop, tmp_path
    ):
        store = make_store(tile_logs, small_pop, tmp_path)
        victim = tile_files(store)[0]
        raw = bytearray(victim.read_bytes())
        mid = len(raw) // 2
        raw[mid] ^= 0xFF
        victim.write_bytes(bytes(raw))

        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store, budget_nnz=1
        ) as cache:
            # the corrupted base tile's own window forces its load
            net = cache.query_window(0, 24)
            ref = direct(tile_logs, small_pop.n_persons, 0, 24)
            assert_bit_identical(net.adjacency, ref.adjacency)
            assert cache.stats.tiles_quarantined == 1
            assert any(
                "crc mismatch" in entry for entry in cache.quarantined_tiles
            )
            # and the full window still composes bit-identically
            net = cache.query_window(0, 336)
            ref = direct(tile_logs, small_pop.n_persons, 0, 336)
            assert_bit_identical(net.adjacency, ref.adjacency)
        # evidence preserved, live name freed for the rebuilt tile
        assert victim.with_name(victim.name + ".quarantined").is_file()
        assert victim.is_file()  # re-persisted clean
        # the rewritten manifest CRC matches the rebuilt file
        manifest = json.loads((store / TILE_MANIFEST).read_text())
        entries = {
            e["file"]: e["crc"] for e in manifest["tiles"].values()
        }
        assert entries[victim.name] == zlib.crc32(victim.read_bytes())

    def test_truncated_tile_quarantined_and_rebuilt(
        self, tile_logs, small_pop, tmp_path
    ):
        store = make_store(tile_logs, small_pop, tmp_path)
        victim = tile_files(store)[1]  # base tile [24, 48)
        raw = victim.read_bytes()
        victim.write_bytes(raw[: len(raw) // 3])  # torn write

        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store, budget_nnz=1
        ) as cache:
            net = cache.query_window(24, 48)
            ref = direct(tile_logs, small_pop.n_persons, 24, 48)
            assert_bit_identical(net.adjacency, ref.adjacency)
            assert cache.stats.tiles_quarantined == 1

    def test_missing_tile_file_quarantined_as_unreadable(
        self, tile_logs, small_pop, tmp_path
    ):
        store = make_store(tile_logs, small_pop, tmp_path)
        victim = tile_files(store)[0]
        victim.unlink()

        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store, budget_nnz=1
        ) as cache:
            # adoption skips entries whose file vanished, so the tile is
            # simply rebuilt; no damage is ever served either way
            net = cache.query_window(0, 24)
            ref = direct(tile_logs, small_pop.n_persons, 0, 24)
            assert_bit_identical(net.adjacency, ref.adjacency)
            assert cache.stats.tiles_built >= 1

    def test_every_tile_corrupted_still_answers_bit_identical(
        self, tile_logs, small_pop, tmp_path
    ):
        store = make_store(tile_logs, small_pop, tmp_path)
        n = len(tile_files(store))
        for victim in tile_files(store):
            raw = bytearray(victim.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            victim.write_bytes(bytes(raw))

        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store, budget_nnz=1
        ) as cache:
            net = cache.query_window(0, 336)
            ref = direct(tile_logs, small_pop.n_persons, 0, 336)
            assert_bit_identical(net.adjacency, ref.adjacency)
            assert cache.stats.tiles_quarantined == n

    def test_quarantined_tile_repersists_and_next_open_is_clean(
        self, tile_logs, small_pop, tmp_path
    ):
        store = make_store(tile_logs, small_pop, tmp_path)
        victim = tile_files(store)[0]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))

        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store, budget_nnz=1
        ) as cache:
            cache.query_window(0, 24)
            assert cache.stats.tiles_quarantined == 1
        # the rebuilt tile was re-persisted with a fresh CRC: a new cache
        # adopts the store with nothing left to heal
        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store, budget_nnz=1
        ) as cache:
            net = cache.query_window(0, 24)
            ref = direct(tile_logs, small_pop.n_persons, 0, 24)
            assert_bit_identical(net.adjacency, ref.adjacency)
            assert cache.stats.tiles_quarantined == 0
            assert cache.stats.disk_hits > 0


def unsorted_row(arrays):
    indptr, indices, data = arrays["indptr"], arrays["indices"], arrays["data"]
    r = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
    a = indptr[r]
    indices[a : a + 2] = indices[a : a + 2][::-1].copy()
    data[a : a + 2] = data[a : a + 2][::-1].copy()


def diagonal_entry(arrays):
    indptr, indices = arrays["indptr"], arrays["indices"]
    r = int(np.flatnonzero(np.diff(indptr) >= 1)[0])
    indices[indptr[r]] = r  # still ascending: the first column was above r


def wrong_shape(arrays):
    arrays["shape"] = arrays["shape"] + 1
    arrays["indptr"] = np.append(arrays["indptr"], arrays["indptr"][-1])


def float_values(arrays):
    arrays["data"] = arrays["data"].astype(np.float64)


def rewrite_tile(store, victim, damage):
    """Damage a persisted tile's matrix and re-record its CRC, so only the
    load-time precondition can catch it."""
    with np.load(victim) as z:
        arrays = {name: z[name].copy() for name in z.files}
    damage(arrays)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    raw = buf.getvalue()
    victim.write_bytes(raw)
    manifest_path = store / TILE_MANIFEST
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["tiles"].values():
        if entry["file"] == victim.name:
            entry["crc"] = zlib.crc32(raw)
    manifest_path.write_text(json.dumps(manifest))


class TestMalformedTile:
    @pytest.mark.parametrize(
        "damage", [unsorted_row, diagonal_entry, wrong_shape, float_values]
    )
    def test_crc_valid_malformed_tile_is_quarantined_and_rebuilt(
        self, tile_logs, small_pop, tmp_path, damage
    ):
        store = make_store(tile_logs, small_pop, tmp_path)
        victim = store / "tile_L00_00000000.npz"  # base tile [0, 24)
        rewrite_tile(store, victim, damage)

        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store, budget_nnz=1
        ) as cache:
            net = cache.query_window(0, 24)
            ref = direct(tile_logs, small_pop.n_persons, 0, 24)
            assert_bit_identical(net.adjacency, ref.adjacency)
            assert cache.stats.tiles_quarantined == 1
            assert any("malformed" in e for e in cache.quarantined_tiles)
            net = cache.query_window(0, 336)
            ref = direct(tile_logs, small_pop.n_persons, 0, 336)
            assert_bit_identical(net.adjacency, ref.adjacency)
        assert victim.with_name(victim.name + ".quarantined").is_file()


class TestManifestVersioning:
    def test_v1_manifest_without_crcs_is_discarded_as_stale(
        self, tile_logs, small_pop, tmp_path
    ):
        store = make_store(tile_logs, small_pop, tmp_path)
        manifest_path = store / TILE_MANIFEST
        manifest = json.loads(manifest_path.read_text())
        # rewrite as a v1 store: bare filename entries, no CRCs
        manifest["version"] = 1
        manifest["tiles"] = {
            k: e["file"] for k, e in manifest["tiles"].items()
        }
        manifest_path.write_text(json.dumps(manifest))

        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            assert cache.stats.invalidated > 0
            assert not tile_files(store)  # v1 files unlinked wholesale
            net = cache.query_window(0, 48)
            ref = direct(tile_logs, small_pop.n_persons, 0, 48)
            assert_bit_identical(net.adjacency, ref.adjacency)

    def test_v2_entry_missing_crc_is_not_adopted(
        self, tile_logs, small_pop, tmp_path
    ):
        store = make_store(tile_logs, small_pop, tmp_path)
        manifest_path = store / TILE_MANIFEST
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["tiles"].values():
            entry.pop("crc")
        manifest_path.write_text(json.dumps(manifest))

        with TileCache(
            tile_logs, small_pop.n_persons, cache_dir=store
        ) as cache:
            # nothing adopted: every query rebuilds (no disk hits), but
            # answers stay correct
            net = cache.query_window(0, 48)
            ref = direct(tile_logs, small_pop.n_persons, 0, 48)
            assert_bit_identical(net.adjacency, ref.adjacency)
            assert cache.stats.disk_hits == 0
