"""Temporal tile cache: composable partial adjacencies for window queries.

The paper builds the complete network by summing per-interval adjacency
matrices ("the adjacency matrices are simply summed"), which makes
collocation adjacency **additive over any disjoint time partition**: a
spell ``[s, e)`` contributes ``min(e, t1) - max(s, t0)`` collocated hours
to window ``[t0, t1)``, and splitting the window at any interior point
splits that contribution exactly.  Every partial sum is an exact integer,
and every partial adjacency canonicalizes through the same coo→csr
summation, so composing partials is *bit-identical* (same CSR
``data``/``indices``/``indptr``) to a direct synthesis of the same
window.

This module exploits that additivity to serve many overlapping or sliding
window queries without re-reading records per query:

* time is cut into **base tiles** of ``tile_hours`` (default 24 h); tile
  ``i`` covers ``[i·T, (i+1)·T)`` and stores the partial adjacency of
  exactly that span, built once from the records;
* base tiles are merged **segment-tree style** into power-of-two spans:
  node ``(level, i)`` covers ``2^level`` base tiles starting at tile
  ``i·2^level`` and is the sum of its two children.  Any aligned tile
  range decomposes into O(log W) cached nodes (the canonical segment-tree
  cover), so a query touches logarithmically many partials regardless of
  window length;
* an arbitrary ``[t0, t1)`` query composes that cover plus **fringe
  corrections** — partials for the two unaligned edge spans
  ``[t0, ceil(t0/T)·T)`` and ``[floor(t1/T)·T, t1)`` — computed from
  records only in those edge hours.  Fringe partials are cached in the
  same LRU (keyed by their exact window, memory-only), so a repeated
  unaligned query re-reads no records at all;
* composition is a pairwise CSR sum: exact integer addition of canonical
  upper-triangular matrices, whose canonical result is unique — hence
  bit-identical to the one-shot accumulation the direct pipeline does.

Resource management
-------------------
Tiles live in an LRU dict with **nnz-based accounting** against an
optional ``budget_nnz``; least-recently-used tiles are evicted first and
rebuilt (or re-read from disk) on demand, so cache memory never exceeds
the budget.  With a ``cache_dir``, every built tile is also persisted as
an atomic ``.npz`` beside a manifest keyed by a **content digest of the
log set** (file names, sizes, and byte contents of every usable file,
plus the population size, tile size, and place filter).  Rewriting a log
— ``repro repair`` / :func:`~repro.evlog.multifile.salvage_rank_logs`,
or any regeneration — changes the digest, and a cache opened against the
new digest discards every stale tile before rebuilding.

Persisted tiles are **self-healing**: every tile file's CRC32 is
recorded in the manifest at write time, and a tile whose bytes no longer
match on load — torn write, bit rot, truncation, manual damage — is
*quarantined* (renamed aside with a ``.quarantined`` suffix, dropped
from the manifest, counted in ``stats.tiles_quarantined``) and rebuilt
from the logs transparently.  Answers stay bit-identical; only that one
query's latency degrades to a rebuild.

Tile construction runs through the
:class:`~repro.distrib.taskpool.WorkerPool` machinery — one task per
tile, batched per query — and every task is the builder a shard of
:func:`~repro.distrib.shardsynth.shard_synthesize` runs
(:func:`~repro.core.intervals.window_partial`).  The cache opens, verifies
and digests each file **once, through one held reader**, and builds every
tile through that reader: a log file deleted or replaced under a live
cache cannot leak into a tile keyed by the old digest.

Concurrency
-----------
A cache may be shared by concurrent reader threads (the network-query
service runs queries from an executor).  All cache state — the LRU dict
and its nnz accounting, the fringe partials, the mmap reader table, the
persisted-store manifest, and the stats counters — is guarded by one
reentrant lock, held while a query plans its cover and acquires (or
builds) every partial it needs.  The final composition runs *outside*
the lock on the acquired references: cached matrices are immutable, and
:func:`_sum_parts` never aliases its inputs, so a tile evicted by a
racing query stays valid for the composition that already holds it.
Eviction, warm-up, persistence, and ``close()`` all take the same lock,
which is what makes LRU bookkeeping safe while queries race.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .._util import StageTimings, Timer, atomic_write_bytes
from ..obs import get_probe, record_kernel_timings, start_span
from ..errors import LogFormatError, TileCacheError
from ..evlog.multifile import LogSet
from ..evlog.reader import LogReader, publish_walk_stats
from ..distrib.taskpool import TaskPool, WorkerPool
from .adjacency import empty_adjacency
from .intervals import window_partial
from .kernels import collect_kernel_timings
from .network import CollocationNetwork

__all__ = [
    "TileCache",
    "TileCacheStats",
    "logset_digest",
    "TILE_MANIFEST",
]

TILE_MANIFEST = "tiles.json"
#: v2 adds a per-tile CRC32 to the manifest (self-healing quarantine);
#: v1 stores carry no checksums and are discarded as stale on open
_TILE_VERSION = 2
_DEFAULT_TILE_HOURS = 24
_HASH_CHUNK = 1 << 20


def logset_digest(
    paths: Sequence[str | Path], readers: "dict[Path, LogReader] | None" = None
) -> str:
    """Content digest of a set of log files (names, sizes, and bytes).

    Any rewrite of a file — salvage after a crash, regeneration, manual
    edit — changes the digest, which is what keys persisted tiles to the
    exact log bytes they were computed from.  A path with an open reader
    in *readers* is hashed through that reader's buffer — the bytes its
    tiles will be built from — instead of being read again.
    """
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode())
        reader = readers.get(path) if readers else None
        if reader is not None:
            h.update(reader.file_bytes.to_bytes(8, "little"))
            h.update(reader._buf)
            continue
        h.update(int(path.stat().st_size).to_bytes(8, "little"))
        with path.open("rb") as fh:
            while True:
                block = fh.read(_HASH_CHUNK)
                if not block:
                    break
                h.update(block)
    return h.hexdigest()


@dataclass
class TileCacheStats:
    """Observability for one cache's lifetime."""

    queries: int = 0
    #: cover nodes served from the in-memory LRU
    tile_hits: int = 0
    #: fringe partials served from the in-memory LRU
    fringe_hits: int = 0
    #: tiles reloaded from the persisted store
    disk_hits: int = 0
    #: base tiles built from records
    tiles_built: int = 0
    #: upper-level nodes produced by summing their two children
    tiles_merged: int = 0
    #: tiles dropped by the LRU to stay under the nnz budget
    evictions: int = 0
    #: persisted tiles discarded because their digest went stale
    invalidated: int = 0
    #: persisted tiles quarantined on load (CRC mismatch / torn file)
    #: and transparently rebuilt from records
    tiles_quarantined: int = 0
    #: hours covered by record-level fringe synthesis (unaligned edges)
    fringe_hours: int = 0
    timings: StageTimings = field(
        default_factory=lambda: StageTimings(scope="cache")
    )

    def summary(self) -> str:
        lines = [
            f"queries          {self.queries:>10,}",
            f"tile hits        {self.tile_hits:>10,}",
            f"fringe hits      {self.fringe_hits:>10,}",
            f"disk hits        {self.disk_hits:>10,}",
            f"tiles built      {self.tiles_built:>10,}",
            f"tiles merged     {self.tiles_merged:>10,}",
            f"evictions        {self.evictions:>10,}",
            f"invalidated      {self.invalidated:>10,}",
            f"quarantined      {self.tiles_quarantined:>10,}",
            f"fringe hours     {self.fringe_hours:>10,}",
            "--- timings ---",
            self.timings.report(),
        ]
        return "\n".join(lines)


def _window_task(
    args: "tuple[list[LogReader], int, int, int, np.ndarray | None]",
) -> tuple[sp.csr_matrix, list[dict], dict]:
    """Worker: one window's partial adjacency over the cache's held
    readers (:func:`~repro.core.intervals.window_partial`).  A file
    rewritten in place under its reader fails the task rather than leak
    bytes the cache's digest does not cover.  Returns the canonical
    upper-triangular CSR partial, the walks' stats and the kernel stage
    times.
    """
    readers, t0, t1, n_persons, place_mask = args
    partial, _n, walks = window_partial(readers, t0, t1, n_persons, place_mask)
    for reader in readers:
        if reader.rewritten_in_place():
            raise TileCacheError(
                f"{reader.path} was rewritten under a live tile cache; "
                "reload it"
            )
    return partial, walks, collect_kernel_timings()


def _open_verified(path: Path) -> LogReader:
    """A held mmap reader over a file verified end to end (strict open,
    every chunk decoded); closed again if the file is damaged."""
    reader = LogReader(path, strict=True, use_mmap=True)
    try:
        reader.verify()
    except BaseException:
        reader.close()
        raise
    return reader


def _tile_cost(mat: sp.csr_matrix) -> int:
    """LRU accounting unit: stored nonzeros (floor 1, so empty tiles still
    occupy a slot and cannot flood the cache for free)."""
    return max(int(mat.nnz), 1)


def _sum_parts(parts: list[sp.csr_matrix], n_persons: int) -> sp.csr_matrix:
    """Exact pairwise sum of canonical upper-triangular CSR partials.

    Integer addition of canonical CSR matrices yields the canonical CSR of
    the sum, and the canonical form of a matrix is unique — so this is
    bit-identical to the one-shot coo-concat accumulation the direct
    pipeline uses, while skipping its O(nnz log nnz) re-sort.  The result
    never aliases an input (cached tiles stay immutable).
    """
    if not parts:
        return empty_adjacency(n_persons)
    out = parts[0]
    for part in parts[1:]:
        out = out + part
    if out is parts[0]:
        out = out.copy()
    return out


class TileCache:
    """Precomputed composable partial adjacencies over a log directory.

    Parameters
    ----------
    log_dir:
        Per-rank EVL directory (or an existing :class:`LogSet`).
    n_persons:
        Population size (matrix dimension, fixed per cache).
    tile_hours:
        Base tile width in simulation hours (default 24).
    budget_nnz:
        In-memory LRU budget in stored nonzeros across all cached tiles;
        ``None`` (default) means unbounded.
    cache_dir:
        Directory for persisted tiles.  Opened against a stale content
        digest, every persisted tile is discarded before rebuilding.
    pool:
        Worker pool for tile construction; default a one-worker
        :class:`~repro.distrib.taskpool.TaskPool` (owned, closed with
        the cache).
    strict:
        When False (default), damaged log files are quarantined exactly
        like the batch pipeline; when True the first damaged file raises.
    place_mask:
        Optional boolean array over place ids; only records at admitted
        places contribute (the layer-synthesis hook).  Part of the digest.
    """

    def __init__(
        self,
        log_dir: str | Path | LogSet,
        n_persons: int,
        tile_hours: int = _DEFAULT_TILE_HOURS,
        budget_nnz: int | None = None,
        cache_dir: str | Path | None = None,
        pool: WorkerPool | None = None,
        strict: bool = False,
        place_mask: np.ndarray | None = None,
    ) -> None:
        if n_persons <= 0:
            raise TileCacheError("n_persons must be positive")
        if tile_hours <= 0:
            raise TileCacheError("tile_hours must be positive")
        if budget_nnz is not None and budget_nnz < 1:
            raise TileCacheError("budget_nnz must be positive (or None)")
        self.log_set = log_dir if isinstance(log_dir, LogSet) else LogSet(log_dir)
        self.n_persons = int(n_persons)
        self.tile_hours = int(tile_hours)
        self.budget_nnz = budget_nnz
        self.place_mask = (
            np.asarray(place_mask, dtype=bool) if place_mask is not None else None
        )
        self.stats = TileCacheStats()

        # every file is opened once, here: the same held reader is
        # verified, digested, and later walked for every tile.  The
        # quarantine verdict is per file and window-independent, mirroring
        # the batch pipeline: a damaged file never contributes to any tile
        self._readers: dict[Path, LogReader] = {}
        self.quarantined: list[str] = []
        for path in self.log_set.paths:
            try:
                self._readers[path] = _open_verified(path)
            except LogFormatError:
                if strict:
                    self._close_readers()
                    raise
                self.quarantined.append(str(path))
        self.paths: list[Path] = list(self._readers)

        self.digest = self._config_digest()
        self._own_pool = pool is None
        self.pool = pool or TaskPool()
        #: one reentrant lock guards all mutable cache state (LRU dict,
        #: nnz accounting, readers, persisted manifest, stats); immutable
        #: cached matrices are composed outside it — see module docstring
        self._lock = threading.RLock()
        #: LRU over tree nodes ``(level, idx)`` and fringe partials
        #: ``("F", w0, w1)`` — one nnz budget governs both
        self._tiles: "OrderedDict[tuple, sp.csr_matrix]" = OrderedDict()
        self._cached_nnz = 0
        #: persisted-tile index: key -> {"file": name, "crc": crc32}
        self._disk: dict[tuple[int, int], dict] = {}
        #: tile files quarantined this lifetime (corrupt/torn on load)
        self.quarantined_tiles: list[str] = []
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self._cache_dir is not None:
            self._open_store()
        self._closed = False

    # -- digest / persisted store ---------------------------------------------

    def _config_digest(self) -> str:
        """Digest of everything a tile's contents depend on."""
        payload = {
            "version": _TILE_VERSION,
            "logset": logset_digest(self.paths, self._readers),
            "quarantined": sorted(Path(p).name for p in self.quarantined),
            "n_persons": self.n_persons,
            "tile_hours": self.tile_hours,
            "place_mask": (
                hashlib.sha256(np.packbits(self.place_mask).tobytes()).hexdigest()
                if self.place_mask is not None
                else None
            ),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def _open_store(self) -> None:
        """Adopt a persisted tile store, discarding it on digest mismatch."""
        assert self._cache_dir is not None
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self._cache_dir / TILE_MANIFEST
        if not manifest_path.is_file():
            return
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            manifest = None
        stale = (
            manifest is None
            or manifest.get("version") != _TILE_VERSION
            or manifest.get("digest") != self.digest
        )
        tiles = (manifest or {}).get("tiles", {})
        if stale:
            for entry in tiles.values():
                # v1 manifests map to bare file names, v2 to objects
                fname = entry["file"] if isinstance(entry, dict) else entry
                try:
                    (self._cache_dir / fname).unlink()
                except (OSError, TypeError, KeyError):
                    pass
            try:
                manifest_path.unlink()
            except OSError:
                pass
            self.stats.invalidated += len(tiles)
            get_probe().cache_event("invalidated", len(tiles))
            return
        for key_str, entry in tiles.items():
            level_str, _, idx_str = key_str.partition(":")
            if (
                isinstance(entry, dict)
                and isinstance(entry.get("crc"), int)
                and (self._cache_dir / entry["file"]).is_file()
            ):
                self._disk[(int(level_str), int(idx_str))] = entry

    def _write_manifest(self) -> None:
        assert self._cache_dir is not None
        manifest = {
            "version": _TILE_VERSION,
            "digest": self.digest,
            "tile_hours": self.tile_hours,
            "n_persons": self.n_persons,
            "tiles": {
                f"{level}:{idx}": entry
                for (level, idx), entry in sorted(self._disk.items())
            },
        }
        atomic_write_bytes(
            self._cache_dir / TILE_MANIFEST,
            json.dumps(manifest, indent=2, sort_keys=True).encode(),
        )

    def _persist(self, key: tuple[int, int], mat: sp.csr_matrix) -> None:
        if self._cache_dir is None or key in self._disk:
            return
        level, idx = key
        fname = f"tile_L{level:02d}_{idx:08d}.npz"
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            data=mat.data,
            indices=mat.indices,
            indptr=mat.indptr,
            shape=np.array(mat.shape, dtype=np.int64),
        )
        data = buf.getvalue()
        atomic_write_bytes(self._cache_dir / fname, data)
        self._disk[key] = {"file": fname, "crc": zlib.crc32(data)}
        self._write_manifest()

    def _quarantine_tile(self, key: tuple[int, int], reason: str) -> None:
        """Move a damaged persisted tile aside and forget it.

        The file is renamed (never deleted — an operator may want the
        evidence) and the manifest rewritten without it, so the next
        :meth:`_persist` of the rebuilt tile starts from a clean name.
        """
        assert self._cache_dir is not None
        entry = self._disk.pop(key, None)
        if entry is None:
            return
        path = self._cache_dir / entry["file"]
        try:
            path.replace(path.with_name(path.name + ".quarantined"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self._write_manifest()
        self.stats.tiles_quarantined += 1
        get_probe().cache_event("quarantined")
        self.quarantined_tiles.append(f"{path} ({reason})")

    def _load_disk(self, key: tuple[int, int]) -> sp.csr_matrix | None:
        """A persisted tile, or ``None`` after quarantining a bad one.

        Every load re-verifies the manifest CRC over the file's bytes, so
        corruption *anywhere* in the npz (torn write, flipped bits,
        truncation) is detected before the matrix is trusted; the caller
        falls through to a transparent rebuild from records.
        """
        assert self._cache_dir is not None
        entry = self._disk[key]
        try:
            raw = (self._cache_dir / entry["file"]).read_bytes()
        except OSError:
            self._quarantine_tile(key, "unreadable")
            return None
        if zlib.crc32(raw) != entry["crc"]:
            self._quarantine_tile(key, "crc mismatch")
            return None
        try:
            with np.load(io.BytesIO(raw)) as z:
                return sp.csr_matrix(
                    (z["data"], z["indices"], z["indptr"]),
                    shape=tuple(z["shape"]),
                )
        except (OSError, KeyError, ValueError, zlib.error):
            # CRC matched but the archive will not decode — treat it the
            # same way: quarantine and rebuild
            self._quarantine_tile(key, "undecodable")
            return None

    # -- LRU ------------------------------------------------------------------

    @property
    def cached_nnz(self) -> int:
        """Current in-memory accounting total (≤ ``budget_nnz`` always)."""
        return self._cached_nnz

    @property
    def n_tiles_cached(self) -> int:
        return len(self._tiles)

    def _insert(self, key: tuple[int, int], mat: sp.csr_matrix) -> None:
        if key in self._tiles:
            self._tiles.move_to_end(key)
            return
        self._tiles[key] = mat
        self._cached_nnz += _tile_cost(mat)
        if self.budget_nnz is not None:
            while self._cached_nnz > self.budget_nnz and self._tiles:
                _k, dropped = self._tiles.popitem(last=False)
                self._cached_nnz -= _tile_cost(dropped)
                self.stats.evictions += 1
                get_probe().cache_event("evicted")

    # -- record access --------------------------------------------------------

    def _build_windows(
        self, windows: list[tuple[int, int]]
    ) -> list[sp.csr_matrix]:
        """Build the partial adjacency of each window, one pool task each."""
        if not windows:
            return []
        readers = list(self._readers.values())
        with start_span("kernel", attrs={"windows": len(windows)}) as span:
            with self.stats.timings.time("build"):
                built = self.pool.map(
                    _window_task,
                    [
                        (readers, w0, w1, self.n_persons, self.place_mask)
                        for w0, w1 in windows
                    ],
                )
            for _mat, walks, times in built:
                for walk in walks:
                    publish_walk_stats(walk)
                record_kernel_timings(times)
            mats = [mat for mat, _walks, _times in built]
            span.set_attr("nnz", sum(int(m.nnz) for m in mats))
            return mats

    # -- segment tree ---------------------------------------------------------

    def _cover(self, a0: int, a1: int) -> list[tuple[int, int]]:
        """Canonical segment-tree cover of base-tile range ``[a0, a1)``:
        maximal power-of-two spans aligned to their own size, O(log W)."""
        spans: list[tuple[int, int]] = []
        p = a0
        while p < a1:
            k = (p & -p).bit_length() - 1 if p else (a1 - p).bit_length() - 1
            while (1 << k) > a1 - p:
                k -= 1
            spans.append((k, p >> k))
            p += 1 << k
        return spans

    def _available(self, key: tuple[int, int]) -> bool:
        return key in self._tiles or key in self._disk

    def _collect_missing_base(
        self, level: int, idx: int, out: list[int]
    ) -> None:
        """Base tiles under node ``(level, idx)`` with no cached ancestor
        at or below the node itself."""
        if self._available((level, idx)):
            return
        if level == 0:
            out.append(idx)
            return
        self._collect_missing_base(level - 1, 2 * idx, out)
        self._collect_missing_base(level - 1, 2 * idx + 1, out)

    def _get_tile(self, level: int, idx: int) -> sp.csr_matrix:
        key = (level, idx)
        mat = self._tiles.get(key)
        if mat is not None:
            self._tiles.move_to_end(key)
            self.stats.tile_hits += 1
            get_probe().cache_event("tile_hit")
            return mat
        if key in self._disk:
            mat = self._load_disk(key)
            if mat is not None:
                self.stats.disk_hits += 1
                get_probe().cache_event("disk_hit")
                self._persist(key, mat)
                self._insert(key, mat)
                return mat
        if level == 0:
            w0 = idx * self.tile_hours
            (mat,) = self._build_windows([(w0, w0 + self.tile_hours)])
            self.stats.tiles_built += 1
            get_probe().cache_event("built")
        else:
            left = self._get_tile(level - 1, 2 * idx)
            right = self._get_tile(level - 1, 2 * idx + 1)
            with self.stats.timings.time("merge"):
                mat = _sum_parts([left, right], self.n_persons)
            self.stats.tiles_merged += 1
            get_probe().cache_event("merged")
        self._persist(key, mat)
        self._insert(key, mat)
        return mat

    def _materialize_base(self, indices: list[int]) -> None:
        """Batch-build missing base tiles through one parallel map."""
        missing = sorted(
            {i for i in indices if not self._available((0, i))}
        )
        if not missing:
            return
        T = self.tile_hours
        mats = self._build_windows([(i * T, (i + 1) * T) for i in missing])
        for i, mat in zip(missing, mats):
            self.stats.tiles_built += 1
            get_probe().cache_event("built")
            self._persist((0, i), mat)
            self._insert((0, i), mat)

    # -- public API -----------------------------------------------------------

    def warm(self, t0: int, t1: int) -> int:
        """Prebuild every tile a query inside ``[t0, t1)`` can touch.

        Base tiles covering the span are constructed in parallel (one pool
        task each), then the segment-tree cover of the span is merged so
        large-window queries hit cached upper levels too.  Returns the
        number of base tiles built.
        """
        if t1 <= t0:
            raise TileCacheError(f"empty warm span [{t0}, {t1})")
        with self._lock:
            self._check_open()
            T = self.tile_hours
            a0, a1 = t0 // T, -(-t1 // T)
            built_before = self.stats.tiles_built
            cover = self._cover(a0, a1)
            missing: list[int] = []
            for level, idx in cover:
                self._collect_missing_base(level, idx, missing)
            self._materialize_base(missing)
            for level, idx in cover:
                self._get_tile(level, idx)
            return self.stats.tiles_built - built_before

    def query_window(self, t0: int, t1: int) -> CollocationNetwork:
        """The collocation network of ``[t0, t1)``, composed from tiles.

        Bit-identical (same CSR ``data``/``indices``/``indptr``) to
        ``synthesize_from_logs`` over the same window and log directory.
        Aligned spans come from O(log W) cached tiles; unaligned edges are
        corrected from records in the two edge spans only, and those
        fringe partials are themselves cached so a repeated query touches
        no records.
        """
        if t1 <= t0:
            raise TileCacheError(f"empty query window [{t0}, {t1})")
        if t0 < 0:
            raise TileCacheError("query windows start at hour 0")
        with self._lock:
            self._check_open()
            T = self.tile_hours
            a0, a1 = -(-t0 // T), t1 // T
            plan: list[tuple] = []
            if a0 >= a1:
                # no whole tile inside the window: one fringe covers it
                plan.append(("fringe", t0, t1))
            else:
                if t0 < a0 * T:
                    plan.append(("fringe", t0, a0 * T))
                plan.extend(
                    ("tile", level, idx) for level, idx in self._cover(a0, a1)
                )
                if a1 * T < t1:
                    plan.append(("fringe", a1 * T, t1))

            missing: list[int] = []
            fringe_parts: dict[tuple[int, int], sp.csr_matrix] = {}
            to_build: list[tuple[int, int]] = []
            for entry in plan:
                if entry[0] == "tile":
                    self._collect_missing_base(entry[1], entry[2], missing)
                    continue
                window = (entry[1], entry[2])
                cached = self._tiles.get(("F", *window))
                if cached is not None:
                    self._tiles.move_to_end(("F", *window))
                    self.stats.fringe_hits += 1
                    get_probe().cache_event("fringe_hit")
                    fringe_parts[window] = cached
                else:
                    to_build.append(window)
            self._materialize_base(missing)
            for window, mat in zip(to_build, self._build_windows(to_build)):
                fringe_parts[window] = mat
                self._insert(("F", *window), mat)
            self.stats.fringe_hours += sum(w1 - w0 for w0, w1 in to_build)

            parts: list[sp.csr_matrix] = []
            for entry in plan:
                if entry[0] == "tile":
                    parts.append(self._get_tile(entry[1], entry[2]))
                else:
                    parts.append(fringe_parts[(entry[1], entry[2])])
            self.stats.queries += 1
            get_probe().cache_event("query")

        # compose outside the lock: every part is an immutable matrix this
        # thread holds a reference to, so racing evictions cannot hurt it
        with Timer() as timer:
            adjacency = _sum_parts(parts, self.n_persons)
        with self._lock:
            self.stats.timings.add("reduce", timer.elapsed)
        return CollocationNetwork(adjacency, t0=int(t0), t1=int(t1))

    def horizon(self) -> int:
        """Last simulation hour any usable log record reaches (chunk-index
        metadata only — no record decode).  0 with no records."""
        with self._lock:
            self._check_open()
            t_max = 0
            for path in self.paths:
                for chunk in self._readers[path].chunks:
                    t_max = max(t_max, int(chunk.t_max))
            return t_max

    def close(self) -> None:
        """Release mmapped readers and the owned pool (idempotent).

        Takes the cache lock, so a close never yanks readers out from
        under a query that is still acquiring tiles; compositions already
        past acquisition only touch in-memory matrices and finish safely.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._close_readers()
            if self._own_pool:
                self.pool.close()

    def _close_readers(self) -> None:
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise TileCacheError("tile cache is closed")

    def __enter__(self) -> "TileCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"TileCache(files={len(self.paths)}, tile_hours={self.tile_hours}, "
            f"tiles={self.n_tiles_cached}, nnz={self.cached_nnz:,})"
        )
