"""The interval pack: how records become an adjacency.

The paper's per-hour formulation (:mod:`repro.core.colloc`, kept as the
test-side oracle) materializes one presence nonzero per *person-hour*: a
record ``[start, stop)`` costs ``stop-start`` matrix entries, so the same
log records cost ~28x more to process over a 4-week window than over a
1-day window.  This module computes pairwise collocated hours directly
from the ``[start, stop)`` spells instead:

* per place, the union of all record start/stop times defines **elementary
  segments** — maximal intervals during which the set of present persons
  cannot change.  A record spans whole segments, so presence becomes a
  binary ``persons x segments`` matrix ``Y`` whose column count is bounded
  by ``2 x records`` (and by the window length), never by the window alone;
* pairwise collocated hours are ``A = (Y . diag(seg_len)) . Y^T`` — the
  per-hour matrix product of the oracle with all hours during which
  nothing changes coalesced into a single weighted column.  The result is
  **bit-for-bit identical** to the oracle's ``x . x^T`` because both
  count the same integer person-hours.

Complexity drops from O(person-hours) to O(records + pair overlaps),
independent of window length.

The unit of work is an :class:`IntervalPack` covering *many* places at
once: columns of all places live side by side in one sparse matrix
(cross-place products are structurally zero, so one matmul equals the sum
of per-place products).  This removes the per-place Python/scipy call
overhead that dominates the per-hour formulation at realistic place
counts — building and multiplying are vectorized across places.

Both steps — records to pack, pack to adjacency — run one way: the C
kernel (:mod:`repro.core.kernels.masked`) when the extension loaded and
the input fits its layout, else the numpy/scipy body right below the
call, bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .._util import StageTimings
from ..errors import LogFormatError, SynthesisError
from ..evlog.reader import LogReader, read_window_columns
from ..evlog.schema import LOG_DTYPE, LogRecordArray
from .adjacency import accumulate_adjacency, empty_adjacency
from .colloc import _expand_intervals
from .kernels.masked import build_pack_arrays, sum_shares_adjacency
from .kernels.workspace import count_twin, kernel_stage
from .slicing import mask_place_columns

__all__ = [
    "IntervalPack",
    "build_interval_pack",
    "build_interval_pack_columns",
    "select_pack_places",
    "merge_packs",
    "merge_duplicate_places",
    "file_pack",
    "fold_packs",
    "window_partial",
    "sum_pack_adjacency",
]

_TIME_MASK = np.uint64(0xFFFFFFFF)
_PLACE_SHIFT = np.uint64(32)


@dataclass
class IntervalPack:
    """Presence over elementary segments for a set of places.

    Attributes
    ----------
    places:
        sorted unique place ids covered by this pack.
    place_work:
        per place, the estimated pairwise-product work
        ``sum(col_count^2)`` over its segments — the weight
        :func:`~repro.distrib.shardsynth.plan_shards` balances shards with.
    place_hours:
        per place, total person-hours of presence (report bookkeeping;
        equals the per-hour formulation's presence nnz for the place).
    col_place, col_start, col_weight:
        per matrix column: owning place id, absolute segment start hour,
        and segment length in hours.  Columns are ordered by
        ``(place, start)`` and each place's segments tile its boundary
        span contiguously.
    persons:
        sorted unique global person ids with any presence (row map).
    matrix:
        binary CSR ``(len(persons), n_columns)``; entry ``(i, c)`` set
        when ``persons[i]`` was present during segment ``c``.
    t0, t1:
        the absolute-time slice this pack covers.
    """

    places: np.ndarray
    place_work: np.ndarray
    place_hours: np.ndarray
    col_place: np.ndarray
    col_start: np.ndarray
    col_weight: np.ndarray
    persons: np.ndarray
    matrix: sp.csr_matrix
    t0: int
    t1: int

    @property
    def n_places(self) -> int:
        return len(self.places)

    @property
    def n_persons(self) -> int:
        return len(self.persons)

    @property
    def nnz(self) -> int:
        """Presence entries (person-segments), the pack's storage size."""
        return int(self.matrix.nnz)

    @property
    def person_hours(self) -> int:
        """Total person-hours of presence (= per-hour presence nnz)."""
        return int(self.place_hours.sum())

    @property
    def work(self) -> int:
        """Estimated pairwise-product work over all places."""
        return int(self.place_work.sum())


def _boundary_space(
    ukeys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a sorted unique ``(place << 32 | time)`` boundary-key array.

    Returns ``(place_of_boundary, time_of_boundary, rank_of_boundary,
    keep)`` where ``rank`` numbers each boundary's place (0-based, in
    sorted place order) and ``keep`` marks boundaries that open a segment
    (every boundary except each place's last).  The column index of a kept
    boundary ``b`` is ``b - rank[b]``: the boundaries before it contain
    exactly ``rank[b]`` closing (last-of-place) boundaries.
    """
    upl = (ukeys >> _PLACE_SHIFT).astype(np.int64)
    utime = (ukeys & _TIME_MASK).astype(np.int64)
    new_place = np.empty(len(ukeys), dtype=bool)
    new_place[0] = True
    np.not_equal(upl[1:], upl[:-1], out=new_place[1:])
    rank = np.cumsum(new_place) - 1
    keep = np.empty(len(ukeys), dtype=bool)
    keep[:-1] = new_place[1:]
    keep[-1] = True
    np.logical_not(keep, out=keep)
    return upl, utime, rank, keep


def _finish_pack(
    ukeys: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    persons: np.ndarray,
    t0: int,
    t1: int,
) -> IntervalPack:
    """Assemble a pack from boundary keys and (possibly duplicated)
    presence entries in local row / packed column coordinates."""
    upl, utime, rank, keep = _boundary_space(ukeys)
    place_ids = upl[np.flatnonzero(np.concatenate(([True], upl[1:] != upl[:-1])))]
    n_cols = len(ukeys) - len(place_ids)
    x = sp.coo_matrix(
        (np.ones(len(rows), dtype=np.uint32), (rows, cols)),
        shape=(len(persons), n_cols),
    ).tocsr()
    # a person logged twice for the same (place, segment) still counts once
    x.data[:] = 1
    col_place = upl[keep]
    col_start = utime[keep]
    col_weight = (utime[1:] - utime[:-1])[keep[:-1]]
    col_pidx = rank[keep]
    counts = np.bincount(x.indices, minlength=n_cols).astype(np.int64)
    first_col = np.flatnonzero(
        np.concatenate(([True], col_pidx[1:] != col_pidx[:-1]))
    )
    place_work = np.add.reduceat(counts * counts, first_col)
    place_hours = np.add.reduceat(counts * col_weight, first_col)
    return IntervalPack(
        places=place_ids,
        place_work=place_work,
        place_hours=place_hours,
        col_place=col_place,
        col_start=col_start,
        col_weight=col_weight,
        persons=persons,
        matrix=x,
        t0=int(t0),
        t1=int(t1),
    )


def build_interval_pack(
    records: LogRecordArray, t0: int, t1: int
) -> IntervalPack:
    """:func:`build_interval_pack_columns` for struct records (clipped to
    ``[t0, t1)``, any number of places, any order)."""
    records = np.asarray(records, dtype=LOG_DTYPE)
    if len(records) == 0:
        raise SynthesisError("cannot build an interval pack from no records")
    return build_interval_pack_columns(
        records["start"].astype(np.int64),
        records["stop"].astype(np.int64),
        records["person"].astype(np.int64),
        records["place"].astype(np.int64),
        t0,
        t1,
    )


def build_interval_pack_columns(
    starts: np.ndarray,
    stops: np.ndarray,
    person: np.ndarray,
    place: np.ndarray,
    t0: int,
    t1: int,
) -> IntervalPack:
    """Build the interval-overlap presence pack from record columns.

    Takes four int64 columns clipped to ``[t0, t1)``, covering any number
    of places in any order — what the log walk decodes mmap'd chunks
    straight into (:func:`~repro.evlog.reader.read_window_columns`).
    Fully vectorized: one boundary sort, one segment expansion, one
    COO->CSR conversion for all places together — in C when
    :func:`~repro.core.kernels.masked.build_pack_arrays` takes the input,
    in the numpy body below it otherwise; the pack is bit-identical.
    """
    if len(starts) == 0:
        raise SynthesisError("cannot build an interval pack from no records")
    if starts.min() < t0 or stops.max() > t1:
        raise SynthesisError("records extend outside the slice; clip first")
    if (stops <= starts).any():
        raise SynthesisError("a record covers no hour of the slice (stop <= start)")
    with kernel_stage("pack_build"):
        fields = build_pack_arrays(starts, stops, person, place, t0, t1)
        if fields is not None:
            return IntervalPack(t0=int(t0), t1=int(t1), **fields)
        count_twin("pack_build")
        placeu = place.astype(np.uint64)
        key_start = (placeu << _PLACE_SHIFT) | starts.astype(np.uint64)
        key_stop = (placeu << _PLACE_SHIFT) | stops.astype(np.uint64)
        ukeys, inv = np.unique(
            np.concatenate((key_start, key_stop)), return_inverse=True
        )
        inv = inv.reshape(-1)  # numpy >= 2.1 preserves input shape
        lo, hi = inv[: len(starts)], inv[len(starts) :]
        upl = (ukeys >> _PLACE_SHIFT).astype(np.int64)
        rank = np.cumsum(np.concatenate(([True], upl[1:] != upl[:-1]))) - 1
        # a record's boundaries belong to its own place: rank[lo] == rank[hi]
        rec_rows, cols = _expand_intervals(lo - rank[lo], hi - rank[hi])
        persons, local = np.unique(person, return_inverse=True)
        return _finish_pack(ukeys, local[rec_rows], cols, persons, t0, t1)


def select_pack_places(
    pack: IntervalPack, places: np.ndarray
) -> IntervalPack | None:
    """Restrict a pack to a subset of its places (columns + rows compacted).

    Returns ``None`` when the selection is empty.  Whole places are kept
    or dropped, so every surviving place's segment structure is unchanged.
    """
    places = np.asarray(places, dtype=np.int64)
    pmask = np.isin(pack.places, places)
    if not pmask.any():
        return None
    if pmask.all():
        return pack
    colmask = np.isin(pack.col_place, places)
    colmap = np.cumsum(colmask) - 1
    coo = pack.matrix.tocoo()
    ekeep = colmask[coo.col]
    used_rows, local = np.unique(coo.row[ekeep], return_inverse=True)
    x = sp.coo_matrix(
        (
            np.ones(int(ekeep.sum()), dtype=np.uint32),
            (local, colmap[coo.col[ekeep]]),
        ),
        shape=(len(used_rows), int(colmask.sum())),
    ).tocsr()
    return IntervalPack(
        places=pack.places[pmask],
        place_work=pack.place_work[pmask],
        place_hours=pack.place_hours[pmask],
        col_place=pack.col_place[colmask],
        col_start=pack.col_start[colmask],
        col_weight=pack.col_weight[colmask],
        persons=pack.persons[used_rows],
        matrix=x,
        t0=pack.t0,
        t1=pack.t1,
    )


def _packs_place_disjoint(packs: Sequence[IntervalPack]) -> bool:
    """True when packs are place-ordered with pairwise-disjoint place sets.

    This is the steady-state shape from the descriptor path: per-rank sim
    logs have place locality, so per-file packs almost never share a
    place.  Places are sorted within each pack, so ordered-and-disjoint
    reduces to ``prev last < next first``.
    """
    prev_last = -1
    for p in packs:
        if p.n_places == 0 or int(p.places[0]) <= prev_last:
            return False
        prev_last = int(p.places[-1])
    return True


def _merge_packs_concat(packs: Sequence[IntervalPack]) -> IntervalPack:
    """Fast path: place-disjoint ordered packs merge by pure concatenation.

    No place's boundary set gains new members, so every column, segment
    weight, and per-place work/hours total survives verbatim; only rows
    are remapped into the union person space and columns shifted by the
    preceding packs' widths.  Bit-identical to :func:`_merge_packs_reunion`
    on these inputs (canonical CSR of the same presence pattern).
    """
    t0, t1 = packs[0].t0, packs[0].t1
    persons = np.unique(np.concatenate([p.persons for p in packs]))
    rows_parts, cols_parts = [], []
    offset = 0
    for p in packs:
        coo = p.matrix.tocoo()
        rows_parts.append(np.searchsorted(persons, p.persons)[coo.row])
        cols_parts.append(coo.col.astype(np.int64) + offset)
        offset += p.matrix.shape[1]
    x = sp.coo_matrix(
        (
            np.ones(sum(len(r) for r in rows_parts), dtype=np.uint32),
            (np.concatenate(rows_parts), np.concatenate(cols_parts)),
        ),
        shape=(len(persons), offset),
    ).tocsr()
    x.data[:] = 1
    return IntervalPack(
        places=np.concatenate([p.places for p in packs]),
        place_work=np.concatenate([p.place_work for p in packs]),
        place_hours=np.concatenate([p.place_hours for p in packs]),
        col_place=np.concatenate([p.col_place for p in packs]),
        col_start=np.concatenate([p.col_start for p in packs]),
        col_weight=np.concatenate([p.col_weight for p in packs]),
        persons=persons,
        matrix=x,
        t0=t0,
        t1=t1,
    )


def merge_packs(packs: Sequence[IntervalPack]) -> IntervalPack:
    """Union-merge packs whose place sets may overlap.

    For a place present in several packs (its records were split across
    per-file tasks), the merged segment boundaries are the union
    of the source boundaries and presence is the per-(person, segment)
    union — bit-for-bit what a single pack built from the concatenated
    records would contain.

    When the packs are already place-ordered and place-disjoint (the
    common descriptor-path shape) the merge skips the boundary re-union
    and segment re-expansion entirely and concatenates.
    """
    if not packs:
        raise SynthesisError("cannot merge zero packs")
    if len(packs) == 1:
        return packs[0]
    t0, t1 = packs[0].t0, packs[0].t1
    if any(p.t0 != t0 or p.t1 != t1 for p in packs):
        raise SynthesisError("cannot merge packs over different windows")
    if _packs_place_disjoint(packs):
        return _merge_packs_concat(packs)
    return _merge_packs_reunion(packs)


def _merge_packs_reunion(packs: Sequence[IntervalPack]) -> IntervalPack:
    """General path: re-union boundaries and re-expand every segment."""
    t0, t1 = packs[0].t0, packs[0].t1
    persons = np.unique(np.concatenate([p.persons for p in packs]))
    key_parts = []
    for p in packs:
        pl = p.col_place.astype(np.uint64) << _PLACE_SHIFT
        key_parts.append(pl | p.col_start.astype(np.uint64))
        key_parts.append(pl | (p.col_start + p.col_weight).astype(np.uint64))
    ukeys, inv = np.unique(np.concatenate(key_parts), return_inverse=True)
    inv = inv.reshape(-1)
    upl = (ukeys >> _PLACE_SHIFT).astype(np.int64)
    rank = np.cumsum(np.concatenate(([True], upl[1:] != upl[:-1]))) - 1
    rows_parts, cols_parts = [], []
    offset = 0
    for p in packs:
        n = len(p.col_place)
        lo = inv[offset : offset + n]
        hi = inv[offset + n : offset + 2 * n]
        offset += 2 * n
        col_lo = lo - rank[lo]
        col_hi = hi - rank[hi]
        coo = p.matrix.tocoo()
        rec_rows, cols = _expand_intervals(col_lo[coo.col], col_hi[coo.col])
        rows_parts.append(
            np.searchsorted(persons, p.persons)[coo.row[rec_rows]]
        )
        cols_parts.append(cols)
    return _finish_pack(
        ukeys,
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        persons,
        t0,
        t1,
    )


def merge_duplicate_places(packs: "Sequence[IntervalPack | None]") -> list[IntervalPack]:
    """Packs are built per file, so a place whose records span several
    files arrives in several packs.  Merge exactly those places (union of
    boundaries and presence — bit-identical to a single build from the
    concatenated records); disjoint packs pass through untouched, which is
    the only case for locality-respecting per-rank logs."""
    packs = [p for p in packs if p is not None]
    if len(packs) <= 1:
        return packs
    uniq, counts = np.unique(
        np.concatenate([p.places for p in packs]), return_counts=True
    )
    dups = uniq[counts > 1]
    if not len(dups):
        return packs
    kept: list[IntervalPack] = []
    shared: list[IntervalPack] = []
    for p in packs:
        sub = select_pack_places(p, dups)
        if sub is None:
            kept.append(p)
            continue
        shared.append(sub)
        rest = select_pack_places(p, np.setdiff1d(p.places, dups))
        if rest is not None:
            kept.append(rest)
    kept.append(merge_packs(shared))
    return kept


def file_pack(
    source: "LogReader | str | Path",
    t0: int,
    t1: int,
    whole_file: bool = False,
    place_mask: np.ndarray | None = None,
) -> "tuple[IntervalPack | None, int, dict | None, LogFormatError | None]":
    """The per-file unit of every from-logs answer: one log file, one
    window, one pack.

    One walk (:func:`~repro.evlog.reader.read_window_columns`; a held
    reader stays open), the place column masked by *place_mask*, one pack
    from what is left — None when that is nothing.  Returns ``(pack,
    n_records, walk, error)``.  Damage is a *result*: the file's own
    :class:`~repro.errors.LogFormatError`, its message naming the file,
    for the caller to quarantine or raise — raised inside a pool task, a
    retrying pool would re-run it and wrap it in ``TaskRetryError``.
    """
    try:
        columns, walk = read_window_columns(source, t0, t1, whole_file)
    except LogFormatError as exc:
        path = source.path if isinstance(source, LogReader) else Path(source)
        if not str(exc).startswith(f"{path}: "):
            exc.args = (f"{path}: {exc}",)
        return None, 0, None, exc
    if place_mask is not None:
        columns = mask_place_columns(columns, place_mask)
    n = len(columns[0])
    pack = build_interval_pack_columns(*columns, t0, t1) if n else None
    return pack, n, walk, None


def fold_packs(
    packs: "Sequence[IntervalPack | None]",
    n_persons: int,
    timings: StageTimings | None = None,
) -> tuple[sp.csr_matrix, list[IntervalPack]]:
    """The fold of every from-logs answer: a batch's, a tile's, a
    fringe's or a shard's per-file packs into one partial adjacency.

    A place split across files is union-merged
    (:func:`merge_duplicate_places`), so the partial equals one build
    from the concatenated records; then one stacked weighted product
    (:func:`sum_pack_adjacency`).  Returns the canonical strict-upper CSR
    and the merged packs; *timings* receives the ``merge`` and
    ``adjacency`` stage clocks.
    """
    tic = time.perf_counter()
    merged = merge_duplicate_places(packs)
    toc = time.perf_counter()
    partial = sum_pack_adjacency(merged, n_persons)
    if timings is not None:
        timings.add("merge", toc - tic)
        timings.add("adjacency", time.perf_counter() - toc)
    return partial, merged


def window_partial(
    sources: "Sequence[LogReader | str | Path]",
    t0: int,
    t1: int,
    n_persons: int,
    place_mask: np.ndarray | None = None,
) -> tuple[sp.csr_matrix, int, list[dict]]:
    """The partial adjacency of ``[t0, t1)`` over some log files at the
    places *place_mask* admits — a tile's, a fringe's, a shard's:
    :func:`file_pack` per file, then :func:`fold_packs`.  A damaged file
    raises its :class:`~repro.errors.LogFormatError` (the callers verified
    their files whole before asking).  Returns the canonical
    upper-triangular CSR, the number of records that went into it and the
    walks' stats.
    """
    packs, walks, n_records = [], [], 0
    for source in sources:
        pack, n, walk, error = file_pack(source, t0, t1, place_mask=place_mask)
        if error is not None:
            raise error
        packs.append(pack)
        walks.append(walk)
        n_records += n
    return fold_packs(packs, n_persons)[0], n_records, walks


def sum_pack_adjacency(
    packs: Sequence[IntervalPack | None],
    n_persons: int,
) -> sp.csr_matrix:
    """Stage 4: pairwise collocated hours over place-disjoint packs.

    One weighted product ``(Y . diag(w)) . Y^T`` per *pack* — a pack's
    places share one column space, so a handful of large products stand
    in for a per-place matmul loop (cross-place blocks are structurally
    zero and cost nothing).  Output is the same strict upper-triangular
    CSR :func:`~repro.core.adjacency.sum_adjacency_list` produces from
    the oracle's per-hour matrices.

    The product runs in the compiled masked-triangular SpGEMM (upper
    pairs only, shared pooled output triples) when
    :func:`~repro.core.kernels.masked.sum_shares_adjacency` takes the
    share; the scipy product below it is the bit-identical twin.
    """
    live = [p for p in packs if p is not None and p.matrix.nnz]
    if not live:
        return empty_adjacency(n_persons)
    for pack in live:
        if pack.persons.size and int(pack.persons.max()) >= n_persons:
            raise SynthesisError("pack references person outside population")
    out = sum_shares_adjacency(
        [
            (
                p.matrix,
                p.col_weight.astype(np.int64, copy=False),
                p.persons.astype(np.int64, copy=False),
            )
            for p in live
        ],
        n_persons,
    )
    if out is not None:
        return out
    count_twin("spgemm")
    parts = []
    with kernel_stage("spgemm"):
        for pack in live:
            x = pack.matrix
            xw = x.copy()
            xw.data = pack.col_weight[x.indices].astype(np.int64)
            local = (xw @ x.T).tocoo()
            keep = local.row < local.col  # persons sorted: local == global
            data = local.data[keep].astype(np.int64)
            if pack.n_persons == n_persons:
                # identity person map: the pack covers the whole
                # population, so local coordinates already are global
                rows, cols = local.row[keep], local.col[keep]
            else:
                g = pack.persons.astype(np.int64, copy=False)
                rows, cols = g[local.row[keep]], g[local.col[keep]]
            parts.append(
                sp.coo_matrix(
                    (data, (rows, cols)), shape=(n_persons, n_persons)
                )
            )
    with kernel_stage("accumulate"):
        return accumulate_adjacency(parts, n_persons)
