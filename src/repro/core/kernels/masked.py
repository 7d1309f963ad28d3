"""The compiled interval-pack build, masked adjacency product, partial
sum and mirror.

Four entry points, each returning ``None`` when the fast path does not
apply — no C extension, or an input outside its typed layout — so the
caller runs its numpy/scipy twin:

:func:`build_pack_arrays`
    the compiled interval-pack build — packed-key value sorts in numpy
    (no ``argsort``, no ``np.unique`` anywhere) plus linear C scans for
    the boundary space, segment expansion, and canonical CSR assembly.
    Entry keys carry *global* person ids, so the sorted-unique person row
    map falls out of the same dedup scan that builds the CSR.  Produces
    bit-identical fields to :func:`repro.core.intervals.build_interval_pack`.
:func:`sum_shares_adjacency`
    the masked upper-triangular weighted SpGEMM over a worker's pack
    share.  Computes only the strict upper triangle of
    ``(Y·diag(w))·Yᵀ`` in local coordinates and writes every unit's
    triples straight into one shared pooled COO buffer — no per-part
    ``tocoo``/``astype``/``concatenate`` — then accumulates them into the
    global CSR via packed sort keys (one global value sort plus linear
    compiled scans) instead of a scipy round trip.
:func:`csr_sum`
    the k-way sum of canonical strict-upper partial adjacencies (tiles,
    fringes, batches, shards) in one row-wise merge pass, bit-identical to
    folding them with scipy's pairwise ``+``.
:func:`csr_mirror`
    a canonical strict-upper adjacency expanded to its canonical
    symmetric form, bit-identical to scipy's ``adj + adj.T``.

All scratch comes from the per-thread :class:`~.workspace.KernelWorkspace`;
steady state performs no scratch allocations.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...errors import SynthesisError
from .cext import load_cext
from .workspace import get_workspace, kernel_stage

__all__ = [
    "build_pack_arrays",
    "csr_mirror",
    "csr_sum",
    "in_sum_layout",
    "masked_adjacency_triples",
    "sum_shares_adjacency",
]

#: int32 output coordinates bound every row/column index
_I32_MAX = 2**31


# -- pack build --------------------------------------------------------------


def build_pack_arrays(
    start: np.ndarray,
    stop: np.ndarray,
    person: np.ndarray,
    place: np.ndarray,
    t0: int,
    t1: int,
) -> dict | None:
    """Compiled interval-pack build from clipped record columns.

    Inputs are contiguous int64 columns already clipped to ``[t0, t1]``.
    Returns the :class:`~repro.core.intervals.IntervalPack` field dict,
    or None when the fast path does not apply: no compiled extension,
    packed sort keys that would not fit 63 bits, person/column ids
    outside the packed-key ranges, or zero-length records (whose persons
    the reference keeps despite covering no segment) — the reference
    path handles all of those.
    """
    k = load_cext()
    if k is None:
        return None
    start = np.ascontiguousarray(start, dtype=np.int64)
    stop = np.ascontiguousarray(stop, dtype=np.int64)
    person = np.ascontiguousarray(person, dtype=np.int64)
    place = np.ascontiguousarray(place, dtype=np.int64)
    n = len(start)
    tbits = max(int(t1 - t0).bit_length(), 1)
    ibits = max(int(2 * n).bit_length(), 1)
    place_min, place_max, person_min, person_max, n_zero = k.col_stats(
        place, person, start, stop
    )
    pbits = place_max.bit_length() if n else 0
    if place_min < 0 or pbits + tbits + ibits > 63:
        return None
    if person_min < 0 or person_max >= 2**32:
        return None  # entry keys carry the person id in the high 32 bits
    if n_zero:
        # zero-length records cover no segment but the reference keeps
        # their persons in the row map — let it handle them
        return None
    ws = get_workspace()

    # boundary space: one packed-key value sort + two linear C scans
    # replace np.unique(..., return_inverse=True) + _boundary_space
    keys = ws.take("pb_keys", 2 * n, np.int64)
    k.pack_keys(place, start, stop, t0, tbits, ibits, keys)
    keys.sort()
    lo = ws.take("pb_lo", n, np.int64)
    hi = ws.take("pb_hi", n, np.int64)
    col_place = ws.take("pb_col_place", 2 * n, np.int64)
    col_start = ws.take("pb_col_start", 2 * n, np.int64)
    col_weight = ws.take("pb_col_weight", 2 * n, np.int64)
    place_ids = ws.take("pb_place_ids", n, np.int64)
    place_first = ws.take("pb_place_first", n + 1, np.int64)
    n_cols, n_places = k.boundary_scan(
        keys.view(np.uint64),
        n,
        tbits,
        ibits,
        lo,
        hi,
        col_place,
        col_start,
        col_weight,
        place_ids,
        place_first,
    )
    if n_cols >= _I32_MAX:
        return None

    indptr_buf = ws.take("pb_indptr", n + 1, np.int32)
    persons_buf = ws.take("pb_persons", max(n, 1), np.int64)
    col_counts = ws.take("pb_col_counts", n_cols + 1, np.int64)
    rbits = int(person_max).bit_length() if n else 0
    lbits = max(int(n_cols).bit_length(), 1)
    if rbits + 2 * lbits <= 63:
        # presence CSR straight from per-record column ranges: one
        # (person, lo, length) key per *record*, one value sort, then a
        # merge of each person's lo-ascending intervals — never
        # materializes (or sorts) the 3-4x larger per-segment expansion
        rkeys = keys[:n]  # boundary keys are spent; reuse their pool
        k.range_keys(n, person, lo, hi, lbits, rkeys)
        rkeys.sort()
        cols_buf = ws.take("pb_cols", max(4 * n, 1024), np.int32)
        nnz, n_local = k.ranges_to_csr(
            rkeys, n, lbits, n_cols,
            indptr_buf, cols_buf, persons_buf, col_counts, len(cols_buf),
        )
        if nnz < 0:
            nnz = -nnz
            if nnz >= _I32_MAX:
                return None
            cols_buf = ws.take("pb_cols", nnz, np.int32)
            nnz, n_local = k.ranges_to_csr(
                rkeys, n, lbits, n_cols,
                indptr_buf, cols_buf, persons_buf, col_counts, len(cols_buf),
            )
    else:
        # range keys overflow 63 bits: expand packed (person, col)
        # entries, sort, and dedup-scan them into the same CSR
        entries = ws.take("pb_entries", max(4 * n, 1024), np.uint64)
        total = k.expand_entries(lo, hi, person, entries)
        if total < 0:
            total = -total
            if total >= _I32_MAX:
                return None
            entries = ws.take("pb_entries", total, np.uint64)
            k.expand_entries(lo, hi, person, entries)
        if total >= _I32_MAX:
            return None
        entries = entries[:total]
        entries.sort()
        cols_buf = ws.take("pb_cols", max(total, 1), np.int32)
        nnz, n_local = k.entries_to_csr(
            entries, total, n_cols, indptr_buf, cols_buf, persons_buf,
            col_counts,
        )
    if nnz >= _I32_MAX:
        return None
    matrix = sp.csr_matrix(
        (
            np.ones(nnz, dtype=np.uint32),
            cols_buf[:nnz].copy(),
            indptr_buf[: n_local + 1].copy(),
        ),
        shape=(n_local, n_cols),
    )
    # the dedup scan emits sorted, duplicate-free indices
    matrix.has_canonical_format = True

    # per-place pairwise-work and person-hour stats, grouped exactly like
    # the reference: only places that own at least one column contribute
    # a reduceat segment
    first = place_first[:n_places]
    ends = np.empty(n_places, dtype=np.int64)
    ends[:-1] = first[1:]
    ends[-1] = n_cols
    has_cols = first < ends
    counts = col_counts[:n_cols]
    seg_starts = first[has_cols]
    place_work = np.add.reduceat(counts * counts, seg_starts) if n_cols else (
        np.empty(0, dtype=np.int64)
    )
    place_hours = (
        np.add.reduceat(counts * col_weight[:n_cols], seg_starts)
        if n_cols
        else np.empty(0, dtype=np.int64)
    )
    return {
        "places": place_ids[:n_places].copy(),
        "place_work": place_work,
        "place_hours": place_hours,
        "col_place": col_place[:n_cols].copy(),
        "col_start": col_start[:n_cols] + t0,
        "col_weight": col_weight[:n_cols].copy(),
        "persons": persons_buf[:n_local].copy(),
        "matrix": matrix,
    }


# -- adjacency product -------------------------------------------------------


class _TripleBuffer:
    """Shared pooled COO output (rows, cols int32; values int64) that
    packs append to at an offset; grows by copy only on overflow."""

    def __init__(self, ws, capacity: int) -> None:
        self._ws = ws
        self.n = 0
        self.rows = ws.take("spg_rows", capacity, np.int32)
        self.cols = ws.take("spg_cols", capacity, np.int32)
        self.vals = ws.take("spg_vals", capacity, np.int64)

    @property
    def capacity(self) -> int:
        return len(self.rows)

    def grow(self, needed: int) -> None:
        old_r, old_c, old_v, n = self.rows, self.cols, self.vals, self.n
        cap = max(needed, 2 * self.capacity)
        self.rows = self._ws.take("spg_rows", cap, np.int32)
        self.cols = self._ws.take("spg_cols", cap, np.int32)
        self.vals = self._ws.take("spg_vals", cap, np.int64)
        if n and self.rows.base is not old_r.base:
            self.rows[:n] = old_r[:n]
            self.cols[:n] = old_c[:n]
            self.vals[:n] = old_v[:n]


def masked_adjacency_triples(
    matrix: sp.csr_matrix,
    weights: np.ndarray,
    k,
    buf: _TripleBuffer,
) -> tuple[int, int]:
    """Append one unit's strict-upper triples to the shared buffer.

    Returns the ``(base, count)`` slice written (local coordinates).
    """
    ws = buf._ws
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    n_local, n_cols = matrix.shape
    nnz = matrix.nnz
    indptr = matrix.indptr
    indices = matrix.indices
    cp = ws.take("spg_cp", n_cols + 1, np.int64)
    ri = ws.take("spg_ri", max(nnz, 1), np.int32)
    qp = ws.take("spg_qp", max(nnz, 1), np.int64)
    k.csr_to_csc(n_local, n_cols, indptr, indices, cp, ri, qp)
    acc = ws.take("spg_acc", n_local, np.int64)
    mark = ws.take("spg_mark", n_local, np.int32)
    touch = ws.take("spg_touch", n_local, np.int32)
    base = buf.n
    while True:
        out = k.masked_spgemm(
            n_local,
            indptr,
            indices,
            qp,
            cp,
            ri,
            weights,
            acc,
            mark,
            touch,
            buf.rows[base:],
            buf.cols[base:],
            buf.vals[base:],
            buf.capacity - base,
        )
        if out >= 0:
            buf.n = base + out
            return base, out
        buf.grow(base + (-out))


def sum_shares_adjacency(
    units: "list[tuple[sp.csr_matrix, np.ndarray, np.ndarray]]",
    n_persons: int,
) -> sp.csr_matrix | None:
    """Compiled worker reduction over ``(matrix, weights, persons)``
    units — the stage-4 core.

    Every unit's strict-upper product lands in one pooled triple buffer;
    a compiled pass per unit packs its triples as global ``(row << 32 |
    col)`` sort keys (fusing the local→global gather), one global value
    sort plus a linear dedup scan emit the canonical CSR pattern, and a
    run-draining merge over the unsorted keys sums the values.  Returns
    None when the C extension is unavailable or the coordinates would
    not fit the int32 triple layout.
    """
    k = load_cext()
    if k is None:
        return None
    if n_persons >= _I32_MAX:
        return None
    for matrix, _weights, _persons in units:
        if (
            matrix.indptr.dtype != np.int32
            or matrix.indices.dtype != np.int32
        ):
            return None
    # output-size estimate: presence nnz tracks the upper-triple count
    # closely on real shares; undershooting only costs one counted retry
    # of a single unit, overshooting costs first-touch page faults on the
    # pooled buffers
    est = sum(m.nnz for m, _w, _p in units)
    if est >= _I32_MAX:
        return None
    ws = get_workspace()
    with kernel_stage("spgemm"):
        buf = _TripleBuffer(ws, max(est, 1024))
        slices = []
        for matrix, weights, persons in units:
            base, count = masked_adjacency_triples(matrix, weights, k, buf)
            slices.append((base, count, persons))
    with kernel_stage("accumulate"):
        total = buf.n
        # fuse the local→global gather with the sort-key packing: one
        # compiled pass per run writes (global_row << 32 | global_col)
        # straight into the pooled key buffer
        keys = ws.take("acc_keys", max(total, 1), np.int64)
        for base, count, persons in slices:
            end = base + count
            k.pack_triples(
                count,
                buf.rows[base:end],
                buf.cols[base:end],
                persons,
                0 if len(persons) == n_persons else 1,
                keys[base:end],
            )
        # one global value sort interleaves every run into canonical
        # order; a linear dedup scan then emits the CSR pattern.  The
        # unsorted keys stay behind for the values pass — persons is
        # sorted ascending, so packing keeps each run's rows
        # non-decreasing, which the run-draining merge depends on.
        keys_sorted = ws.take("acc_keys_sorted", max(total, 1), np.int64)
        np.copyto(keys_sorted[:total], keys[:total])
        keys_sorted[:total].sort()
        indptr_buf = ws.take("acc_indptr", n_persons + 1, np.int32)
        cols_out = ws.take("acc_cols_out", max(total, 1), np.int32)
        nnz = k.keys_to_csr(keys_sorted, total, n_persons, indptr_buf, cols_out)
        run_ptr = np.empty(len(slices) + 1, dtype=np.int64)
        run_ptr[0] = 0
        for i, (base, count, _p) in enumerate(slices):
            run_ptr[i + 1] = base + count
        acc = ws.take("acc_acc", n_persons, np.int64)
        mark = ws.take("acc_mark", n_persons, np.int32)
        cursor = ws.take("acc_cursor", len(slices), np.int64)
        vals_out = ws.take("acc_vals_out", max(total, 1), np.int64)
        k.fill_values(
            len(slices),
            run_ptr,
            keys,
            buf.vals[:total],
            n_persons,
            indptr_buf,
            cols_out,
            acc,
            mark,
            cursor,
            vals_out,
        )
        out = sp.csr_matrix(
            (
                vals_out[:nnz].copy(),
                cols_out[:nnz].copy(),
                indptr_buf[: n_persons + 1].copy(),
            ),
            shape=(n_persons, n_persons),
        )
        # the accumulation emits sorted, duplicate-free indices: spare
        # scipy the scan that would find that out
        out.has_canonical_format = True
    return out


# -- partial sum -------------------------------------------------------------


def in_sum_layout(part, n: int) -> bool:
    """Whether *part* is in the partial-sum kernel's layout: an ``(n, n)``
    CSR with contiguous int32 ``indptr`` / ``indices``, int64 data and
    scipy's canonical flag.  O(1) once scipy has cached that flag on the
    matrix (it scans a matrix once, on the first ask)."""
    return (
        sp.issparse(part)
        and part.format == "csr"
        and part.shape == (n, n)
        and part.indptr.dtype == np.int32
        and part.indices.dtype == np.int32
        and part.data.dtype == np.int64
        and len(part.indptr) == n + 1
        and len(part.data) == len(part.indices)
        and part.indptr.flags.c_contiguous
        and part.indices.flags.c_contiguous
        and part.data.flags.c_contiguous
        and part.has_canonical_format
    )


def csr_sum(parts: "list[sp.csr_matrix]", n: int) -> sp.csr_matrix | None:
    """Compiled sum of partial adjacencies: canonical strict-upper
    ``(n, n)`` CSR matrices in one row-wise merge pass.

    The result is canonical, never aliases an input and drops zero sums.
    Returns None when the C extension is unavailable, a part misses
    :func:`in_sum_layout` or the sum could outgrow int32 offsets; raises
    :class:`~repro.errors.SynthesisError` when the kernel finds a part's
    ``indptr`` unsound or an entry outside the strict upper triangle.
    """
    k = load_cext()
    if k is None or not all(in_sum_layout(p, n) for p in parts):
        return None
    cap = sum(len(p.indices) for p in parts)
    if cap >= _I32_MAX:
        return None
    ws = get_workspace()
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(cap, dtype=np.int32)
    data = np.empty(cap, dtype=np.int64)
    nnz = k.csr_sum(
        n, parts, indptr, indices, data,
        ws.take("sum_c0", n, np.int32), ws.take("sum_v0", n, np.int64),
        ws.take("sum_c1", n, np.int32), ws.take("sum_v1", n, np.int64),
    )
    if nnz < 0:
        raise SynthesisError(
            "partial adjacency has an unsound indptr or an entry outside "
            "the strict upper triangle"
        )
    # overlapping parts sum to fewer entries than the capacity: shrink in
    # place (a realloc) rather than copy the result out
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    out = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    out.has_canonical_format = True
    return out


def csr_mirror(upper: sp.csr_matrix) -> sp.csr_matrix | None:
    """Compiled symmetric form of a canonical strict-upper ``(n, n)``
    adjacency: row *i* holds the mirrored entries ``(j, i)`` then its own,
    zeros dropped.

    Returns None when the C extension is unavailable, *upper* misses
    :func:`in_sum_layout` or the result could outgrow int32 offsets;
    raises :class:`~repro.errors.SynthesisError` when the kernel finds an
    unsound ``indptr`` or a row that is not strictly ascending above the
    diagonal.
    """
    k = load_cext()
    n = upper.shape[0]
    if k is None or not in_sum_layout(upper, n):
        return None
    cap = 2 * len(upper.indices)
    if cap >= _I32_MAX:
        return None
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(cap, dtype=np.int32)
    data = np.empty(cap, dtype=np.int64)
    nnz = k.csr_mirror(
        n, upper.indptr, upper.indices, upper.data, indptr, indices, data,
        get_workspace().take("mirror_cursor", max(n, 1), np.int32),
    )
    if nnz < 0:
        raise SynthesisError(
            "adjacency to mirror has an unsound indptr or a row that is not "
            "strictly ascending above the diagonal"
        )
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    out = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    out.has_canonical_format = True
    return out
