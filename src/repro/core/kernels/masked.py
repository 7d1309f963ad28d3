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
    share, reduced in bands of person rows.  Computes only the strict
    upper triangle of ``(Y·diag(w))·Yᵀ``; per band, every unit's triples
    land as packed int32 band keys (the local→global gather fused in) in
    one pooled buffer, and one value sort plus linear compiled scans
    append the band's canonical rows to the output before the next band
    starts — no scipy round trip, and no buffer the size of the output's
    triples.
:func:`csr_sum`
    the k-way sum of canonical strict-upper partial adjacencies (tiles,
    fringes, batches, shards) in one row-wise merge pass, bit-identical to
    folding them with scipy's pairwise ``+``.
:func:`csr_mirror`
    a canonical strict-upper adjacency expanded to its canonical
    symmetric form, bit-identical to scipy's ``adj + adj.T``.

Scratch a bound fixes comes from the per-thread
:class:`~.workspace.KernelWorkspace`; scratch sized to one call's input
is the call's own.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...errors import SynthesisError
from ...obs import BYTE_BUCKETS, count, observe
from .cext import load_cext
from .workspace import get_workspace, kernel_stage

__all__ = [
    "build_pack_arrays",
    "csr_mirror",
    "csr_sum",
    "in_sum_layout",
    "presence_matrix",
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
    outside the packed-key ranges, places or window hours past int32, or
    zero-length records (whose persons the reference keeps despite
    covering no segment) — the reference path handles all of those.

    The scratch is this call's own, sized to its records and freed when
    it returns, so a fold that follows never sits beside a file's
    pack-build buffers.
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
    if place_max >= _I32_MAX or t1 >= _I32_MAX or 2 * n >= _I32_MAX:
        return None  # the column arrays are int32
    if person_min < 0 or person_max >= 2**32:
        return None  # entry keys carry the person id in the high 32 bits
    if n_zero:
        # zero-length records cover no segment but the reference keeps
        # their persons in the row map — let it handle them
        return None

    # boundary space: one packed-key value sort + two linear C scans
    # replace np.unique(..., return_inverse=True) + _boundary_space
    keys = np.empty(2 * n, np.int64)
    k.pack_keys(place, start, stop, t0, tbits, ibits, keys)
    keys.sort()
    lo = np.empty(n, np.int32)
    hi = np.empty(n, np.int32)
    col_place = np.empty(2 * n, np.int32)
    col_start = np.empty(2 * n, np.int32)
    col_weight = np.empty(2 * n, np.int32)
    place_ids = np.empty(n, np.int32)
    place_first = np.empty(n + 1, np.int32)
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

    indptr_buf = np.empty(n + 1, np.int32)
    persons_buf = np.empty(max(n, 1), np.int64)
    col_counts = np.empty(n_cols + 1, np.int32)
    rbits = int(person_max).bit_length() if n else 0
    lbits = max(int(n_cols).bit_length(), 1)
    if rbits + 2 * lbits <= 63:
        # presence CSR straight from per-record column ranges: one
        # (person, lo, length) key per *record*, one value sort, then a
        # merge of each person's lo-ascending intervals — never
        # materializes (or sorts) the 3-4x larger per-segment expansion
        rkeys = keys[:n]  # boundary keys are spent; reuse their memory
        k.range_keys(n, person, lo, hi, lbits, rkeys)
        rkeys.sort()
        cols_buf = np.empty(max(4 * n, 1024), np.int32)
        nnz, n_local = k.ranges_to_csr(
            rkeys, n, lbits, n_cols,
            indptr_buf, cols_buf, persons_buf, col_counts, len(cols_buf),
        )
        if nnz < 0:
            nnz = -nnz
            if nnz >= _I32_MAX:
                return None
            cols_buf = np.empty(nnz, np.int32)
            nnz, n_local = k.ranges_to_csr(
                rkeys, n, lbits, n_cols,
                indptr_buf, cols_buf, persons_buf, col_counts, len(cols_buf),
            )
    else:
        # range keys overflow 63 bits: expand packed (person, col)
        # entries, sort, and dedup-scan them into the same CSR
        del keys
        entries = np.empty(max(4 * n, 1024), np.uint64)
        total = k.expand_entries(lo, hi, person, entries)
        if total < 0:
            total = -total
            if total >= _I32_MAX:
                return None
            entries = np.empty(total, np.uint64)
            k.expand_entries(lo, hi, person, entries)
        if total >= _I32_MAX:
            return None
        entries = entries[:total]
        entries.sort()
        cols_buf = np.empty(max(total, 1), np.int32)
        nnz, n_local = k.entries_to_csr(
            entries, total, n_cols, indptr_buf, cols_buf, persons_buf,
            col_counts,
        )
    if nnz >= _I32_MAX:
        return None
    matrix = presence_matrix(
        indptr_buf[: n_local + 1].copy(), cols_buf[:nnz].copy(), n_cols
    )

    # per-place pairwise-work and person-hour stats, grouped exactly like
    # the reference: only places that own at least one column contribute
    # a reduceat segment
    first = place_first[:n_places]
    ends = np.empty(n_places, dtype=np.int64)
    ends[:-1] = first[1:]
    ends[-1] = n_cols
    has_cols = first < ends
    counts = col_counts[:n_cols].astype(np.int64)
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
        "places": place_ids[:n_places].astype(np.int64),
        "place_work": place_work,
        "place_hours": place_hours,
        "col_place": col_place[:n_cols].copy(),
        "col_start": col_start[:n_cols] + np.int32(t0),
        "col_weight": col_weight[:n_cols].copy(),
        "persons": persons_buf[:n_local].copy(),
        "matrix": matrix,
    }


def presence_matrix(
    indptr: np.ndarray, indices: np.ndarray, n_cols: int
) -> sp.csr_matrix:
    """A pack's binary presence CSR over a canonical pattern (sorted,
    duplicate-free indices).  Its data is one broadcast uint32 ``1``,
    not a per-entry array: the compiled product reads only the pattern,
    and scipy reads the ones as it would a stored array."""
    matrix = sp.csr_matrix(
        (np.broadcast_to(np.uint32(1), indices.shape), indices, indptr),
        shape=(len(indptr) - 1, n_cols),
    )
    matrix.has_canonical_format = True
    return matrix


# -- adjacency product -------------------------------------------------------

#: what one band of the reduce may hold, in bytes, beyond room for two
#: rows of every unit: its packed keys, their sorted copy and their values
#: (:data:`_BAND_TRIPLE_BYTES` a triple)
_BAND_BYTES = 8 << 20
_BAND_TRIPLE_BYTES = 4 + 4 + 8


def sum_shares_adjacency(
    units: "list[tuple[sp.csr_matrix, np.ndarray, np.ndarray]]",
    n_persons: int,
) -> sp.csr_matrix | None:
    """Compiled reduction over ``(matrix, weights, persons)`` units — the
    stage-4 core — in bands of person rows.

    Persons are sorted in every unit, so a band ``[r0, r1)`` of global
    rows is a contiguous local row range of each.  Per band, every
    unit's strict-upper rows land as packed int32 band keys plus values
    in one pooled buffer of :data:`_BAND_BYTES`; one value sort over the
    keys and a linear dedup scan emit the band's CSR pattern, and a
    run-draining merge over the unsorted keys sums its values; the band
    is appended to the output before the next starts.  The band's rows
    come from the rate the previous band saw (the first from the
    presence nnz); a unit whose rows would overrun the buffer stops at a
    row, the band ends there, and the rows it cut are the next band's
    (earlier units rewind their column cursors to it).  Each unit is
    granted room for one more row of every later unit, so the band's
    first row always fits.

    Returns None when the C extension is unavailable or the units miss
    the int32 layout (a pack's columns are int64 when its window or place
    ids outgrow int32) or the output's offsets would.
    Observes ``kernels.fold.scratch_bytes`` (what the reduce held beyond
    its units and its output) and counts ``kernels.fold.bands``.
    """
    k = load_cext()
    if k is None:
        return None
    cbits = max(int(n_persons - 1).bit_length(), 1)
    if n_persons >= _I32_MAX or cbits > 30:
        return None
    for matrix, weights, persons in units:
        if (
            matrix.indptr.dtype != np.int32
            or matrix.indices.dtype != np.int32
            or weights.dtype != np.int32
            or persons.dtype != np.int64
        ):
            return None
    ws = get_workspace()
    with kernel_stage("spgemm"):
        # per unit: the CSC, and the column cursors of its next row
        csc = []
        for matrix, _w, _p in units:
            n_local, n_cols = matrix.shape
            cp = np.empty(n_cols + 1, np.int32)
            ri = np.empty(matrix.nnz, np.int32)
            k.csr_to_csc(n_local, n_cols, matrix.indptr, matrix.indices, cp, ri)
            csc.append((cp, ri, cp[:-1].copy()))
    sizes = [m.shape[0] for m, _w, _p in units]
    widest = max(sizes)
    # the buffer is sized to the work — real shares have fewer upper
    # triples than presence entries, and a smaller buffer only means more
    # bands — plus room for one row of every unit, twice
    presence = sum(m.nnz for m, _w, _p in units)
    reserve = sum(sizes)
    cap = min(_BAND_BYTES // _BAND_TRIPLE_BYTES, presence) + 2 * reserve
    keys = ws.take("band_keys", cap, np.int32)
    vals = ws.take("band_vals", cap, np.int64)
    keys_sorted = ws.take("band_sorted", cap, np.int32)
    sp_acc = ws.take("spg_acc", widest, np.int64)
    sp_mark = ws.take("spg_mark", widest, np.int64)
    sp_mark.fill(-1)
    touch = ws.take("spg_touch", widest, np.int32)
    acc = ws.take("acc_acc", n_persons, np.int64)
    mark = ws.take("acc_mark", n_persons, np.int32)
    mark.fill(-1)
    cursor = ws.take("acc_cursor", len(units), np.int64)
    run_lo = np.empty(len(units), np.int64)
    run_hi = np.empty(len(units), np.int64)
    scratch = sum(a.nbytes for arrays in csc for a in arrays) + sum(
        a.nbytes
        for a in (keys, vals, keys_sorted, sp_acc, sp_mark, touch, acc, mark)
    )
    # every row a call visits stamps sp_mark afresh, a row recomputed
    # after a cut included: the stamps only ever grow
    stamp = 0
    row_cap = (1 << (31 - cbits)) - 1
    rate = max(presence, 1) / n_persons
    indptr = np.empty(n_persons + 1, np.int32)
    indptr[0] = 0
    indices_parts, data_parts = [], []
    # the local row each unit's cursors stand at
    nxt = [0] * len(units)
    nnz, bands, r0 = 0, 0, 0
    while r0 < n_persons:
        r1 = min(n_persons, r0 + row_cap, r0 + max(1, int((cap - reserve) / rate)))
        used, n_runs, left = 0, 0, reserve
        with kernel_stage("spgemm"):
            for u, ((matrix, weights, persons), (cp, ri, cur)) in enumerate(
                zip(units, csc)
            ):
                left -= sizes[u]
                a, b = np.searchsorted(persons, (r0, r1))
                if a == b:
                    continue
                done, written = k.masked_spgemm(
                    a, b, matrix.indptr, matrix.indices, cp, ri, cur, weights,
                    persons, r0, cbits, sp_acc, sp_mark, stamp - a, touch,
                    keys[used:], vals[used:], cap - used - left,
                )
                stamp += done + 1
                nxt[u] = a + done
                run_lo[n_runs], run_hi[n_runs] = used, used + written
                used += written
                n_runs += 1
                if a + done < b:
                    r1 = int(persons[a + done])
            # a unit cut short by a later one gives back the rows past r1
            for u, ((matrix, _w, persons), (_cp, _ri, cur)) in enumerate(
                zip(units, csc)
            ):
                end = int(np.searchsorted(persons, r1))
                if nxt[u] > end:
                    k.csc_rewind(end, nxt[u], matrix.indptr, matrix.indices, cur)
                    nxt[u] = end
        with kernel_stage("accumulate"):
            band = keys_sorted[:used]
            np.copyto(band, keys[:used])
            band.sort()
            # keys past r1 belong to rows a later unit cut off: they
            # sort last, and the next band recomputes them
            n_tr = int(np.searchsorted(band, (r1 - r0) << cbits))
            if nnz + n_tr >= _I32_MAX:
                return None
            band_nnz = k.keys_to_csr(band, n_tr, r1 - r0, cbits, indptr[r0:], band)
            data = np.empty(band_nnz, np.int64)
            k.fill_values(
                run_lo[:n_runs], run_hi[:n_runs], keys, vals, r1 - r0, cbits,
                r0, indptr[r0:], band, acc, mark, cursor, data,
            )
            indices_parts.append(band[:band_nnz].copy())
            data_parts.append(data)
        nnz += band_nnz
        rate = max(n_tr, 1) / (r1 - r0)
        bands += 1
        r0 = r1
    del csc
    with kernel_stage("accumulate"):
        out = sp.csr_matrix(
            (
                np.concatenate(data_parts) if bands > 1 else data_parts[0],
                np.concatenate(indices_parts) if bands > 1 else indices_parts[0],
                indptr,
            ),
            shape=(n_persons, n_persons),
        )
        # the accumulation emits sorted, duplicate-free indices: spare
        # scipy the scan that would find that out
        out.has_canonical_format = True
    observe("kernels.fold.scratch_bytes", scratch, BYTE_BUCKETS)
    count("kernels.fold.bands", bands)
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
