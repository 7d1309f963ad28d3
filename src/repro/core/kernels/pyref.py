"""Pure-python reference loops for the masked SpGEMM kernel.

These functions are the *algorithm of record* for the compiled backends:
the C extension (:mod:`.cext`) is a line-for-line port, and the numba
backend (:mod:`.numba_backend`) jits exactly these functions.  They use
only plain loops and array indexing — the numba-supported subset — so
the same code object is testable un-jitted on small inputs and
compilable when numba is installed.

Do not call these on production-sized data without numba: they exist for
correctness (tests exercise them against scipy) and for jitting, not for
interpreted speed.

The two graph kernels at the bottom (:func:`edge_triangles`,
:func:`induced_subgraph`) are the exception: vectorized numpy/scipy
twins of the C versions, never jitted, fast enough to be the production
fallback when no C compiler is available.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...errors import AnalysisError

__all__ = [
    "masked_spgemm",
    "csr_to_csc",
    "pack_triples",
    "keys_to_csr",
    "fill_values",
    "edge_triangles",
    "induced_subgraph",
]

#: edges per block in :func:`edge_triangles`: bounds the two gathered
#: row blocks to a few MB whatever the graph size (fresh pages, not
#: arithmetic, are what a larger block pays for)
_EDGE_BLOCK = 1 << 13


def csr_to_csc(nr, nc, indptr, cols, cp, ri, qp):
    """Counting transpose of a CSR pattern into CSC (rows ascending per
    column), recording each CSR entry's CSC position in ``qp``.

    Outputs: ``cp`` int64[nc+1], ``ri`` int32[nnz], ``qp`` int64[nnz].
    """
    nnz = indptr[nr]
    for c in range(nc + 1):
        cp[c] = 0
    for p in range(nnz):
        cp[cols[p] + 1] += 1
    for c in range(nc):
        cp[c + 1] += cp[c]
    for i in range(nr):
        for p in range(indptr[i], indptr[i + 1]):
            c = cols[p]
            q = cp[c]
            cp[c] = q + 1
            ri[q] = i
            qp[p] = q
    for c in range(nc, 0, -1):
        cp[c] = cp[c - 1]
    cp[0] = 0
    return nnz


def masked_spgemm(
    nr, indptr, cols, qp, cp, ri, w, acc, mark, touch, out_r, out_c, out_v, cap
):
    """Strict-upper-triangle triples of ``(Y·diag(w))·Yᵀ``.

    Y comes in as its CSR pattern (``indptr``/``cols``) plus the CSC from
    :func:`csr_to_csc` (``cp``/``ri`` ascending rows, ``qp`` mapping CSR
    entry → CSC position).  Row-wise Gustavson restricted to upper pairs:
    rows are ascending within each CSC column, so for an entry of row
    ``i`` every later entry in the same column is a partner ``j > i`` —
    the suffix starting right after ``qp[p]``.  Returns the triple count,
    or ``-needed`` when ``cap`` is too small (counting continues without
    writing so the caller can size the retry).

    Workspaces (caller-provided, any contents): ``acc`` int64[nr],
    ``mark``/``touch`` int32[nr].
    """
    for i in range(nr):
        mark[i] = -1
    out_n = 0
    for i in range(nr):
        nt = 0
        for p in range(indptr[i], indptr[i + 1]):
            c = cols[p]
            wc = w[c]
            for q in range(qp[p] + 1, cp[c + 1]):
                j = ri[q]
                if mark[j] != i:
                    mark[j] = i
                    acc[j] = wc
                    touch[nt] = j
                    nt += 1
                else:
                    acc[j] += wc
        if out_n + nt <= cap:
            for t in range(nt):
                j = touch[t]
                out_r[out_n] = i
                out_c[out_n] = j
                out_v[out_n] = acc[j]
                out_n += 1
        else:
            out_n += nt  # count on, write nothing: sizes the retry
    if out_n > cap:
        return -out_n
    return out_n


def pack_triples(n, rows, cols, pmap, use_map, keys):
    """Rewrite one run's local COO triples as packed ``(global_row << 32
    | global_col)`` sort keys, mapping local ids through ``pmap`` when
    ``use_map`` is nonzero — the gather and the key packing fused into
    one pass.
    """
    if use_map:
        for t in range(n):
            keys[t] = (pmap[rows[t]] << 32) | pmap[cols[t]]
    else:
        # rows/cols are int32: widen before shifting
        for t in range(n):
            keys[t] = (np.int64(rows[t]) << 32) | np.int64(cols[t])
    return 0


def keys_to_csr(keys, n_tr, n_rows, indptr, cols_out):
    """Dedup *globally sorted* packed triple keys into the canonical CSR
    pattern (``indptr`` int32[n_rows+1], ``cols_out`` capacity n_tr) in
    one linear scan.  Returns the deduped nnz.
    """
    nnz = 0
    row = 0
    prev = -1
    indptr[0] = 0
    for i in range(n_tr):
        k = keys[i]
        if k == prev:
            continue
        prev = k
        r = k >> 32
        while row < r:
            row += 1
            indptr[row] = nnz
        cols_out[nnz] = k & 0xFFFFFFFF
        nnz += 1
    while row < n_rows:
        row += 1
        indptr[row] = nnz
    return nnz


def fill_values(
    n_runs,
    run_ptr,
    keys,
    vals,
    n_rows,
    indptr,
    cols_out,
    acc,
    mark,
    cursor,
    vals_out,
):
    """Sum duplicate triple values into the canonical CSR's value array.

    The *unsorted* keys come as ``n_runs`` concatenated runs (``run_ptr``
    boundaries, one run per pack) with rows non-decreasing within each
    run: the SpGEMM emits rows ascending and the pack map is sorted, so
    mapping preserves the order.  Walk the global rows once, draining
    every run's prefix for the current row into the dense accumulator,
    then emit the row's values in the canonical column order
    :func:`keys_to_csr` fixed.

    Scratch (caller-provided, any contents): ``acc`` int64[n_rows],
    ``mark`` int32[n_rows], ``cursor`` int64[n_runs].
    """
    for c in range(n_rows):
        mark[c] = -1
    for u in range(n_runs):
        cursor[u] = run_ptr[u]
    for r in range(n_rows):
        for u in range(n_runs):
            s = cursor[u]
            e = run_ptr[u + 1]
            while s < e and (keys[s] >> 32) == r:
                c = keys[s] & 0xFFFFFFFF
                if mark[c] != r:
                    mark[c] = r
                    acc[c] = vals[s]
                else:
                    acc[c] += vals[s]
                s += 1
            cursor[u] = s
        for k in range(indptr[r], indptr[r + 1]):
            vals_out[k] = acc[cols_out[k]]
    return 0


def edge_triangles(upper):
    """Triangle count of every stored edge of a canonical strict-upper
    CSR: ``tri[e] = |N(i) ∩ N(j)|`` for the e-th edge ``(i, j)``.

    Row-wise sparse dot products over fixed-size edge blocks: gather the
    full neighbour rows of both endpoints and let scipy's elementwise
    product merge them, so only closed wedges are ever stored.
    """
    n = upper.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(upper.indptr))
    cols = upper.indices
    if (rows >= cols).any():
        raise AnalysisError("edge_triangles needs a strict upper triangular CSR")
    pattern = sp.csr_matrix(
        (np.ones(upper.nnz, dtype=np.int64), cols, upper.indptr),
        shape=upper.shape,
    )
    sym = (pattern + pattern.T).tocsr()
    tri = np.zeros(upper.nnz, dtype=np.int64)
    for lo in range(0, upper.nnz, _EDGE_BLOCK):
        hi = lo + _EDGE_BLOCK
        closed = sym[rows[lo:hi]].multiply(sym[cols[lo:hi]])
        tri[lo:hi] = np.asarray(closed.sum(axis=1)).ravel()
    return tri


def induced_subgraph(sym, persons):
    """Rows and columns ``persons`` of CSR ``sym``, re-indexed by
    position in ``persons`` — scipy's own two-step fancy indexing."""
    return sym[persons][:, persons].tocsr()
