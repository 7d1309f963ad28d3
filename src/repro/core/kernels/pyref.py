"""Numpy/scipy twins of the C graph kernels.

:func:`edge_triangles`, :func:`induced_sum` and
:func:`upper_frontier` are what
:mod:`.graph` runs when the C extension is unavailable or the input is
outside its typed layout: vectorized, fast enough to be the production
fallback, bit-identical to the C versions by contract.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...errors import AnalysisError
from ..adjacency import strictly_upper

__all__ = ["edge_triangles", "induced_sum", "upper_frontier"]

#: edges per block in :func:`edge_triangles`: bounds the two gathered
#: row blocks to a few MB whatever the graph size (fresh pages, not
#: arithmetic, are what a larger block pays for)
_EDGE_BLOCK = 1 << 13


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


def upper_frontier(parts, mark, hi):
    """Neighbours of the marked vertices (highest id *hi*) over
    strict-upper CSR *parts*: each marked row's columns, plus every row
    up to *hi* that holds a marked column."""
    near = np.zeros(len(mark), dtype=bool)
    for part in parts:
        indptr, indices = part.indptr, part.indices
        lens = np.diff(indptr[: hi + 2])
        if indptr[0] != 0 or (lens < 0).any() or indptr[hi + 1] > len(indices):
            raise AnalysisError("upper_frontier: malformed CSR part")
        rows = np.repeat(np.arange(hi + 1), lens)
        cols = indices[: indptr[hi + 1]]
        if ((cols <= rows) | (cols >= len(mark))).any():
            raise AnalysisError(
                "upper_frontier needs strict upper triangular CSR parts"
            )
        near[cols[mark[rows]]] = True
        near[rows[mark[cols]]] = True
    return near


def induced_sum(parts, persons):
    """Each part's rows and columns ``persons`` (scipy's two-step fancy
    indexing), summed with scipy's pairwise ``+`` (zeros dropped,
    canonical)."""
    if not all(strictly_upper(part) for part in parts):
        raise AnalysisError("induced_sum needs strict upper triangular CSR parts")
    out = parts[0][persons][:, persons].tocsr()
    for part in parts[1:]:
        out = out + part[persons][:, persons]
    out.sum_duplicates()
    out.eliminate_zeros()
    return out
