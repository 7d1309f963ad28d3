"""Numpy/scipy twins of the C graph kernels.

:func:`edge_triangles` and :func:`induced_subgraph` are what
:mod:`.graph` runs when the C extension is unavailable or the input is
outside its typed layout: vectorized, fast enough to be the production
fallback, bit-identical to the C versions by contract.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...errors import AnalysisError

__all__ = ["edge_triangles", "induced_subgraph"]

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


def induced_subgraph(sym, persons):
    """Rows and columns ``persons`` of CSR ``sym``, re-indexed by
    position in ``persons`` — scipy's own two-step fancy indexing."""
    return sym[persons][:, persons].tocsr()
