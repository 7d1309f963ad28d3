"""Adjacency matrix computation: ``A_l = x·xᵀ`` and accumulation.

"The multiplication x·xᵀ sums all of the times each person collocates with
every other person" at a place; the network adjacency is the sum over
places, "stored as a sparse triangular matrix which provides significant
memory and processing time savings compared to using a full, dense
matrix."

Matrices are accumulated in **global person coordinates** as upper
triangular CSR (row < col), weights = collocated hours; the diagonal
(self-collocation) is dropped.  The per-place product runs in *local*
coordinates (participants only) and is mapped back to global ids, so the
cost of a place scales with its participants, not the population.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import SynthesisError
from .colloc import CollocationMatrix
from .kernels import kernel_stage

__all__ = [
    "place_adjacency",
    "accumulate_adjacency",
    "sum_adjacency_list",
    "triu_symmetrize",
    "pattern_degrees",
    "empty_adjacency",
]


def place_adjacency(colloc: CollocationMatrix, n_persons: int) -> sp.coo_matrix:
    """``A_l = x·xᵀ`` for one place, in global person coordinates.

    Returns a strict upper-triangular COO matrix of shape ``(n_persons,
    n_persons)``; entry ``(i, j)`` counts the hours persons *i* and *j*
    were simultaneously at the place.  The diagonal (hours the person was
    simply present) is discarded.
    """
    if colloc.persons.size and int(colloc.persons.max()) >= n_persons:
        raise SynthesisError("collocation matrix references person outside population")
    x = colloc.matrix
    # The full symmetric product is unavoidable: scipy's csr_matmat has no
    # triangular-only mode (cf. its `tril`/`triu`, which filter *after* the
    # product), so the lower half is computed either way.  What we can
    # avoid is touching it again afterwards: mask in local coordinates
    # first, then gather global ids for the surviving (upper) half only —
    # local persons are sorted ascending, so local row < col iff global
    # row < col.
    local = (x @ x.T).tocoo()  # local person × local person, hour counts
    keep = local.row < local.col
    data = local.data[keep].astype(np.int64)
    if len(colloc.persons) == n_persons:
        # identity person map: the matrix covers the whole population, so
        # local coordinates already are global — skip the gather
        rows, cols = local.row[keep], local.col[keep]
    else:
        g = colloc.persons.astype(np.int64)
        rows, cols = g[local.row[keep]], g[local.col[keep]]
    return sp.coo_matrix((data, (rows, cols)), shape=(n_persons, n_persons))


def empty_adjacency(n_persons: int) -> sp.csr_matrix:
    """All-zero upper-triangular adjacency."""
    return sp.csr_matrix((n_persons, n_persons), dtype=np.int64)


def accumulate_adjacency(
    parts: Iterable[sp.spmatrix],
    n_persons: int,
) -> sp.csr_matrix:
    """Sum adjacency contributions into one deduplicated CSR.

    Concatenates all COO triples and lets one ``tocsr`` do the merge —
    ``tocsr`` already sums duplicate coordinates and sorts indices, so the
    result is canonical without a separate ``sum_duplicates`` pass.  Far
    cheaper than repeated ``csr + csr`` for many small parts.
    """
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    for part in parts:
        coo = part.tocoo()
        if len(coo.data) == 0:
            continue
        # scipy guarantees coordinates within shape, so a shape check
        # bounds every entry without rescanning the index arrays
        if coo.shape != (n_persons, n_persons):
            raise SynthesisError("adjacency part shaped outside population")
        # coordinate dtype is whatever scipy indexed with (int32 for
        # in-bounds shapes); coo_matrix below accepts any integer dtype,
        # so no astype copies here — only the weights are fixed to int64
        row_parts.append(coo.row)
        col_parts.append(coo.col)
        data_parts.append(coo.data.astype(np.int64, copy=False))
    if not row_parts:
        return empty_adjacency(n_persons)
    rows = np.concatenate(row_parts)
    cols = np.concatenate(col_parts)
    data = np.concatenate(data_parts)
    if np.any(rows >= cols):
        raise SynthesisError("accumulate_adjacency expects strict upper triangles")
    return sp.coo_matrix(
        (data, (rows, cols)), shape=(n_persons, n_persons)
    ).tocsr()


def triu_symmetrize(adj: sp.spmatrix) -> sp.csr_matrix:
    """Expand an upper-triangular adjacency to its full symmetric form."""
    adj = adj.tocsr()
    return (adj + adj.T).tocsr()


def pattern_degrees(upper: sp.csr_matrix) -> np.ndarray:
    """Vertex degrees (int64) from a canonical strict-upper pattern:
    entries in a vertex's own row plus entries naming it as a column."""
    return np.diff(upper.indptr).astype(np.int64) + np.bincount(
        upper.indices, minlength=upper.shape[0]
    )


def sum_adjacency_list(
    matrices: Sequence[CollocationMatrix],
    n_persons: int,
) -> sp.csr_matrix:
    """A worker's job: ``Σ place_adjacency(x)`` over its matrix share.

    "Each worker finally sums the set of adjacency matrices it has created
    and returns a single adjacency matrix to the root process."

    Scipy only: this is the oracle's arithmetic and shares none with the
    interval-pack product (:func:`~repro.core.intervals.sum_pack_adjacency`).
    """
    live = [m for m in matrices if m.matrix.nnz]
    if not live:
        return empty_adjacency(n_persons)
    with kernel_stage("spgemm"):
        parts = [place_adjacency(m, n_persons) for m in live]
    with kernel_stage("accumulate"):
        return accumulate_adjacency(parts, n_persons)
