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

Partial adjacencies — a tile's, a fringe's, a batch's, a shard's, a
week's — are summed by one fold, :func:`sum_partials`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import SynthesisError
from .colloc import CollocationMatrix
from .kernels import kernel_stage
from .kernels.masked import csr_mirror, csr_sum
from .kernels.workspace import count_twin

__all__ = [
    "place_adjacency",
    "accumulate_adjacency",
    "sum_adjacency_list",
    "sum_partials",
    "strictly_upper",
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


def strictly_upper(adj: sp.csr_matrix) -> bool:
    """Whether every stored entry of the square CSR *adj* lies strictly
    above the diagonal and inside the matrix.

    O(n) on canonical input — each non-empty row's first column is above
    the row and its last column below n — and one O(nnz) scan otherwise.
    """
    n = adj.shape[0]
    indptr, indices = adj.indptr, adj.indices
    if adj.has_canonical_format:
        full = indptr[:-1] < indptr[1:]
        return bool(
            (indices[indptr[:-1][full]] > np.flatnonzero(full)).all()
            and (indices[indptr[1:][full] - 1] < n).all()
        )
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    return bool((rows < indices[: len(rows)]).all() and (indices < n).all())


def _check_partial(part: sp.csr_matrix, n_persons: int) -> None:
    """Refuse what the pairwise twin must not be handed: anything but an
    ``(n, n)`` CSR with a sound ``indptr`` and strict-upper entries."""
    if not (sp.issparse(part) and part.format == "csr"):
        raise SynthesisError("partial adjacency must be a CSR matrix")
    if part.shape != (n_persons, n_persons):
        raise SynthesisError("partial adjacency shaped outside population")
    indptr, nnz = part.indptr, len(part.indices)
    if (
        len(indptr) != n_persons + 1
        or indptr[0] != 0
        or indptr[-1] != nnz
        or len(part.data) != nnz
        or (np.diff(indptr) < 0).any()
    ):
        raise SynthesisError("partial adjacency has an unsound indptr")
    if not strictly_upper(part):
        raise SynthesisError(
            "partial adjacency has an entry outside the strict upper triangle"
        )


def sum_partials(
    parts: Sequence[sp.csr_matrix], n_persons: int
) -> sp.csr_matrix:
    """The one fold for partial adjacencies: ``Σ parts`` as a canonical CSR.

    "The adjacency matrices are simply summed": every composition of
    canonical strict-upper ``(n_persons, n_persons)`` partials — a window
    from its tiles and fringes, a tile from its two children, a run from
    its batches or shards, a series from its weeks — goes through here.
    Integer addition of canonical matrices has a unique canonical result,
    so the sum is bit-identical in any order and to the one-shot
    accumulation a direct synthesis does.  Zero sums are dropped; the
    result never aliases an input (one part is copied).

    Runs in one compiled k-way pass when
    :func:`~repro.core.kernels.masked.csr_sum` takes the parts; scipy's
    pairwise ``+`` below it is the bit-identical twin (counted as
    ``kernels.csr_sum.twin``).  A malformed part raises
    :class:`~repro.errors.SynthesisError` on both.
    """
    parts = list(parts)
    if not parts:
        return empty_adjacency(n_persons)
    out = csr_sum(parts, n_persons)
    if out is not None:
        return out
    count_twin("csr_sum")
    for part in parts:
        _check_partial(part, n_persons)
    out = parts[0]
    # one part still goes through + once: a copy, zeros dropped
    for part in parts[1:] or [empty_adjacency(n_persons)]:
        out = out + part
    out.sum_duplicates()  # + leaves non-canonical parts' rows unsorted
    return out


def triu_symmetrize(adj: sp.spmatrix) -> sp.csr_matrix:
    """Expand a strict upper-triangular adjacency to its full symmetric
    form, canonical and with zeros dropped.

    Runs in one compiled pass when
    :func:`~repro.core.kernels.masked.csr_mirror` takes the matrix;
    scipy's ``adj + adj.T`` below it is the bit-identical twin.  An entry
    on or below the diagonal raises
    :class:`~repro.errors.SynthesisError` on both.
    """
    adj = adj.tocsr()
    out = csr_mirror(adj)
    if out is not None:
        return out
    if not strictly_upper(adj):
        raise SynthesisError("adjacency to mirror is not strictly upper triangular")
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
