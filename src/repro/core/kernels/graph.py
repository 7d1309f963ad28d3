"""Graph kernels for the Section V analysis: the three entry points.

:func:`edge_triangles`
    the masked product ``(A·A)∘A`` — triangles through every edge — that
    both clustering coefficients reduce to, computed without ever
    materializing the wedge matrix ``A·A``.
:func:`induced_sum`
    the strict-upper partial adjacencies of a network gathered on a
    vertex list and summed in one pass — an ego subgraph before its
    mirror, a within-group subnetwork.
:func:`upper_frontier`
    one breadth-first step over the strict-upper partial adjacencies
    whose sum is a network, without composing or mirroring them.

Each runs in the compiled extension (:mod:`.cext`) when it loaded and
the input fits its typed layout (int32 indices, int64 values), else in
the numpy/scipy twin from :mod:`.pyref` — bit-identical by contract, so
there is nothing to select.  The triangle count and the gather are
traced (``analysis.triangles`` / ``analysis.induced_subgraph`` span plus
``stage.analysis.*`` registry clocks); a frontier step, one per hop of
an ego network, opens no span of its own.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from ...errors import AnalysisError
from ...obs import count, start_span
from . import pyref
from .cext import load_cext
from .masked import in_sum_layout
from .workspace import get_workspace

__all__ = ["edge_triangles", "induced_sum", "upper_frontier"]


@contextmanager
def _traced(name: str, **attrs):
    """One span per kernel call, its wall also counted as the stage
    ``stage.<name>.seconds`` / ``.calls``."""
    span = start_span(name, attrs=attrs)
    try:
        with span:
            yield
    finally:
        count(f"stage.{name}.seconds", span.duration)
        count(f"stage.{name}.calls")


def edge_triangles(upper: sp.csr_matrix) -> sp.csr_matrix:
    """Triangles through every edge of an undirected graph.

    ``upper`` is the graph's strict upper triangle in CSR (values are
    ignored).  Returns a CSR over its canonical pattern — sorted,
    duplicate-free — whose int64 value at ``(i, j)`` is the number of
    common neighbours of *i* and *j*; edges in no triangle are stored as
    explicit zeros so the pattern stays the graph.  An input that is not
    in canonical format is canonicalized on a copy first.
    """
    if not upper.has_canonical_format:
        upper = upper.copy()
        upper.sum_duplicates()
        upper.eliminate_zeros()
    n = upper.shape[0]
    with _traced("analysis.triangles", n=n, edges=int(upper.nnz)):
        kernels = load_cext()
        if kernels is not None and upper.indices.dtype == np.int32:
            tri = np.empty(upper.nnz, dtype=np.int64)
            pos = get_workspace().take("tri_pos", n, np.int32)
            if kernels.edge_triangles(n, upper.indptr, upper.indices, pos, tri):
                raise AnalysisError(
                    "edge_triangles needs a strict upper triangular CSR"
                )
        else:
            tri = pyref.edge_triangles(upper)
    count("analysis.triangles_total", int(tri.sum()) // 3)
    out = sp.csr_matrix((tri, upper.indices, upper.indptr), shape=upper.shape)
    out.has_canonical_format = True
    return out


def upper_frontier(parts: "list[sp.csr_matrix]", mark: np.ndarray) -> np.ndarray:
    """Neighbours of the marked vertices in the network ``Σ parts``.

    *parts* are ``(n, n)`` strict-upper CSR matrices (values are
    ignored) and *mark* a bool[n]; returns the bool[n] mask of every
    vertex adjacent, in any part, to a marked one.  An edge is stored
    once, above the diagonal, so a marked row's columns are its
    out-neighbours and a row holding a marked column is an in-neighbour:
    one pass over the rows up to the highest marked id finds both, and
    neither the sum nor its symmetric form is ever built.
    """
    mark = np.ascontiguousarray(mark, dtype=bool)
    n = len(mark)
    marked = np.flatnonzero(mark)
    if not len(marked):
        return np.zeros(n, dtype=bool)
    hi = int(marked[-1])
    kernels = load_cext()
    if kernels is None or not all(in_sum_layout(p, n) for p in parts):
        return pyref.upper_frontier(parts, mark, hi)
    near = np.zeros(n, dtype=np.uint8)
    if kernels.upper_frontier(n, parts, mark.view(np.uint8), hi, near):
        raise AnalysisError(
            "upper_frontier needs strict upper triangular CSR parts"
        )
    return near.view(bool)


def induced_sum(parts: "list[sp.csr_matrix]", persons: np.ndarray) -> sp.csr_matrix:
    """``Σ parts`` induced on ``persons`` (strictly ascending ids),
    re-indexed by position: the canonical strict-upper CSR
    ``sum_partials([p[persons][:, persons] for p in parts])`` in one
    pass, with no per-part gather ever materialized.  *parts* are
    canonical strict-upper ``(n, n)`` partial adjacencies."""
    persons = np.ascontiguousarray(persons, dtype=np.int64)
    n, k = parts[0].shape[0], len(persons)
    if k and (persons[0] < 0 or persons[-1] >= n):
        raise AnalysisError("subgraph persons outside population")
    if k > 1 and not (persons[1:] > persons[:-1]).all():
        raise AnalysisError("subgraph persons must be strictly ascending")
    with _traced("analysis.induced_subgraph", nodes=k, parts=len(parts)):
        kernels = load_cext()
        if kernels is None or not all(in_sum_layout(p, n) for p in parts):
            return pyref.induced_sum(parts, persons)
        local = np.full(n, -1, dtype=np.int32)
        local[persons] = np.arange(k, dtype=np.int32)
        cap = sum(
            int((p.indptr[persons + 1] - p.indptr[persons]).sum()) for p in parts
        )
        indptr = np.empty(k + 1, dtype=np.int32)
        indices = np.empty(cap, dtype=np.int32)
        data = np.empty(cap, dtype=np.int64)
        ws = get_workspace()
        scratch = [
            (
                ws.take(f"ind_c{i}", max(k, 1), np.int32),
                ws.take(f"ind_v{i}", max(k, 1), np.int64),
            )
            for i in range(3)
        ]
        nnz = kernels.induced_sum(
            n, parts, persons, local, indptr, indices, data, scratch
        )
        if nnz < 0:
            raise AnalysisError(
                "induced_sum needs canonical strict upper triangular CSR parts"
            )
        indices.resize(nnz, refcheck=False)
        data.resize(nnz, refcheck=False)
        out = sp.csr_matrix((data, indices, indptr), shape=(k, k))
        out.has_canonical_format = True
        return out
