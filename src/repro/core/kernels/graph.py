"""Graph kernels for the Section V analysis: the two entry points.

:func:`edge_triangles`
    the masked product ``(A·A)∘A`` — triangles through every edge — that
    both clustering coefficients reduce to, computed without ever
    materializing the wedge matrix ``A·A``.
:func:`induced_subgraph`
    ``sym[persons][:, persons]`` in one gather pass, for ego networks
    and within-group subnetworks.

Each runs in the compiled extension (:mod:`.cext`) when it loaded and
the input fits its typed layout (int32 indices, int64 values), else in
the numpy/scipy twin from :mod:`.pyref` — bit-identical by contract, so
there is nothing to select.  Both calls are traced (``analysis.*`` span
plus ``stage.analysis.*`` registry clocks).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from ...errors import AnalysisError
from ...obs import count, start_span
from . import pyref
from .cext import load_cext
from .workspace import get_workspace

__all__ = ["edge_triangles", "induced_subgraph"]


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


def induced_subgraph(sym: sp.csr_matrix, persons: np.ndarray) -> sp.csr_matrix:
    """Induced submatrix of CSR ``sym`` on ``persons`` (strictly
    ascending ids), re-indexed by position in ``persons``: the same
    ``data``/``indices``/``indptr`` as ``sym[persons][:, persons]``."""
    persons = np.ascontiguousarray(persons, dtype=np.int64)
    n, k = sym.shape[0], len(persons)
    if k and (persons[0] < 0 or persons[-1] >= n):
        raise AnalysisError("subgraph persons outside population")
    if k > 1 and not (persons[1:] > persons[:-1]).all():
        raise AnalysisError("subgraph persons must be strictly ascending")
    with _traced("analysis.induced_subgraph", nodes=k):
        kernels = load_cext()
        if (
            kernels is None
            or sym.indices.dtype != np.int32
            or sym.data.dtype != np.int64
        ):
            return pyref.induced_subgraph(sym, persons)
        local = np.full(n, -1, dtype=np.int32)
        local[persons] = np.arange(k, dtype=np.int32)
        cap = int((sym.indptr[persons + 1] - sym.indptr[persons]).sum())
        indptr = np.empty(k + 1, dtype=np.int32)
        indices = np.empty(cap, dtype=np.int32)
        data = np.empty(cap, dtype=np.int64)
        nnz = kernels.induced_subgraph(
            persons, n, sym.indptr, sym.indices, sym.data, local,
            indptr, indices, data,
        )
        if nnz < 0:
            raise AnalysisError("induced_subgraph: malformed CSR input")
        return sp.csr_matrix(
            (data[:nnz].copy(), indices[:nnz].copy(), indptr), shape=(k, k)
        )
