"""Local clustering coefficient (Figure 4).

"The local clustering coefficient, or transitivity, is calculated for each
person vertex in the collocation network and describes the local
connectedness of each vertex's neighbors via the ratio of connected edge
triangles and triples centered on the vertex."

Computed per edge, never per wedge: with binary symmetric adjacency *A*,
the masked product ``(A·A) ∘ A`` counts the triangles through every edge,
and the triangles through vertex *i* are half the sum over its incident
edges.  :func:`repro.core.kernels.graph.edge_triangles` computes that
product over the strict upper triangle without materializing ``A·A`` —
no per-vertex Python loops, no intermediate larger than the edge list —
and is cross-validated against networkx in the tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import AnalysisError
from ..core.adjacency import pattern_degrees
from ..core.kernels.graph import edge_triangles
from ..core.network import CollocationNetwork

__all__ = ["local_clustering", "clustering_histogram", "mean_clustering"]


def strict_upper(network: CollocationNetwork | sp.spmatrix) -> sp.csr_matrix:
    """The graph's strict upper triangle, weights kept.  A raw matrix
    must be a valid undirected adjacency; explicit zeros are no edges."""
    if isinstance(network, CollocationNetwork):
        return network.adjacency
    m = sp.csr_matrix(network)
    if m.shape[0] != m.shape[1] or m.diagonal().any() or (m != m.T).nnz:
        raise AnalysisError(
            "adjacency must be square, symmetric and zero on the diagonal"
        )
    upper = sp.triu(m, k=1, format="csr")
    upper.eliminate_zeros()
    return upper


def incident_sum(edge_values: sp.csr_matrix) -> np.ndarray:
    """Per vertex, the sum of an upper-triangular per-edge quantity over
    the vertex's incident edges."""
    by_row = np.asarray(edge_values.sum(axis=1)).ravel()
    return by_row + np.asarray(edge_values.sum(axis=0)).ravel()


def local_clustering(network: CollocationNetwork | sp.spmatrix) -> np.ndarray:
    """Per-vertex local clustering coefficient in [0, 1].

    Vertices with degree < 2 get coefficient 0 (consistent with igraph's
    ``transitivity_local`` NaN→excluded convention being mapped to 0 for
    histogramming).
    """
    closed = edge_triangles(strict_upper(network))
    degrees = pattern_degrees(closed)
    triangles = incident_sum(closed) // 2
    coeff = np.zeros(len(degrees), dtype=np.float64)
    can = degrees >= 2
    possible = degrees[can] * (degrees[can] - 1) / 2
    coeff[can] = triangles[can] / possible
    if coeff.size and (coeff.max() > 1.0 + 1e-9 or coeff.min() < 0):
        raise AnalysisError("clustering coefficient outside [0, 1]")
    return np.clip(coeff, 0.0, 1.0)


def clustering_histogram(
    coefficients: np.ndarray,
    n_bins: int = 20,
    degrees: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of local clustering coefficients (Figure 4).

    Returns ``(bin_edges, counts)`` with ``n_bins`` equal bins over [0, 1].
    When ``degrees`` is given, vertices with degree < 2 are excluded (they
    have no defined coefficient), matching the paper's per-person-vertex
    histogram.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if degrees is not None:
        coefficients = coefficients[np.asarray(degrees) >= 2]
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    counts, _ = np.histogram(coefficients, bins=edges)
    return edges, counts.astype(np.int64)


def mean_clustering(
    coefficients: np.ndarray, degrees: np.ndarray | None = None
) -> float:
    """Mean local clustering over vertices with a defined coefficient."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if degrees is not None:
        coefficients = coefficients[np.asarray(degrees) >= 2]
    return float(coefficients.mean()) if coefficients.size else 0.0
