"""Weighted network statistics and assortativity.

The paper's conclusion calls for exactly this: "Further exploration of
this approach to generate realistic social network structures will need to
identify additional network statistics and their relative contributions to
the features of the network."  The collocation network is inherently
weighted (hours collocated), so the natural additions are:

* :func:`strength_distribution` — vertex strength (total collocated
  hours), the weighted analogue of Figure 3;
* :func:`edge_weight_distribution` — how long pairs stay collocated
  (households ≈ weeks, venue strangers ≈ an hour);
* :func:`weighted_clustering` — Barrat et al.'s weighted local clustering;
* :func:`degree_assortativity` — Newman's degree-correlation coefficient
  (social networks are typically assortative).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.adjacency import pattern_degrees
from ..core.kernels.graph import edge_triangles
from ..core.network import CollocationNetwork
from ..errors import AnalysisError
from .clustering import incident_sum, strict_upper
from .degree import DegreeDistribution, degree_distribution

__all__ = [
    "strength_distribution",
    "edge_weight_distribution",
    "weighted_clustering",
    "degree_assortativity",
]


def strength_distribution(network: CollocationNetwork) -> DegreeDistribution:
    """Distribution of vertex strength (total collocated hours/person)."""
    return degree_distribution(network.weighted_degrees())


def edge_weight_distribution(
    network: CollocationNetwork,
) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, counts)``: how many pairs share w collocated hours."""
    data = network.adjacency.data
    if len(data) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    weights, counts = np.unique(data, return_counts=True)
    return weights.astype(np.int64), counts.astype(np.int64)


def weighted_clustering(
    network: CollocationNetwork | sp.spmatrix,
) -> np.ndarray:
    """Barrat weighted local clustering coefficient per vertex.

    ``c_w(i) = 1/(s_i (k_i - 1)) Σ_{jh} (w_ij + w_ih)/2 · a_ij a_ih a_jh``
    where ``s_i`` is strength and ``k_i`` degree.  Reduces to the binary
    coefficient when all weights are equal.
    """
    upper = strict_upper(network)
    closed = edge_triangles(upper)
    degrees = pattern_degrees(closed)
    strength = incident_sum(upper).astype(np.float64)
    # Σ_j w_ij · (#triangles through edge ij) accounts for (w_ij)/2 twice
    contrib = incident_sum(upper.multiply(closed)).astype(np.float64)
    coeff = np.zeros(len(degrees), dtype=np.float64)
    can = degrees >= 2
    coeff[can] = contrib[can] / (strength[can] * (degrees[can] - 1))
    if coeff.size and (coeff.min() < -1e-9 or coeff.max() > 1.0 + 1e-9):
        raise AnalysisError("weighted clustering outside [0, 1]")
    return np.clip(coeff, 0.0, 1.0)


def degree_assortativity(network: CollocationNetwork) -> float:
    """Newman degree assortativity r ∈ [-1, 1] (unweighted).

    Pearson correlation of degrees across edge endpoints; positive r means
    hubs link to hubs (typical of social networks).
    """
    degrees = network.degrees().astype(np.float64)
    coo = network.adjacency.tocoo()
    if coo.nnz == 0:
        raise AnalysisError("assortativity undefined on an empty network")
    x = degrees[coo.row]
    y = degrees[coo.col]
    # undirected: each edge contributes both orientations
    xs = np.concatenate([x, y])
    ys = np.concatenate([y, x])
    mx = xs.mean()
    num = np.mean(xs * ys) - mx * mx
    den = np.mean(xs * xs) - mx * mx
    if den == 0:
        return 0.0
    return float(num / den)
