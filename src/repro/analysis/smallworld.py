"""Small-world metrics: path lengths and the small-world coefficient.

The paper frames collocation networks against Watts–Strogatz small-world
[4] and scale-free [19] references ("Large clustering coefficients are
typically found in scale-free and Small-World networks compared to random
graphs").  This module quantifies that framing:

* :func:`sampled_path_lengths` — BFS shortest-path lengths from a vertex
  sample (exact all-pairs is infeasible at 10⁶ vertices; sampling is the
  standard estimator);
* :func:`small_world_sigma` — σ = (C/C_rand)/(L/L_rand) against a
  degree-matched Erdős–Rényi baseline; σ ≫ 1 indicates a small world.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from ..core.adjacency import triu_symmetrize
from ..core.network import CollocationNetwork
from ..errors import AnalysisError
from .clustering import local_clustering, mean_clustering

__all__ = ["PathLengthStats", "sampled_path_lengths", "small_world_sigma"]


@dataclass
class PathLengthStats:
    """Shortest-path statistics from a BFS sample."""

    mean_length: float
    max_length: int
    n_sources: int
    reachable_fraction: float


def _bfs_distances(adj: sp.csr_matrix, source: int) -> np.ndarray:
    """Hop distances from *source* (-1 for unreachable)."""
    order, predecessors = breadth_first_order(
        adj, source, directed=False, return_predecessors=True
    )
    n = adj.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    # walk the BFS tree in visitation order: dist[v] = dist[pred[v]] + 1
    for v in order[1:]:
        dist[v] = dist[predecessors[v]] + 1
    return dist


def sampled_path_lengths(
    network: CollocationNetwork | sp.spmatrix,
    n_sources: int,
    rng: np.random.Generator,
) -> PathLengthStats:
    """Estimate mean/max shortest path length by BFS from random sources."""
    adj = (
        triu_symmetrize(network.adjacency)
        if isinstance(network, CollocationNetwork)
        else sp.csr_matrix(network)
    )
    n = adj.shape[0]
    degrees = np.diff(adj.indptr)
    eligible = np.flatnonzero(degrees > 0)
    if len(eligible) == 0:
        raise AnalysisError("network has no connected vertices")
    sources = rng.choice(eligible, size=min(n_sources, len(eligible)), replace=False)
    total = 0.0
    count = 0
    longest = 0
    reachable = 0
    for s in sources:
        dist = _bfs_distances(adj, int(s))
        found = dist > 0
        reachable += int(found.sum())
        if found.any():
            total += float(dist[found].sum())
            count += int(found.sum())
            longest = max(longest, int(dist[found].max()))
    if count == 0:
        raise AnalysisError("no finite path lengths found")
    return PathLengthStats(
        mean_length=total / count,
        max_length=longest,
        n_sources=len(sources),
        reachable_fraction=reachable / (len(sources) * max(n - 1, 1)),
    )


def small_world_sigma(
    network: CollocationNetwork,
    n_sources: int = 24,
    seed: int = 0,
) -> dict[str, float]:
    """σ = (C/C_rand) / (L/L_rand) against an Erdős–Rényi baseline with the
    same vertex and edge counts.

    Returns a dict with ``C``, ``C_rand``, ``L``, ``L_rand``, ``sigma``.
    σ ≫ 1 ⇒ small-world (high clustering, short paths).
    """
    from ..netgen import erdos_renyi

    rng = np.random.default_rng(seed)
    degrees = network.degrees()
    c = mean_clustering(local_clustering(network), degrees)
    paths = sampled_path_lengths(network, n_sources, rng)

    rand = erdos_renyi(network.n_persons, network.n_edges, rng)
    c_rand = mean_clustering(local_clustering(rand), rand.degrees())
    rand_paths = sampled_path_lengths(rand, n_sources, rng)

    c_rand = max(c_rand, 1e-9)
    l_ratio = paths.mean_length / max(rand_paths.mean_length, 1e-9)
    sigma = (c / c_rand) / max(l_ratio, 1e-9)
    return {
        "C": c,
        "C_rand": c_rand,
        "L": paths.mean_length,
        "L_rand": rand_paths.mean_length,
        "sigma": sigma,
    }
