"""Radius-k ego subgraphs (Figures 1 and 2).

"Local network structures can be observed by selecting individuals and
finding all adjacent vertices to create set V₁ and then all adjacent
vertices to V₁ to create set V₂.  The union V = V₁ ∪ V₂ contains all
vertices within a graph radius of two from the original selected
individual ... all edges between nodes in the set V are preserved."

The BFS advances a boolean-mask frontier over CSR rows; the induced
subgraph (one gather pass, :mod:`repro.core.kernels.graph`) keeps edge
weights so layouts can use collocation hours as spring strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import AnalysisError
from ..core.kernels.graph import induced_subgraph
from ..core.network import CollocationNetwork
from ..obs import count

__all__ = ["EgoNetwork", "ego_network", "sample_ego_networks"]


@dataclass
class EgoNetwork:
    """An induced subgraph around a center person.

    Attributes
    ----------
    center:
        the sampled person id (global).
    persons:
        sorted global ids of all vertices within the radius (center
        included).
    matrix:
        symmetric weighted CSR over local indices aligned with
        ``persons``.
    radius:
        the BFS radius used.
    """

    center: int
    persons: np.ndarray
    matrix: sp.csr_matrix
    radius: int

    @property
    def n_nodes(self) -> int:
        return len(self.persons)

    @property
    def n_edges(self) -> int:
        return int(self.matrix.nnz // 2)

    @property
    def center_local(self) -> int:
        return int(np.searchsorted(self.persons, self.center))

    def degrees(self) -> np.ndarray:
        return np.diff(self.matrix.indptr).astype(np.int64)

    def density(self) -> float:
        n = self.n_nodes
        possible = n * (n - 1) / 2
        return self.n_edges / possible if possible else 0.0

    def to_networkx(self):
        """Weighted networkx.Graph with global person ids as node labels."""
        import networkx as nx

        coo = sp.triu(self.matrix, k=1).tocoo()
        g = nx.Graph()
        g.add_nodes_from(int(p) for p in self.persons)
        g.add_weighted_edges_from(
            (
                int(self.persons[i]),
                int(self.persons[j]),
                float(w),
            )
            for i, j, w in zip(coo.row, coo.col, coo.data)
        )
        return g


def ego_network(
    network: CollocationNetwork, person: int, radius: int = 2
) -> EgoNetwork:
    """Extract the induced subgraph within ``radius`` hops of ``person``."""
    if radius < 0:
        raise AnalysisError("radius must be >= 0")
    if not 0 <= person < network.n_persons:
        raise AnalysisError(f"person {person} outside population")
    sym = network.symmetric()
    seen = np.zeros(network.n_persons, dtype=bool)
    seen[person] = True
    frontier = np.array([person], dtype=np.int64)
    for _ in range(radius):
        near = np.zeros_like(seen)
        near[sym[frontier].indices] = True
        frontier = np.flatnonzero(near & ~seen)
        if not len(frontier):
            break
        seen[frontier] = True
    persons = np.flatnonzero(seen)
    count("analysis.ego_nodes", len(persons))
    sub = induced_subgraph(sym, persons)
    return EgoNetwork(center=person, persons=persons, matrix=sub, radius=radius)


def sample_ego_networks(
    network: CollocationNetwork,
    n_samples: int,
    rng: np.random.Generator,
    radius: int = 2,
    min_degree: int = 1,
) -> list[EgoNetwork]:
    """Sample ego networks around random connected individuals (the
    paper's "randomly sampled individual").
    """
    degrees = network.degrees()
    eligible = np.flatnonzero(degrees >= min_degree)
    if len(eligible) == 0:
        raise AnalysisError("no vertices satisfy the degree threshold")
    picks = rng.choice(eligible, size=min(n_samples, len(eligible)), replace=False)
    return [ego_network(network, int(p), radius=radius) for p in picks]
