"""Whole-network summary statistics.

The Section V text reports the complete network's scale directly: "The
complete sparse triangular adjacency matrix represents a network consisting
of 2,927,761 vertices (persons) and 830,328,649 edges (collocations) and
requires approximately 10GB of memory to store."  :func:`summarize`
produces the same inventory for any :class:`CollocationNetwork`, plus the
component structure that contextualizes the ego-network figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .._util import human_bytes, human_count
from ..core.network import CollocationNetwork

__all__ = ["NetworkSummary", "summarize"]


@dataclass
class NetworkSummary:
    """Headline statistics of a collocation network."""

    n_vertices: int
    n_edges: int
    total_weight: int
    memory_bytes: int
    mean_degree: float
    max_degree: int
    n_isolated: int
    n_components: int
    giant_component_size: int
    edges_per_person: float

    @property
    def giant_component_fraction(self) -> float:
        return (
            self.giant_component_size / self.n_vertices if self.n_vertices else 0.0
        )

    def report(self) -> str:
        return "\n".join(
            [
                f"vertices (persons)    {human_count(self.n_vertices):>15}",
                f"edges (collocations)  {human_count(self.n_edges):>15}",
                f"total weight (hours)  {human_count(self.total_weight):>15}",
                f"memory                {human_bytes(self.memory_bytes):>15}",
                f"mean degree           {self.mean_degree:>15.2f}",
                f"max degree            {human_count(self.max_degree):>15}",
                f"isolated vertices     {human_count(self.n_isolated):>15}",
                f"components            {human_count(self.n_components):>15}",
                f"giant component       {self.giant_component_fraction:>14.1%}",
                f"edges per person      {self.edges_per_person:>15.2f}",
            ]
        )


def summarize(network: CollocationNetwork) -> NetworkSummary:
    """Compute a :class:`NetworkSummary` (one sparse pass + components)."""
    degrees = network.degrees()
    n = network.n_persons
    n_isolated = int(np.count_nonzero(degrees == 0))
    # directed=False reads each stored edge both ways: the strict upper
    # triangle gives the components of the graph, no mirror needed
    n_comp, labels = connected_components(
        network.adjacency, directed=False, return_labels=True
    )
    sizes = np.bincount(labels)
    # ignore singleton components made of isolated vertices when reporting
    giant = int(sizes.max()) if len(sizes) else 0
    return NetworkSummary(
        n_vertices=n,
        n_edges=network.n_edges,
        total_weight=network.total_weight,
        memory_bytes=network.memory_bytes,
        mean_degree=float(degrees.mean()) if n else 0.0,
        max_degree=int(degrees.max()) if n else 0,
        n_isolated=n_isolated,
        n_components=int(n_comp),
        giant_component_size=giant,
        edges_per_person=network.n_edges / n if n else 0.0,
    )
