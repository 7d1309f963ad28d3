"""The collocation network object.

Wraps the final sparse upper-triangular adjacency matrix: "the resulting
sparse triangular p × p adjacency matrix fully defines the collocation
network structure with the nonzero elements representing the amount of
time each person was collocated with each other person during the selected
time slice."
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ..errors import AnalysisError, SynthesisError
from .adjacency import (
    pattern_degrees,
    strictly_upper,
    sum_partials,
    triu_symmetrize,
)
from .kernels.graph import induced_subgraph

__all__ = ["CollocationNetwork"]


class CollocationNetwork:
    """A person collocation network for one time slice.

    Parameters
    ----------
    adjacency:
        strict upper-triangular CSR, ``(n_persons, n_persons)``, int
        weights = collocated hours.
    t0, t1:
        the absolute simulation-hour window the network covers.
    """

    def __init__(self, adjacency: sp.spmatrix, t0: int = 0, t1: int = 0) -> None:
        adj = adjacency.tocsr()
        if adj.shape[0] != adj.shape[1]:
            raise SynthesisError("adjacency must be square")
        if not strictly_upper(adj):
            raise SynthesisError("adjacency must be strictly upper triangular")
        if not adj.data.all():
            # tocsr() aliases a CSR input: never edit the caller's matrix
            # (which may also sit on read-only buffers)
            if adj is adjacency:
                adj = adj.copy()
            adj.eliminate_zeros()
        self.adjacency = adj
        self.t0 = t0
        self.t1 = t1
        self._symmetric: sp.csr_matrix | None = None

    # -- basic shape -----------------------------------------------------------

    @property
    def n_persons(self) -> int:
        """Matrix dimension (all persons, connected or not — the paper
        counts all 2.9 M persons as vertices)."""
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Distinct collocated pairs (the paper's 830,328,649 at scale)."""
        return int(self.adjacency.nnz)

    @property
    def total_weight(self) -> int:
        """Total collocated person-pair hours."""
        return int(self.adjacency.data.sum())

    @property
    def memory_bytes(self) -> int:
        """In-memory footprint of the sparse matrix (data + indices)."""
        a = self.adjacency
        return int(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)

    def symmetric(self) -> sp.csr_matrix:
        """Full symmetric adjacency (cached)."""
        if self._symmetric is None:
            self._symmetric = triu_symmetrize(self.adjacency)
        return self._symmetric

    # -- combination -------------------------------------------------------------

    def __add__(self, other: "CollocationNetwork") -> "CollocationNetwork":
        """Sum two slices' networks ("to generate the complete network
        across multiple log files, the adjacency matrices are simply
        summed")."""
        if self.n_persons != other.n_persons:
            raise SynthesisError("cannot add networks over different populations")
        return CollocationNetwork(
            sum_partials([self.adjacency, other.adjacency], self.n_persons),
            t0=min(self.t0, other.t0),
            t1=max(self.t1, other.t1),
        )

    # -- queries -------------------------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Unweighted vertex degree per person (int64), read off the
        upper triangle — the symmetric matrix is not built for it."""
        return pattern_degrees(self.adjacency)

    def weighted_degrees(self) -> np.ndarray:
        """Total collocated hours per person (vertex strength)."""
        sym = self.symmetric()
        return np.asarray(sym.sum(axis=1)).ravel().astype(np.int64)

    def neighbors(self, person: int) -> np.ndarray:
        """Adjacent person ids."""
        if not 0 <= person < self.n_persons:
            raise AnalysisError(f"person {person} outside population")
        sym = self.symmetric()
        return sym.indices[sym.indptr[person] : sym.indptr[person + 1]].astype(
            np.int64
        )

    def edge_weight(self, i: int, j: int) -> int:
        """Collocated hours between persons *i* and *j* (0 if unconnected)."""
        if i == j:
            return 0
        a, b = (i, j) if i < j else (j, i)
        return int(self.adjacency[a, b])

    def subgraph(self, persons: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
        """Induced subgraph on a person set.

        Returns ``(sym_matrix, sorted_persons)`` — the symmetric adjacency
        restricted to (and re-indexed by) the given persons.
        """
        persons = np.unique(np.asarray(persons, dtype=np.int64))
        return induced_subgraph(self.symmetric(), persons), persons

    # -- interop ---------------------------------------------------------------------

    def to_networkx(self, max_edges: int = 5_000_000):
        """Convert to a weighted undirected ``networkx.Graph``.

        Guarded by ``max_edges``: "it is not practical nor likely useful"
        to materialize the full object graph at scale.
        """
        import networkx as nx

        if self.n_edges > max_edges:
            raise AnalysisError(
                f"network has {self.n_edges} edges; raise max_edges "
                f"({max_edges}) to force conversion"
            )
        coo = self.adjacency.tocoo()
        g = nx.Graph()
        g.add_nodes_from(range(self.n_persons))
        g.add_weighted_edges_from(
            zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
        )
        return g

    # -- persistence ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist to ``.npz`` (CSR triple + window metadata)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        a = self.adjacency
        np.savez_compressed(
            path,
            data=a.data,
            indices=a.indices,
            indptr=a.indptr,
            shape=np.array(a.shape, dtype=np.int64),
            window=np.array([self.t0, self.t1], dtype=np.int64),
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CollocationNetwork":
        with np.load(path) as z:
            adj = sp.csr_matrix(
                (z["data"], z["indices"], z["indptr"]),
                shape=tuple(z["shape"]),
            )
            t0, t1 = (int(v) for v in z["window"])
        return cls(adj, t0=t0, t1=t1)

    def __repr__(self) -> str:
        return (
            f"CollocationNetwork(n_persons={self.n_persons}, "
            f"n_edges={self.n_edges}, window=[{self.t0}, {self.t1}))"
        )
