"""Tests for the local clustering coefficient (networkx cross-check)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.clustering import (
    clustering_histogram,
    local_clustering,
    mean_clustering,
)
from repro.core import CollocationNetwork
from repro.errors import AnalysisError


def net_from_edges(edges, n):
    rows, cols, data = [], [], []
    for i, j in edges:
        a, b = min(i, j), max(i, j)
        rows.append(a)
        cols.append(b)
        data.append(1)
    return CollocationNetwork(
        sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    )


class TestKnownGraphs:
    def test_triangle_is_fully_clustered(self):
        net = net_from_edges([(0, 1), (1, 2), (0, 2)], 3)
        assert local_clustering(net).tolist() == [1.0, 1.0, 1.0]

    def test_star_has_zero_clustering(self):
        net = net_from_edges([(0, 1), (0, 2), (0, 3)], 4)
        cc = local_clustering(net)
        assert cc[0] == 0.0  # hub's neighbors unconnected
        assert (cc[1:] == 0.0).all()  # leaves have degree 1

    def test_triangle_plus_pendant(self):
        net = net_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        cc = local_clustering(net)
        assert cc[0] == 1.0
        assert cc[2] == pytest.approx(1 / 3)
        assert cc[3] == 0.0

    def test_weights_ignored(self):
        """Clustering is a topology measure; edge weights must not matter."""
        a = net_from_edges([(0, 1), (1, 2), (0, 2)], 3)
        heavy = CollocationNetwork(a.adjacency * 100)
        assert (local_clustering(a) == local_clustering(heavy)).all()


class TestNetworkxCrossCheck:
    def test_matches_networkx_on_real_network(self, small_net):
        mine = local_clustering(small_net)
        g = small_net.to_networkx()
        theirs = nx.clustering(g)
        for v in range(0, small_net.n_persons, 13):
            assert mine[v] == pytest.approx(theirs[v], abs=1e-12)


class TestRawMatrixInput:
    """A caller-supplied matrix is an adjacency only if it is one."""

    def test_symmetric_matrix_matches_network(self, small_net):
        assert np.array_equal(
            local_clustering(small_net.symmetric()), local_clustering(small_net)
        )

    def test_explicit_zeros_are_not_edges(self):
        # triangle 0-1-2 plus a stored zero at (2, 3)/(3, 2)
        rows = [0, 1, 0, 2, 1, 2, 2, 3]
        cols = [1, 0, 2, 0, 2, 1, 3, 2]
        data = [1, 1, 1, 1, 1, 1, 0, 0]
        m = sp.csr_matrix((data, (rows, cols)), shape=(4, 4))
        assert m.nnz == 8
        assert local_clustering(m).tolist() == [1.0, 1.0, 1.0, 0.0]
        assert m.nnz == 8  # the caller's matrix is left alone

    def test_weights_of_raw_matrix_ignored(self):
        m = sp.csr_matrix(np.array([[0, 5, 2], [5, 0, 9], [2, 9, 0]]))
        assert local_clustering(m).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "dense",
        [
            [[0, 1, 1], [0, 0, 1], [0, 0, 0]],  # upper triangle only
            [[0, 1, 0], [1, 0, 2], [0, 1, 0]],  # unequal weights
            [[1, 1, 0], [1, 0, 1], [0, 1, 0]],  # self-loop
            [[0, 1, 0], [1, 0, 1]],  # not square
        ],
        ids=["asymmetric", "asymmetric-weights", "diagonal", "non-square"],
    )
    def test_not_an_adjacency_is_rejected(self, dense):
        with pytest.raises(AnalysisError):
            local_clustering(sp.csr_matrix(np.array(dense)))


class TestHistogram:
    def test_bin_structure(self):
        cc = np.array([0.0, 0.5, 1.0, 1.0])
        edges, counts = clustering_histogram(cc, n_bins=4)
        assert len(edges) == 5
        assert counts.sum() == 4
        assert counts[-1] == 2  # both 1.0s in the top bin

    def test_degree_filter_excludes_undefined(self):
        cc = np.array([0.0, 0.0, 1.0])
        degrees = np.array([1, 0, 5])
        _, counts = clustering_histogram(cc, degrees=degrees)
        assert counts.sum() == 1

    def test_paper_spike_at_one(self, small_net):
        """Figure 4: a visible population of fully-clustered vertices."""
        cc = local_clustering(small_net)
        deg = small_net.degrees()
        _, counts = clustering_histogram(cc, n_bins=20, degrees=deg)
        assert counts[-1] > 0

    def test_mean_clustering(self):
        cc = np.array([1.0, 0.0, 0.5])
        assert mean_clustering(cc) == pytest.approx(0.5)
        assert mean_clustering(cc, degrees=np.array([3, 1, 3])) == pytest.approx(0.75)
        assert mean_clustering(np.array([])) == 0.0
