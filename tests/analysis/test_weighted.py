"""Tests for weighted statistics and assortativity."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import local_clustering
from repro.analysis.weighted import (
    degree_assortativity,
    edge_weight_distribution,
    strength_distribution,
    weighted_clustering,
)
from repro.core import CollocationNetwork
from repro.errors import AnalysisError


def net_from(rows, cols, data, n):
    return CollocationNetwork(
        sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    )


class TestStrength:
    def test_strength_counts_hours(self):
        net = net_from([0, 1], [1, 2], [5, 3], 3)
        d = strength_distribution(net)
        # strengths: 5, 8, 3
        assert set(zip(d.degrees.tolist(), d.counts.tolist())) == {
            (3, 1), (5, 1), (8, 1),
        }

    def test_strength_exceeds_degree_on_real_network(self, small_net):
        s = strength_distribution(small_net)
        assert s.mean_degree > 2 * small_net.degrees().mean()


class TestEdgeWeights:
    def test_distribution(self):
        net = net_from([0, 1, 0], [1, 2, 2], [5, 5, 1], 3)
        weights, counts = edge_weight_distribution(net)
        assert weights.tolist() == [1, 5]
        assert counts.tolist() == [1, 2]

    def test_empty(self):
        net = CollocationNetwork(sp.csr_matrix((3, 3), dtype=np.int64))
        weights, counts = edge_weight_distribution(net)
        assert len(weights) == 0

    def test_real_network_one_hour_contacts_dominate(self, small_net):
        """Most collocated pairs are brief venue contacts; households sit
        in the heavy tail near the full week of shared home hours."""
        weights, counts = edge_weight_distribution(small_net)
        assert weights[np.argmax(counts)] <= 3
        assert weights.max() >= 50  # household co-residents


class TestWeightedClustering:
    def test_reduces_to_binary_on_unit_weights(self, small_net):
        adj = small_net.adjacency.copy()
        adj.data = np.ones_like(adj.data)
        unit = CollocationNetwork(adj)
        assert np.allclose(
            weighted_clustering(unit), local_clustering(unit), atol=1e-12
        )

    def test_matches_networkx_barrat_on_triangle(self):
        # triangle with distinct weights + a pendant
        net = net_from([0, 1, 0, 2], [1, 2, 2, 3], [4, 2, 6, 1], 4)
        mine = weighted_clustering(net)
        # Barrat for vertex 0: (w01 + w02)/2 summed over ordered pairs /
        # (s_0 (k_0 - 1)) = 2*((4+6)/2) / (10 * 1) = 1.0 (its one triangle)
        assert mine[0] == pytest.approx(1.0)
        # vertex 2: neighbors 0,1,3; one triangle (0,1)
        s2, k2 = 2 + 6 + 1, 3
        expected2 = 2 * ((6 + 2) / 2) / (s2 * (k2 - 1))
        assert mine[2] == pytest.approx(expected2)
        assert mine[3] == 0.0

    def test_bounded(self, small_net):
        cc = weighted_clustering(small_net)
        assert cc.min() >= 0.0 and cc.max() <= 1.0

    def test_raw_matrix_goes_through_the_same_entry(self, small_net):
        assert np.array_equal(
            weighted_clustering(small_net.symmetric()),
            weighted_clustering(small_net),
        )
        with pytest.raises(AnalysisError):
            weighted_clustering(small_net.adjacency)  # upper half only


class TestAssortativity:
    def test_matches_networkx(self, small_net):
        mine = degree_assortativity(small_net)
        theirs = nx.degree_assortativity_coefficient(small_net.to_networkx())
        assert mine == pytest.approx(theirs, abs=1e-9)

    def test_star_is_disassortative(self):
        net = net_from([0, 0, 0], [1, 2, 3], [1, 1, 1], 4)
        assert degree_assortativity(net) < 0

    def test_collocation_network_assortative(self, small_net):
        """Social networks mix assortatively; the collocation network's
        cliquish cores should give r > 0."""
        assert degree_assortativity(small_net) > 0.05

    def test_empty_raises(self):
        net = CollocationNetwork(sp.csr_matrix((3, 3), dtype=np.int64))
        with pytest.raises(AnalysisError):
            degree_assortativity(net)
