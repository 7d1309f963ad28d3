"""Tests for the CollocationNetwork wrapper."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CollocationNetwork
from repro.errors import AnalysisError, SynthesisError


@pytest.fixture()
def tiny():
    """Path 0-1-2 plus edge 0-3 with distinct weights."""
    rows = [0, 1, 0]
    cols = [1, 2, 3]
    data = [4, 2, 7]
    adj = sp.coo_matrix((data, (rows, cols)), shape=(5, 5)).tocsr()
    return CollocationNetwork(adj, t0=0, t1=24)


class TestBasics:
    def test_counts(self, tiny):
        assert tiny.n_persons == 5
        assert tiny.n_edges == 3
        assert tiny.total_weight == 13

    def test_degrees(self, tiny):
        assert tiny.degrees().tolist() == [2, 2, 1, 1, 0]

    def test_weighted_degrees(self, tiny):
        assert tiny.weighted_degrees().tolist() == [11, 6, 2, 7, 0]

    def test_neighbors(self, tiny):
        assert sorted(tiny.neighbors(0).tolist()) == [1, 3]
        assert tiny.neighbors(4).tolist() == []

    def test_neighbors_bounds(self, tiny):
        with pytest.raises(AnalysisError):
            tiny.neighbors(9)

    def test_edge_weight_symmetric_lookup(self, tiny):
        assert tiny.edge_weight(0, 1) == 4
        assert tiny.edge_weight(1, 0) == 4
        assert tiny.edge_weight(2, 3) == 0
        assert tiny.edge_weight(2, 2) == 0

    def test_repr(self, tiny):
        assert "n_edges=3" in repr(tiny)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(SynthesisError):
            CollocationNetwork(sp.csr_matrix((3, 4)))

    def test_rejects_lower_triangle_entries(self):
        adj = sp.coo_matrix(([1], ([2], [0])), shape=(3, 3))
        with pytest.raises(SynthesisError):
            CollocationNetwork(adj)

    def test_rejects_diagonal(self):
        adj = sp.coo_matrix(([1], ([1], [1])), shape=(3, 3))
        with pytest.raises(SynthesisError):
            CollocationNetwork(adj)

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("row, col", [(2, 0), (1, 1), (0, 3)])
    def test_rejects_entry_outside_the_upper_triangle(self, canonical, row, col):
        """Canonical input is checked in O(n) off each row's first and last
        column, the rest entry by entry: both refuse the same matrices,
        a column past n included."""
        rows = {0: [1, 2] if canonical else [2, 1]}
        rows.setdefault(row, []).append(col)
        indptr = np.cumsum([0] + [len(rows.get(r, [])) for r in range(3)])
        indices = np.array([c for r in range(3) for c in rows.get(r, [])])
        adj = sp.csr_matrix(
            (np.ones(len(indices), np.int64), indices, indptr), shape=(3, 3)
        )
        assert adj.has_canonical_format == canonical
        with pytest.raises(SynthesisError):
            CollocationNetwork(adj)


def with_explicit_zero() -> sp.csr_matrix:
    """Two stored entries in row 0, one of them an explicit zero."""
    return sp.csr_matrix(
        (np.array([3, 0]), np.array([1, 2]), np.array([0, 2, 2, 2])),
        shape=(3, 3),
    )


def freeze(mat: sp.csr_matrix) -> sp.csr_matrix:
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


class TestInputIsNotMutated:
    def test_explicit_zeros_are_dropped_from_a_copy(self):
        mat = with_explicit_zero()
        net = CollocationNetwork(mat)
        assert net.n_edges == 1
        assert net.adjacency.data.tolist() == [3]
        # tocsr() aliases a CSR input; the caller's matrix stays as it was
        assert mat.nnz == 2
        assert mat.data.tolist() == [3, 0]

    def test_canonical_input_is_wrapped_without_a_copy(self, tiny):
        assert CollocationNetwork(tiny.adjacency).adjacency is tiny.adjacency

    @pytest.mark.parametrize("zeros", [False, True])
    def test_read_only_buffers_are_accepted(self, zeros, tiny):
        mat = freeze(with_explicit_zero() if zeros else tiny.adjacency.copy())
        net = CollocationNetwork(mat)
        assert net.n_edges == (1 if zeros else 3)
        assert net.degrees().sum() == 2 * net.n_edges


@st.composite
def upper_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=50))
        if pairs
        else []
    )
    weights = draw(
        st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges))
    )
    rows = [i for i, _ in edges]
    cols = [j for _, j in edges]
    return sp.coo_matrix((weights, (rows, cols)), shape=(n, n)).tocsr()


class TestDegreesOffTheUpperTriangle:
    @settings(max_examples=100, deadline=None)
    @given(adj=upper_graphs())
    def test_equals_symmetric_row_counts_without_building_them(self, adj):
        net = CollocationNetwork(adj)
        with mock.patch(
            "repro.core.network.triu_symmetrize", side_effect=AssertionError
        ):
            degrees = net.degrees()
        assert degrees.dtype == np.int64
        assert np.array_equal(degrees, np.diff((adj + adj.T).tocsr().indptr))


class TestCombination:
    def test_add_sums_weights_and_extends_window(self, tiny):
        other = CollocationNetwork(
            sp.coo_matrix(([10], ([0], [1])), shape=(5, 5)).tocsr(), t0=24, t1=48
        )
        total = tiny + other
        assert total.edge_weight(0, 1) == 14
        assert total.edge_weight(0, 3) == 7
        assert (total.t0, total.t1) == (0, 48)

    def test_add_rejects_size_mismatch(self, tiny):
        other = CollocationNetwork(sp.csr_matrix((3, 3)))
        with pytest.raises(SynthesisError):
            tiny + other


class TestSubgraph:
    def test_induced_subgraph(self, tiny):
        sub, persons = tiny.subgraph(np.array([0, 1, 3]))
        assert persons.tolist() == [0, 1, 3]
        dense = sub.toarray()
        assert dense[0, 1] == 4  # edge 0-1 kept
        assert dense[0, 2] == 7  # edge 0-3 kept (3 is local index 2)
        assert dense[1, 2] == 0  # no 1-3 edge

    def test_subgraph_bounds(self, tiny):
        with pytest.raises(AnalysisError):
            tiny.subgraph(np.array([99]))


class TestInterop:
    def test_to_networkx(self, tiny):
        g = tiny.to_networkx()
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 3
        assert g[0][1]["weight"] == 4

    def test_to_networkx_edge_cap(self, tiny):
        with pytest.raises(AnalysisError):
            tiny.to_networkx(max_edges=2)


class TestPersistence:
    def test_save_load_roundtrip(self, tiny, tmp_path):
        path = tiny.save(tmp_path / "net")
        back = CollocationNetwork.load(path)
        assert (back.adjacency != tiny.adjacency).nnz == 0
        assert (back.t0, back.t1) == (tiny.t0, tiny.t1)

    def test_real_network_roundtrip(self, small_net, tmp_path):
        path = small_net.save(tmp_path / "week.npz")
        back = CollocationNetwork.load(path)
        assert back.n_edges == small_net.n_edges
        assert (back.degrees() == small_net.degrees()).all()
