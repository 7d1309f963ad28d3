"""Tests for place-kind network layers.

A layer is the collocation network of the contacts made at one kind of
place: one :func:`~repro.core.pipeline.synthesize_network` over the
records at places of that kind (what a ``TileCache(place_mask=)`` serves
from logs).  Every record carries its place and every place has exactly
one kind, so the layers decompose the full network exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import synthesize_network
from repro.synthpop.places import LAYER_KINDS, PlaceKind


def kind_layers(pop, records, t0, t1):
    """``{kind name: network}`` over the records at each place kind."""
    kind = pop.places.kind[records["place"].astype(np.int64)]
    return {
        name: synthesize_network(
            records[kind == int(PlaceKind[name.upper()])], pop.n_persons, t0, t1
        )[0]
        for name in LAYER_KINDS
    }


@pytest.fixture(scope="module")
def layers(small_pop, week_result):
    return kind_layers(small_pop, week_result.records, 0, repro.HOURS_PER_WEEK)


class TestDecomposition:
    def test_all_kinds_present(self, layers):
        assert set(layers) == {"home", "school", "workplace", "other"}

    def test_layers_sum_to_full_network(self, small_pop, week_result, layers, small_net):
        total = None
        for net in layers.values():
            total = net if total is None else total + net
        assert (total.adjacency != small_net.adjacency).nnz == 0


class TestLayerStructure:
    def test_home_layer_is_household_cliques(self, small_pop, layers):
        """Home contacts are exactly within-household pairs."""
        home = layers["home"]
        hh = small_pop.persons.household
        coo = home.adjacency.tocoo()
        assert (hh[coo.row] == hh[coo.col]).all()
        # expected edge count: sum over households of C(size, 2)
        sizes = np.bincount(hh)
        expected = int((sizes * (sizes - 1) // 2).sum())
        assert home.n_edges == expected

    def test_home_heaviest_weights(self, layers):
        """Households share the most hours per pair; venues the fewest."""
        mean_w = {
            name: net.total_weight / net.n_edges
            for name, net in layers.items()
            if net.n_edges
        }
        assert mean_w["home"] > mean_w["school"]
        assert mean_w["home"] > mean_w["other"]
        assert mean_w["other"] == min(mean_w.values())

    def test_venue_layer_most_edges(self, layers):
        """Brief venue contacts dominate pair counts (weak ties)."""
        assert layers["other"].n_edges == max(
            net.n_edges for net in layers.values()
        )

    def test_school_layer_only_connects_students(self, small_pop, layers):
        school = layers["school"]
        students = small_pop.persons.is_student
        degrees = school.degrees()
        assert (degrees[~students] == 0).all()

    def test_empty_kind_gives_empty_network(self, small_pop, week_result):
        """Slicing a window with no school hours leaves an empty layer of
        the right shape (Sunday 3-5 AM)."""
        t0 = 6 * 24 + 3
        layers = kind_layers(small_pop, week_result.records, t0, t0 + 2)
        assert layers["school"].n_edges == 0
        assert layers["school"].n_persons == small_pop.n_persons
        assert layers["home"].n_edges > 0
