"""Tests for within-age-group subnetworks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.groups import (
    age_group_degree_distributions,
    group_members,
    within_group_network,
)
from repro.config import age_group_labels
from repro.core import triu_symmetrize
from repro.errors import AnalysisError


class TestGroupMembers:
    def test_members_have_right_ages(self, small_pop):
        kids = group_members(small_pop.persons, 0)
        assert (small_pop.persons.age[kids] <= 14).all()
        seniors = group_members(small_pop.persons, 4)
        assert (small_pop.persons.age[seniors] >= 65).all()

    def test_groups_partition_population(self, small_pop):
        total = sum(
            len(group_members(small_pop.persons, g)) for g in range(5)
        )
        assert total == small_pop.n_persons

    def test_invalid_group(self, small_pop):
        with pytest.raises(AnalysisError):
            group_members(small_pop.persons, 9)


class TestWithinGroup:
    def test_cross_group_edges_removed(self, small_net, small_pop):
        """A within-group degree can never exceed the full-network degree,
        and group degrees exclude cross-group neighbors."""
        kids = group_members(small_pop.persons, 0)
        sub, members = within_group_network(small_net, kids)
        full_deg = small_net.degrees()
        sub_deg = np.diff(sub.indptr)
        assert (sub_deg <= full_deg[members]).all()

    def test_within_edges_preserved(self, small_net, small_pop):
        """An edge between two group members must survive."""
        kids = group_members(small_net and small_pop.persons, 0)
        kid_set = set(kids.tolist())
        sub, members = within_group_network(small_net, kids)
        index_of = {int(p): i for i, p in enumerate(members)}
        sym = triu_symmetrize(small_net.adjacency)
        checked = 0
        for p in kids[:50]:
            for q in small_net.neighbors(int(p)):
                if int(q) in kid_set:
                    assert (
                        sub[index_of[int(p)], index_of[int(q)]]
                        == sym[int(p), int(q)]
                    )
                    checked += 1
        assert checked > 0


class TestFigure5:
    def test_all_groups_present(self, small_net, small_pop):
        dists = age_group_degree_distributions(small_net, small_pop.persons)
        assert list(dists) == age_group_labels()

    def test_group_sizes_match_population(self, small_net, small_pop):
        dists = age_group_degree_distributions(small_net, small_pop.persons)
        groups = small_pop.persons.age_group()
        for index, label in enumerate(age_group_labels()):
            assert dists[label].n_vertices == int(
                np.count_nonzero(groups == index)
            )

    def test_children_connected_within_group(self, small_net, small_pop):
        """Schools connect children to children: the 0-14 group has real
        within-group structure."""
        dists = age_group_degree_distributions(small_net, small_pop.persons)
        kids = dists["0-14"]
        assert kids.mean_degree > 2.0

    def test_population_mismatch_rejected(self, small_net, small_pop):
        import repro

        other = repro.generate_population(
            repro.ScaleConfig(n_persons=50, seed=1)
        )
        with pytest.raises(AnalysisError):
            age_group_degree_distributions(small_net, other.persons)
