"""Tests for the temporal statistics over a sequence of networks."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.analysis import edge_persistence, edge_recurrence
from repro.core import CollocationNetwork, synthesize_from_logs
from repro.errors import SynthesisError


def networks_from(adjs):
    return [CollocationNetwork(sp.csr_matrix(a, dtype=np.int64)) for a in adjs]


class TestTemporalStats:
    def test_persistence_exact(self):
        a1 = np.triu(np.array([
            [0, 1, 1], [0, 0, 1], [0, 0, 0],
        ]), 1)
        a2 = np.triu(np.array([
            [0, 1, 0], [0, 0, 1], [0, 0, 0],
        ]), 1)
        # 2 of week-1's 3 edges survive
        assert edge_persistence(networks_from([a1, a2])).tolist() == [
            pytest.approx(2 / 3)
        ]

    def test_recurrence_exact(self):
        a1 = np.triu(np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]]), 1)
        a2 = np.triu(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 1)
        weeks, counts = edge_recurrence(networks_from([a1, a2]))
        # (0,1) twice; (0,2) and (1,2) once
        assert weeks.tolist() == [1, 2]
        assert counts.tolist() == [2, 1]

    def test_single_interval_no_persistence(self):
        nets = networks_from([np.triu(np.ones((3, 3)), 1)])
        assert len(edge_persistence(nets)) == 0

    def test_population_mismatch_rejected(self):
        nets = [
            CollocationNetwork(sp.csr_matrix((3, 3), dtype=np.int64)),
            CollocationNetwork(sp.csr_matrix((4, 4), dtype=np.int64)),
        ]
        for stat in (edge_persistence, edge_recurrence):
            with pytest.raises(SynthesisError, match="different populations"):
                stat(nets)

    def test_empty_sequence_rejected(self):
        for stat in (edge_persistence, edge_recurrence):
            with pytest.raises(SynthesisError, match="at least one interval"):
                stat([])

    def test_real_series_has_stable_core(self, small_pop, two_week_logs):
        """Households/schools/workplaces recur weekly: persistence well
        above zero; venue churn keeps it well below one."""
        weeks_nets = [
            synthesize_from_logs(
                two_week_logs,
                small_pop.n_persons,
                w * repro.HOURS_PER_WEEK,
                (w + 1) * repro.HOURS_PER_WEEK,
            )[0]
            for w in range(2)
        ]
        p = edge_persistence(weeks_nets)[0]
        assert 0.25 < p < 0.95
        weeks, counts = edge_recurrence(weeks_nets)
        assert weeks.tolist() == [1, 2]
        assert counts[1] > 0  # a real recurring core exists
