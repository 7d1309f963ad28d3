"""Tests for degree distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.degree import degree_distribution, log_binned
from repro.errors import AnalysisError


class TestDistribution:
    def test_counts_and_isolated(self):
        d = degree_distribution(np.array([0, 0, 1, 1, 1, 3, 7]))
        assert d.n_vertices == 7
        assert d.n_isolated == 2
        assert d.degrees.tolist() == [1, 3, 7]
        assert d.counts.tolist() == [3, 1, 1]

    def test_fractions_sum_to_one(self):
        d = degree_distribution(np.array([1, 2, 2, 5]))
        assert d.fractions.sum() == pytest.approx(1.0)

    def test_mean_and_max(self):
        d = degree_distribution(np.array([2, 4, 6]))
        assert d.mean_degree == pytest.approx(4.0)
        assert d.max_degree == 6

    def test_head_count(self):
        d = degree_distribution(np.array([1, 1, 2, 7, 9]))
        head = d.head_count(7)
        assert head.tolist() == [2, 1, 0, 0, 0, 0, 1]

    def test_empty_distribution(self):
        d = degree_distribution(np.zeros(5, dtype=int))
        assert len(d.degrees) == 0
        assert d.mean_degree == 0.0
        assert d.max_degree == 0

    def test_rejects_negative(self):
        with pytest.raises(AnalysisError):
            degree_distribution(np.array([-1, 2]))

    def test_rejects_2d(self):
        with pytest.raises(AnalysisError):
            degree_distribution(np.zeros((2, 2)))

    def test_flatness_flat_region(self):
        d = degree_distribution(
            np.concatenate([np.full(10, k) for k in range(1, 6)])
        )
        assert d.flatness(1, 5) == pytest.approx(1.0)

    def test_flatness_missing_degree_is_inf(self):
        d = degree_distribution(np.array([1, 5]))
        assert d.flatness(1, 5) == float("inf")

    def test_degree_sum_is_twice_edges(self, small_net):
        """Handshake lemma on the real network."""
        degrees = small_net.degrees()
        assert degrees.sum() == 2 * small_net.n_edges


class TestLogBinning:
    def test_preserves_total_mass_roughly(self):
        rng = np.random.default_rng(0)
        degrees = rng.zipf(2.0, 5000)
        degrees = degrees[degrees < 10_000]
        d = degree_distribution(degrees)
        centers, density = log_binned(d)
        assert len(centers) == len(density)
        assert (density > 0).all()
        assert centers[0] >= 1

    def test_empty(self):
        d = degree_distribution(np.zeros(3, dtype=int))
        centers, density = log_binned(d)
        assert len(centers) == 0

    def test_monotone_centers(self, small_net):
        d = degree_distribution(small_net.degrees())
        centers, _ = log_binned(d)
        assert (np.diff(centers) > 0).all()


class TestCcdf:
    def test_monotone_and_normalized(self, small_net):
        dist = degree_distribution(small_net.degrees())
        k, p = dist.ccdf()
        assert p[0] == pytest.approx(1.0)
        assert (np.diff(p) <= 1e-12).all()
        assert p[-1] > 0

    def test_exact_small_case(self):
        dist = degree_distribution(np.array([1, 1, 2, 5]))
        k, p = dist.ccdf()
        assert k.tolist() == [1, 2, 5]
        assert p.tolist() == [1.0, 0.5, 0.25]

    def test_empty(self):
        dist = degree_distribution(np.zeros(3, dtype=int))
        k, p = dist.ccdf()
        assert len(k) == 0
