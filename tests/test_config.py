"""Tests for repro.config: validation, derived sizes, age groups."""

from __future__ import annotations

import pytest

from repro.config import (
    AGE_GROUPS,
    HOURS_PER_WEEK,
    PAPER_SCALE,
    DiseaseConfig,
    ScaleConfig,
    ScheduleConfig,
    SimulationConfig,
    age_group_labels,
    age_group_of,
)
from repro.errors import ConfigError


class TestAgeGroups:
    def test_paper_groups_present(self):
        assert age_group_labels() == ["0-14", "15-18", "19-44", "45-64", "65+"]

    @pytest.mark.parametrize(
        "age,expected",
        [(0, 0), (14, 0), (15, 1), (18, 1), (19, 2), (44, 2), (45, 3), (64, 3), (65, 4), (120, 4)],
    )
    def test_boundaries(self, age, expected):
        assert age_group_of(age) == expected

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            age_group_of(121)

    def test_groups_cover_all_ages(self):
        covered = set()
        for _, lo, hi in AGE_GROUPS:
            covered.update(range(lo, hi + 1))
        assert covered == set(range(0, 121))


class TestScaleConfig:
    def test_derived_counts_positive(self):
        s = ScaleConfig(n_persons=10_000)
        assert s.n_households > 0
        assert s.n_schools > 0
        assert s.n_workplaces > 0
        assert s.n_other_places > 0
        assert s.n_places == (
            s.n_households + s.n_schools + s.n_workplaces + s.n_other_places
        )

    def test_paper_scale_matches_abstract(self):
        # 2.9 M persons, ~1.2 M places ("1.2 million places based on census
        # data"); our ratios should land within 20% of the paper's places
        assert PAPER_SCALE.n_persons == 2_900_000
        assert 0.8e6 < PAPER_SCALE.n_places < 1.6e6

    def test_scaled_preserves_ratios(self):
        base = ScaleConfig(n_persons=10_000)
        big = base.scaled(20_000)
        assert big.n_persons == 20_000
        assert big.mean_household_size == base.mean_household_size
        assert big.n_households == pytest.approx(2 * base.n_households, rel=0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_persons": 0},
            {"n_persons": -5},
            {"mean_household_size": 0.5},
            {"persons_per_school": 0},
            {"school_capacity": 10, "classroom_size": 30},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ScaleConfig(**kwargs)


class TestScheduleConfig:
    def test_defaults_valid(self):
        ScheduleConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"employment_rate": 1.5},
            {"evening_out_prob": -0.1},
            {"school_start": 10, "school_end": 9},
            {"work_hours": 0},
            {"favorite_places": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ScheduleConfig(**kwargs)


class TestDiseaseConfig:
    def test_defaults_valid(self):
        DiseaseConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transmissibility": 2.0},
            {"incubation_days": 0},
            {"infectious_days": -1},
            {"initial_infected": -1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DiseaseConfig(**kwargs)


class TestSimulationConfig:
    def test_defaults(self):
        c = SimulationConfig()
        assert c.duration_hours == HOURS_PER_WEEK
        assert c.n_ranks == 1
        assert c.log_cache_records == 10_000  # the paper's nominal cache

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_hours": 0},
            {"n_ranks": 0},
            {"log_cache_records": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimulationConfig(**kwargs)
