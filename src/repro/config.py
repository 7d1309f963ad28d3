"""Configuration dataclasses for population, simulation, and experiments.

The paper runs one canonical scenario: the full city of Chicago — 2.9 M
persons and 1.2 M places — simulated for four weeks at one-hour resolution
on 256 MPI ranks.  This module captures that scenario as data so that the
same code paths run at laptop scale (the default) and can be dialed toward
the paper's scale for benchmark sweeps.

All sizes are derived from a single :class:`ScaleConfig` so experiments stay
internally consistent (places scale with persons at the paper's ratio of
roughly 1.2 M places : 2.9 M persons).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

__all__ = [
    "HOURS_PER_DAY",
    "HOURS_PER_WEEK",
    "AGE_GROUPS",
    "age_group_of",
    "age_group_labels",
    "ScaleConfig",
    "ScheduleConfig",
    "DiseaseConfig",
    "SimulationConfig",
    "PAPER_SCALE",
]

HOURS_PER_DAY = 24
HOURS_PER_WEEK = 7 * HOURS_PER_DAY

#: Age group boundaries used in the paper's Figure 5, as (label, lo, hi)
#: with an inclusive range [lo, hi].
AGE_GROUPS: tuple[tuple[str, int, int], ...] = (
    ("0-14", 0, 14),
    ("15-18", 15, 18),
    ("19-44", 19, 44),
    ("45-64", 45, 64),
    ("65+", 65, 120),
)


def age_group_labels() -> list[str]:
    """Labels of the paper's Figure 5 age groups, in order."""
    return [label for label, _, _ in AGE_GROUPS]


def age_group_of(age: int) -> int:
    """Return the index into :data:`AGE_GROUPS` for an integer age."""
    for idx, (_, lo, hi) in enumerate(AGE_GROUPS):
        if lo <= age <= hi:
            return idx
    raise ConfigError(f"age {age} outside supported range 0..120")


@dataclass(frozen=True)
class ScaleConfig:
    """How big the synthetic world is.

    The defaults are laptop scale; :data:`PAPER_SCALE` holds the paper's
    numbers.  Derived place counts follow Chicago-like ratios: roughly one
    household per 2.6 persons, one school per ~1,450 persons, one workplace
    per ~18 persons, plus a pool of "other" gathering places (shops,
    restaurants, transit) at ~1 per 12 persons.
    """

    n_persons: int = 10_000
    seed: int = 42
    #: mean household size (Chicago ACS ≈ 2.5–2.6)
    mean_household_size: float = 2.6
    persons_per_school: float = 1450.0
    persons_per_workplace: float = 18.0
    persons_per_other_place: float = 12.0
    #: hard cap on persons assigned to one school classroom-hour; the paper
    #: attributes the flat 0-14 degree distribution to exactly this cap.
    school_capacity: int = 600
    classroom_size: int = 30
    #: city modeled as a unit square of this many km per side (for distance-
    #: based school/work assignment and spatial rank partitioning).
    city_km: float = 40.0

    def __post_init__(self) -> None:
        if self.n_persons <= 0:
            raise ConfigError(f"n_persons must be positive, got {self.n_persons}")
        if self.mean_household_size < 1.0:
            raise ConfigError("mean_household_size must be >= 1")
        if min(
            self.persons_per_school,
            self.persons_per_workplace,
            self.persons_per_other_place,
        ) <= 0:
            raise ConfigError("persons-per-place ratios must be positive")
        if self.school_capacity < self.classroom_size:
            raise ConfigError("school_capacity must be >= classroom_size")

    @property
    def n_households(self) -> int:
        return max(1, round(self.n_persons / self.mean_household_size))

    @property
    def n_schools(self) -> int:
        return max(1, round(self.n_persons / self.persons_per_school))

    @property
    def n_workplaces(self) -> int:
        return max(1, round(self.n_persons / self.persons_per_workplace))

    @property
    def n_other_places(self) -> int:
        return max(1, round(self.n_persons / self.persons_per_other_place))

    @property
    def n_places(self) -> int:
        return (
            self.n_households + self.n_schools + self.n_workplaces + self.n_other_places
        )

    def scaled(self, n_persons: int) -> "ScaleConfig":
        """Same ratios at a different population size."""
        return replace(self, n_persons=n_persons)


#: The paper's scenario: 2.9 M persons / ~1.2 M places.  Not meant to be run
#: on a laptop; used to compute the paper-scale projections reported in
#: EXPERIMENTS.md (e.g. log bytes per simulated week).
PAPER_SCALE = ScaleConfig(n_persons=2_900_000)


@dataclass(frozen=True)
class ScheduleConfig:
    """Parameters of daily activity schedule generation.

    Calibrated so a person changes activity about 5 times per day on
    average — the figure the paper uses to size its event log (Section III).
    """

    #: probability an adult is employed
    employment_rate: float = 0.72
    #: school start/end hours (children's weekday anchor)
    school_start: int = 8
    school_end: int = 15
    #: typical workday window; start jitters +-2h per person
    work_start: int = 9
    work_hours: int = 8
    #: per-day probability of an evening errand/leisure outing to an
    #: "other" place
    evening_out_prob: float = 0.65
    #: per-day probability of a lunchtime outing for workers
    lunch_out_prob: float = 0.45
    #: probability of a weekend outing block (weekends are less structured)
    weekend_out_prob: float = 0.8
    #: number of candidate "other" places a person rotates among
    favorite_places: int = 4

    def __post_init__(self) -> None:
        for name in (
            "employment_rate",
            "evening_out_prob",
            "lunch_out_prob",
            "weekend_out_prob",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {v}")
        if not 0 <= self.school_start < self.school_end <= 24:
            raise ConfigError("school hours must satisfy 0 <= start < end <= 24")
        if not 0 <= self.work_start <= 23 or not 1 <= self.work_hours <= 16:
            raise ConfigError("invalid work window")
        if self.favorite_places < 1:
            raise ConfigError("favorite_places must be >= 1")


@dataclass(frozen=True)
class DiseaseConfig:
    """SEIR layer parameters (the chiSIM heritage model).

    Transmission is per collocated infectious-susceptible pair per hour.
    """

    transmissibility: float = 0.002
    incubation_days: float = 2.0
    infectious_days: float = 5.0
    initial_infected: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmissibility <= 1.0:
            raise ConfigError("transmissibility must be in [0, 1]")
        if self.incubation_days <= 0 or self.infectious_days <= 0:
            raise ConfigError("disease durations must be positive")
        if self.initial_infected < 0:
            raise ConfigError("initial_infected must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level run configuration combining all substrates."""

    scale: ScaleConfig = field(default_factory=ScaleConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    disease: DiseaseConfig | None = None
    #: simulated duration in hours (paper: four weeks)
    duration_hours: int = HOURS_PER_WEEK
    #: number of ranks for distributed runs (paper: 256)
    n_ranks: int = 1
    #: event-log write cache, in records (paper nominal: 10,000)
    log_cache_records: int = 10_000
    #: event-log durability: "none" (paper behavior — a killed rank loses
    #: up to a cache of records), "fsync" (flushed chunks are durable), or
    #: "wal" (journaled — a hard kill loses zero acknowledged records)
    log_durability: str = "none"
    #: take a resumable simulation snapshot every N simulated hours
    #: (None disables checkpointing)
    checkpoint_every_hours: int | None = None
    #: seconds a rank may go without reaching a collective before the
    #: cluster declares it dead (None disables heartbeat detection)
    heartbeat_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise ConfigError("duration_hours must be positive")
        if self.n_ranks < 1:
            raise ConfigError("n_ranks must be >= 1")
        if self.log_cache_records < 1:
            raise ConfigError("log_cache_records must be >= 1")
        if self.log_durability not in ("none", "fsync", "wal"):
            raise ConfigError(
                f"log_durability must be 'none', 'fsync', or 'wal', "
                f"got {self.log_durability!r}"
            )
        if self.checkpoint_every_hours is not None and self.checkpoint_every_hours < 1:
            raise ConfigError("checkpoint_every_hours must be >= 1")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ConfigError("heartbeat_timeout must be positive")
