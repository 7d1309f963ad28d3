"""Shared fixtures.

Expensive artifacts (population, one-week event records, the synthesized
network) are session-scoped: many test modules read them, none mutate them.
Sizes are chosen so the whole suite runs in well under a minute while still
exercising multi-place, multi-week, multi-rank code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import ScaleConfig, SimulationConfig
from repro.obs import MetricsRegistry, configure, set_default_registry
from repro.sim import Simulation
from repro.synthpop import generate_population

N_SMALL = 800


@pytest.fixture(scope="session")
def small_pop():
    """An 800-person world with every place kind populated."""
    return generate_population(ScaleConfig(n_persons=N_SMALL, seed=123))


@pytest.fixture(scope="session")
def week_result(small_pop):
    """One week of serial simulation events for the small world."""
    config = SimulationConfig(
        scale=small_pop.scale, duration_hours=repro.HOURS_PER_WEEK
    )
    return Simulation(small_pop, config).run()


@pytest.fixture(scope="session")
def small_net(small_pop, week_result):
    """The week's collocation network."""
    net, _ = repro.synthesize_network(
        week_result.records, small_pop.n_persons, 0, repro.HOURS_PER_WEEK
    )
    return net


@pytest.fixture(scope="session")
def two_week_logs(tmp_path_factory, small_pop):
    """Two weeks of the small world's events as four rank logs."""
    from repro.distrib import DistributedSimulation, spatial_partition

    d = tmp_path_factory.mktemp("two-week-logs")
    cfg = SimulationConfig(
        scale=small_pop.scale,
        duration_hours=2 * repro.HOURS_PER_WEEK,
        n_ranks=4,
    )
    part = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 4
    )
    DistributedSimulation(small_pop, cfg, part).run(log_dir=d)
    return d


@pytest.fixture(scope="session")
def random_records():
    """Synthetic random (but valid) log records for format-level tests."""
    rng = np.random.default_rng(42)
    n = 5_000
    start = rng.integers(0, 160, n).astype(np.uint32)
    stop = start + rng.integers(1, 9, n).astype(np.uint32)
    from repro.evlog import make_records

    return make_records(
        start,
        stop,
        rng.integers(0, 700, n),
        rng.integers(0, 6, n),
        rng.integers(0, 400, n),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture()
def registry():
    """A fresh default metrics registry with telemetry on, for one test
    (the suite may run under ``REPRO_TELEMETRY=0``)."""
    mine = MetricsRegistry()
    prev, was_on = set_default_registry(mine), configure(True)
    yield mine
    set_default_registry(prev)
    configure(was_on)
