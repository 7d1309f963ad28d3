"""Shared fixtures for the network-query service tests.

The log directory is package-scoped (built once, read by every service
test) and the direct-synthesis references are cached per window, because
the load-bearing assertion everywhere is the same as the tile-cache
suite's: whatever a client decodes off the wire must be bit-identical to
a direct synthesis of the same window.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import synthesize_from_logs
from repro.distrib import DistributedSimulation, spatial_partition


@pytest.fixture(scope="package")
def service_logs(tmp_path_factory, small_pop):
    """Two weeks of 2-rank logs, shared by every service test."""
    d = tmp_path_factory.mktemp("service-logs")
    cfg = repro.SimulationConfig(
        scale=small_pop.scale,
        duration_hours=2 * repro.HOURS_PER_WEEK,
        n_ranks=2,
    )
    part = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 2
    )
    DistributedSimulation(small_pop, cfg, part).run(log_dir=d)
    return d


@pytest.fixture(scope="package")
def direct_ref(service_logs, small_pop):
    """Memoized direct-synthesis reference: ``direct_ref(t0, t1)``."""
    refs: dict[tuple[int, int], object] = {}

    def get(t0: int, t1: int):
        key = (t0, t1)
        if key not in refs:
            net, _ = synthesize_from_logs(
                service_logs, small_pop.n_persons, t0, t1
            )
            refs[key] = net
        return refs[key]

    return get


def assert_bit_identical(a, b):
    """Same canonical CSR: data, indices, indptr all exactly equal."""
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)
