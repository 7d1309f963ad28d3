"""One loop, two clusters: the same logs, traffic and migrations.

By default the distributed model steps every rank in one process, in one
loop (one hour-kernel call an active hour); the same loop runs on forked
process ranks (``ProcessBspCluster``), one rank each, exchanging through
its communicator.  Over drawn rank counts, durations across a week
boundary, partitions and snapshot cadences (with a write-ahead log), both
clusters must write byte-equal rank logs and snapshots, meter equal
per-rank traffic (bytes, messages, collectives and bytes by kind) and
count equal migrations.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HOURS_PER_WEEK, ScaleConfig, SimulationConfig
from repro.distrib import (
    DistributedSimulation,
    ProcessBspCluster,
    spatial_partition,
)
from repro.distrib.dmodel import DIST_STATE
from repro.distrib.partition import PlacePartition
from repro.synthpop import generate_population

SCALE = ScaleConfig(n_persons=300, seed=41)


@pytest.fixture(scope="module")
def pop():
    return generate_population(SCALE)


def partition(pop, kind: str, n_ranks: int) -> PlacePartition:
    if kind == "spatial":
        return spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), n_ranks
        )
    assignment = (np.arange(pop.n_places) % n_ranks).astype(np.int32)
    return PlacePartition(assignment, n_ranks)


def snapshot(directory: Path) -> dict[str, bytes]:
    with np.load(directory / DIST_STATE) as data:
        return {key: data[key].tobytes() for key in data.files}


@pytest.mark.timeout(300)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n_ranks=st.sampled_from([2, 3, 4]),
    duration=st.integers(HOURS_PER_WEEK + 1, HOURS_PER_WEEK + 48),
    kind=st.sampled_from(["spatial", "modulo"]),
    every=st.sampled_from([None, 24, 37]),
)
def test_every_cluster_runs_the_same_model(pop, n_ranks, duration, kind, every):
    extra = {} if every is None else {
        "checkpoint_every_hours": every, "log_durability": "wal",
    }
    config = SimulationConfig(
        scale=SCALE, duration_hours=duration, n_ranks=n_ranks,
        log_cache_records=97, **extra,
    )
    sim = DistributedSimulation(pop, config, partition(pop, kind, n_ranks))
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, cluster in (
            ("lockstep", None),
            ("processes", ProcessBspCluster(n_ranks)),
        ):
            logs, ckpt = Path(tmp) / label, Path(tmp) / f"{label}-ck"
            result = sim.run(
                log_dir=logs, cluster=cluster,
                checkpoint_dir=ckpt if every is not None else None,
            )
            runs[label] = (
                result,
                {p.name: p.read_bytes() for p in sorted(logs.glob("*.evl"))},
                snapshot(ckpt) if result.checkpoints_written else None,
            )
    lockstep, logs, snap = runs["lockstep"]
    assert len(logs) == n_ranks
    assert lockstep.checkpoints_written == (
        0 if every is None else (duration - 1) // every
    )
    other, other_logs, other_snap = runs["processes"]
    assert other_logs == logs
    assert other.per_rank_traffic == lockstep.per_rank_traffic
    assert np.array_equal(other.migrations_per_hour, lockstep.migrations_per_hour)
    assert other.rank_events == lockstep.rank_events
    assert other_snap == snap
