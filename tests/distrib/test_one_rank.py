"""One rank writes exactly what the serial engine emits.

``simulate --ranks 1`` runs the rank step on a world of one rank, and the
per-hour ``Simulation.run`` is its oracle: the rank's records must be
byte-equal to the oracle's, in emission order, and so must the log it
writes — for any world, any duration (one hour, part of a week, past a
week seam) and any checkpoint cadence.  CI runs this file once with the C
extension and once under ``REPRO_NO_CC=1``; the ``twin`` case masks the
extension out so one process covers both.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HOURS_PER_WEEK, ScaleConfig, SimulationConfig
from repro.distrib import DistributedSimulation, rankstep, round_robin_partition
from repro.evlog import LogReader
from repro.sim import Simulation
from repro.synthpop import generate_population

durations = st.one_of(
    st.just(1),
    st.integers(2, HOURS_PER_WEEK - 1),
    st.integers(0, 30).map(lambda k: 2 * HOURS_PER_WEEK + k),
)


@pytest.fixture(params=["loaded", "twin"])
def impl(request, monkeypatch):
    """The step as loaded (the C extension unless ``REPRO_NO_CC=1``), and
    the numpy twin with the extension masked out."""
    if request.param == "twin":
        monkeypatch.setattr(rankstep, "load_cext", lambda: None)
    return request.param


@given(
    n_persons=st.integers(20, 200),
    seed=st.integers(0, 2**31),
    duration=durations,
    every=st.sampled_from([None, 7, 24]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_one_rank_writes_what_the_oracle_emits(impl, n_persons, seed, duration, every):
    pop = generate_population(ScaleConfig(n_persons=n_persons, seed=seed))
    config = SimulationConfig(
        scale=pop.scale,
        duration_hours=duration,
        log_cache_records=64,
        checkpoint_every_hours=every,
    )
    oracle = Simulation(pop, config).run().records
    partition = round_robin_partition(pop.n_places, 1)
    with tempfile.TemporaryDirectory() as tmp:
        result = DistributedSimulation(pop, config, partition).run(
            log_dir=Path(tmp) / "logs",
            checkpoint_dir=Path(tmp) / "ck" if every else None,
        )
        logged = LogReader(result.log_paths[0]).read_all()
        # a logged run reads its records back from the log
        (read_back,) = result.per_rank_records
        # a run without logs holds them (and its snapshots carry them)
        held = DistributedSimulation(pop, config, partition).run(
            checkpoint_dir=Path(tmp) / "ck-held" if every else None,
        )
    if impl == "twin":
        assert result.impl == held.impl == "twin"
    (records,) = held.per_rank_records
    assert records.dtype == oracle.dtype
    assert records.tobytes() == oracle.tobytes()
    assert logged.tobytes() == read_back.tobytes() == oracle.tobytes()
    assert result.total_events == held.total_events == len(oracle)
