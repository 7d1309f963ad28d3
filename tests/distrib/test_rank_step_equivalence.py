"""The production rank-hour step against the step it replaced.

``_reference_rank_step.ReferenceDistributedSimulation`` carries the
pre-change ``rank_fn`` verbatim (full column gathers, owner lookup over
every hosted agent).  The production step is one scan of the rank's hosted
table against the shared change plane — in the C extension, or in its numpy
twin when that is unavailable (CI runs this file once per implementation;
the ``twin`` tests below mask the extension out so one process covers
both).  Either must give the same bytes everywhere a run can be observed:
rank logs, per-rank records, migration counts, per-rank traffic bytes and
messages, and the snapshots a killed run resumes from.  The production
loop skips the hours at which nobody anywhere changes, so it makes
exactly one collective fewer per rank and change-free hour than the
reference, which steps every hour; and a logged run's snapshot stores no
records (its log holds them).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.config import HOURS_PER_WEEK, ScaleConfig, SimulationConfig
from repro.distrib import (
    DistributedSimulation,
    random_partition,
    spatial_partition,
)
from repro.distrib import dmodel, rankstep
from repro.distrib.dmodel import DIST_MANIFEST, DIST_STATE
from repro.errors import RankFailureError

from ._reference_rank_step import ReferenceDistributedSimulation

SCALE = ScaleConfig(n_persons=300, seed=5)
DURATIONS = [5, HOURS_PER_WEEK, HOURS_PER_WEEK + 5, 2 * HOURS_PER_WEEK + 5]


@pytest.fixture(scope="module")
def pop():
    return repro.generate_population(SCALE)


def make_partition(pop, kind: str, n_ranks: int):
    if kind == "spatial":
        return spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), n_ranks
        )
    return random_partition(pop.n_places, n_ranks, np.random.default_rng(3))


def quiet_hours(pop, config, first: int = 1) -> int:
    """Hours in ``[first, duration)`` at which nobody changes, counted from
    the change planes."""
    generator = pop.schedule_generator(config.schedule)
    quiet, previous = 0, None
    for index in range(-(-config.duration_hours // HOURS_PER_WEEK)):
        week = generator.week(index)
        hours = index * HOURS_PER_WEEK + np.arange(HOURS_PER_WEEK)
        still = ~week.change_plane(previous).any(axis=1)
        quiet += int((still & (hours >= first) & (hours < config.duration_hours)).sum())
        previous = week
    return quiet


def assert_same_traffic(new, ref, skipped: int, unsent: int = 0) -> None:
    """``new`` made ``skipped`` fewer collectives than ``ref`` and sent
    what it sent, but for ``unsent`` bytes of records its snapshots did not
    gather."""
    assert new.messages_sent == ref.messages_sent
    assert new.bytes_sent == ref.bytes_sent - unsent
    assert new.collectives == ref.collectives - skipped
    want = dict(ref.by_kind)
    if unsent:
        want["gather"] -= unsent
    if "alltoall" not in new.by_kind:
        # every stepped hour was change-free: no exchange was made at all
        assert want.pop("alltoall") == 0
    assert new.by_kind == want


def assert_same_run(
    new, ref, new_logs=None, ref_logs=None, *, quiet, snapshots=()
) -> None:
    """``quiet``: the change-free hours the final attempt stepped;
    ``snapshots``: the hours it committed a snapshot at."""
    assert len(new.per_rank_records) == len(ref.per_rank_records)
    for rank, (a, b) in enumerate(zip(new.per_rank_records, ref.per_rank_records)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), f"rank {rank} records differ"
    assert new.events_per_rank() == ref.events_per_rank()
    assert np.array_equal(new.migrations_per_hour, ref.migrations_per_hour)
    # a logged run's snapshot gathers no records: a non-root rank ships
    # those emitted before the snapshot hour (stop < hour) only to the
    # reference's root
    unsent = [0] * len(ref.per_rank_records)
    if new.held_records is None:
        for rank, records in enumerate(ref.per_rank_records[1:], start=1):
            unsent[rank] = sum(records[records["stop"] < h].nbytes for h in snapshots)
    assert len(new.per_rank_traffic) == len(ref.per_rank_traffic)
    for a, b, bytes_unsent in zip(new.per_rank_traffic, ref.per_rank_traffic, unsent):
        assert_same_traffic(a, b, quiet, bytes_unsent)
    assert_same_traffic(
        new.traffic, ref.traffic, quiet * len(new.per_rank_traffic), sum(unsent)
    )
    if new_logs is not None:
        names = sorted(p.name for p in ref_logs.glob("*.evl"))
        assert names == sorted(p.name for p in new_logs.glob("*.evl"))
        assert len(names) == len(ref.per_rank_records)
        for name in names:
            assert (new_logs / name).read_bytes() == (ref_logs / name).read_bytes(), (
                f"rank log {name} differs"
            )


@pytest.mark.parametrize("logged", [False, True], ids=["nolog", "logged"])
@pytest.mark.parametrize("duration", DURATIONS)
@pytest.mark.parametrize("kind", ["spatial", "random"])
@pytest.mark.parametrize("n_ranks", [1, 2, 4, 7])
def test_step_matches_reference(pop, tmp_path, n_ranks, kind, duration, logged):
    partition = make_partition(pop, kind, n_ranks)
    config = SimulationConfig(
        scale=pop.scale, duration_hours=duration, n_ranks=n_ranks,
        log_cache_records=64,
    )
    new_logs = tmp_path / "new" if logged else None
    ref_logs = tmp_path / "ref" if logged else None
    new = DistributedSimulation(pop, config, partition).run(log_dir=new_logs)
    ref = ReferenceDistributedSimulation(pop, config, partition).run(log_dir=ref_logs)
    assert new.total_events > 0
    assert_same_run(new, ref, new_logs, ref_logs, quiet=quiet_hours(pop, config))


@pytest.fixture()
def twin(monkeypatch):
    """Mask the extension out of the step (a no-op on CI's twin leg)."""
    monkeypatch.setattr(rankstep, "load_cext", lambda: None)


@pytest.mark.parametrize("duration", [5, 2 * HOURS_PER_WEEK + 5])
@pytest.mark.parametrize("kind", ["spatial", "random"])
@pytest.mark.parametrize("n_ranks", [1, 4])
def test_twin_step_matches_reference(pop, tmp_path, twin, n_ranks, kind, duration):
    partition = make_partition(pop, kind, n_ranks)
    config = SimulationConfig(
        scale=pop.scale, duration_hours=duration, n_ranks=n_ranks,
        log_cache_records=64,
    )
    new = DistributedSimulation(pop, config, partition).run(log_dir=tmp_path / "new")
    ref = ReferenceDistributedSimulation(pop, config, partition).run(
        log_dir=tmp_path / "ref"
    )
    assert new.impl == "twin"
    assert_same_run(
        new, ref, tmp_path / "new", tmp_path / "ref", quiet=quiet_hours(pop, config)
    )


def kill_once_at(hour: int, rank: int):
    fired = []

    def hook(comm, at):
        if at == hour and comm.rank == rank and not fired:
            fired.append(at)
            comm.die()

    return hook


def load_snapshot(directory):
    with np.load(directory / DIST_STATE) as data:
        return {key: data[key] for key in data.files}


def without_records(snapshot) -> list[str]:
    """The keys of ``snapshot`` a logged run's snapshot stores."""
    return sorted(key for key in snapshot if not key.startswith("records_"))


@pytest.mark.parametrize(
    "kill_hour, resumes_at",
    [(100, 84), (170, HOURS_PER_WEEK)],
    ids=["mid-week", "week-boundary"],
)
def test_killed_and_resumed_matches_reference(pop, tmp_path, kill_hour, resumes_at):
    """Kill a rank, then resume in a *new* ``run`` call (fresh schedule
    cache: the resume week's plane needs a previous week nobody cached)."""
    n_ranks = 4
    partition = make_partition(pop, "spatial", n_ranks)
    config = SimulationConfig(
        scale=pop.scale, duration_hours=2 * HOURS_PER_WEEK + 5, n_ranks=n_ranks,
        checkpoint_every_hours=84, heartbeat_timeout=2.0, log_durability="wal",
        log_cache_records=64,
    )
    results = {}
    for label, cls in (
        ("new", DistributedSimulation),
        ("ref", ReferenceDistributedSimulation),
    ):
        logs, ckpt = tmp_path / f"{label}-logs", tmp_path / f"{label}-ck"
        with pytest.raises(RankFailureError):
            cls(pop, config, partition).run(
                log_dir=logs, checkpoint_dir=ckpt,
                fault_hook=kill_once_at(kill_hour, rank=2),
            )
        manifest = json.loads((ckpt / DIST_MANIFEST).read_text())
        assert manifest["next_hour"] == resumes_at
        snapshot = load_snapshot(ckpt)
        run = cls(pop, config, partition).run(log_dir=logs, checkpoint_dir=ckpt)
        results[label] = (snapshot, run, logs)

    new_snap, new, new_logs = results["new"]
    ref_snap, ref, ref_logs = results["ref"]
    # the snapshot the killed runs left behind: same arrays, same dtypes,
    # but no records (the logs hold them up to the offsets)
    assert sorted(new_snap) == without_records(ref_snap)
    for key in new_snap:
        assert new_snap[key].dtype == ref_snap[key].dtype, key
        assert np.array_equal(new_snap[key], ref_snap[key]), key
    assert_same_run(
        new, ref, new_logs, ref_logs, quiet=quiet_hours(pop, config, resumes_at),
        snapshots=range(resumes_at + 84, config.duration_hours, 84),
    )

    # and neither differs from a run nobody killed
    clean_logs = tmp_path / "clean-logs"
    clean = DistributedSimulation(pop, config, partition).run(
        log_dir=clean_logs, checkpoint_dir=tmp_path / "clean-ck"
    )
    assert clean.merged_records().tobytes() == new.merged_records().tobytes()
    for path in sorted(clean_logs.glob("*.evl")):
        assert path.read_bytes() == (new_logs / path.name).read_bytes()


@pytest.mark.parametrize("impl", ["loaded", "twin"])
def test_resumes_state_persisted_by_the_old_step(pop, tmp_path, request, impl):
    """``dist_state.npz`` + manifest + torn logs exactly as the four-column
    step wrote them (the reference shares ``_save_dist_checkpoint`` with the
    commit before the hosted table) resume under the table to the bytes of
    a run nobody killed, next snapshot included."""
    if impl == "twin":
        request.getfixturevalue("twin")
    n_ranks = 4
    partition = make_partition(pop, "random", n_ranks)
    config = SimulationConfig(
        scale=pop.scale, duration_hours=HOURS_PER_WEEK + 40, n_ranks=n_ranks,
        checkpoint_every_hours=60, heartbeat_timeout=2.0, log_durability="wal",
        log_cache_records=64,
    )
    logs, ckpt = tmp_path / "logs", tmp_path / "ck"
    with pytest.raises(RankFailureError):
        ReferenceDistributedSimulation(pop, config, partition).run(
            log_dir=logs, checkpoint_dir=ckpt, fault_hook=kill_once_at(130, rank=1)
        )
    old_snapshot = load_snapshot(ckpt)
    assert json.loads((ckpt / DIST_MANIFEST).read_text())["next_hour"] == 120
    resumed = DistributedSimulation(pop, config, partition).run(
        log_dir=logs, checkpoint_dir=ckpt
    )
    assert resumed.checkpoints_written == 1  # hour 180, over the old one

    clean_logs, clean_ckpt = tmp_path / "clean-logs", tmp_path / "clean-ck"
    clean = ReferenceDistributedSimulation(pop, config, partition).run(
        log_dir=clean_logs, checkpoint_dir=clean_ckpt
    )
    for a, b in zip(resumed.per_rank_records, clean.per_rank_records):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(resumed.migrations_per_hour, clean.migrations_per_hour)
    for path in sorted(clean_logs.glob("*.evl")):
        assert path.read_bytes() == (logs / path.name).read_bytes()

    # the snapshot the resumed run left at hour 180: the table derives the
    # old columns from its fields, and the log holds the records
    own, ref = load_snapshot(ckpt), load_snapshot(clean_ckpt)
    assert sorted(ref) == sorted(old_snapshot)
    assert sorted(own) == without_records(ref)
    for key in own:
        assert own[key].dtype == ref[key].dtype == old_snapshot[key].dtype, key
        assert np.array_equal(own[key], ref[key]), key


def test_supervised_restart_matches_reference(pop, tmp_path):
    """Restart inside one ``run`` call (the schedule cache survives)."""
    partition = make_partition(pop, "random", 3)
    config = SimulationConfig(
        scale=pop.scale, duration_hours=HOURS_PER_WEEK + 30, n_ranks=3,
        checkpoint_every_hours=24, heartbeat_timeout=2.0, log_durability="wal",
    )
    runs = []
    for label, cls in (
        ("new", DistributedSimulation),
        ("ref", ReferenceDistributedSimulation),
    ):
        logs = tmp_path / f"{label}-logs"
        run = cls(pop, config, partition).run(
            log_dir=logs, checkpoint_dir=tmp_path / f"{label}-ck",
            fault_hook=kill_once_at(HOURS_PER_WEEK + 3, rank=1), max_restarts=1,
        )
        assert run.restarts == 1
        runs.append((run, logs))
    (new, new_logs), (ref, ref_logs) = runs
    # the final attempt resumed from the snapshot at the week boundary
    assert_same_run(
        new, ref, new_logs, ref_logs, quiet=quiet_hours(pop, config, HOURS_PER_WEEK),
        snapshots=[HOURS_PER_WEEK + 24],
    )


def test_fault_hook_runs_once_per_rank_hour(pop):
    partition = make_partition(pop, "spatial", 3)
    config = SimulationConfig(scale=pop.scale, duration_hours=30, n_ranks=3)
    seen = []
    DistributedSimulation(pop, config, partition).run(
        fault_hook=lambda comm, hour: seen.append((comm.rank, hour))
    )
    assert sorted(seen) == [(r, h) for r in range(3) for h in range(1, 30)]


def test_step_invariants_hold_at_every_checkpoint(pop, tmp_path, monkeypatch):
    """What lets the step look at changers only: every hosted agent sits on
    a place its rank owns, and its open spell is the grid at ``hour - 1``."""
    n_ranks = 4
    partition = make_partition(pop, "random", n_ranks)
    assignment = partition.assignment
    config = SimulationConfig(
        scale=pop.scale, duration_hours=2 * HOURS_PER_WEEK + 5, n_ranks=n_ranks,
        checkpoint_every_hours=7,  # 168 = 24 * 7: week boundaries included
    )
    generator = pop.schedule_generator(config.schedule)
    weeks = [generator.week(w) for w in range(3)]
    snapshots = []
    save = dmodel._save_dist_checkpoint

    def spy(directory, digest, next_hour, states):
        snapshots.append(next_hour)
        week, hour_of_week = divmod(next_hour - 1, HOURS_PER_WEEK)
        grid = weeks[week]
        hosted = []
        for rank, st in enumerate(states):
            ids = st["ids"].astype(np.int64)
            hosted.append(ids)
            assert (assignment[st["spell_place"]] == rank).all()
            assert np.array_equal(st["spell_place"], grid.place[ids, hour_of_week])
            assert np.array_equal(st["spell_act"], grid.activity[ids, hour_of_week])
            assert (st["spell_start"] < next_hour).all()
        assert np.array_equal(
            np.sort(np.concatenate(hosted)), np.arange(pop.n_persons)
        )
        save(directory, digest, next_hour, states)

    monkeypatch.setattr(dmodel, "_save_dist_checkpoint", spy)
    DistributedSimulation(pop, config, partition).run(checkpoint_dir=tmp_path / "ck")
    assert snapshots == list(range(7, config.duration_hours, 7))
    assert HOURS_PER_WEEK in snapshots and 2 * HOURS_PER_WEEK in snapshots
