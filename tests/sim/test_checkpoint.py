"""Simulation checkpoint/resume: a serial run is the rank step on one rank,
so its snapshots are the collective ``dist_manifest.json`` /
``dist_state.npz`` pair — atomic commit and bit-for-bit replay.  The
per-hour engine's old ``sim_manifest.json`` format is refused with a typed
error, never silently overwritten."""

from __future__ import annotations

import hashlib
import io
import json
import pickle

import numpy as np
import pytest

from repro.config import ScaleConfig, SimulationConfig
from repro.distrib import DistributedSimulation, round_robin_partition
from repro.distrib.dmodel import (
    DIST_MANIFEST,
    DIST_STATE,
    _load_dist_checkpoint,
    _save_dist_checkpoint,
    sim_checkpoint_digest,
)
from repro.errors import CheckpointError, RankFailureError
from repro.evlog.schema import make_records
from repro.synthpop import generate_population

SCALE = ScaleConfig(n_persons=250, seed=77)
HOURS = 48


@pytest.fixture(scope="module")
def pop():
    return generate_population(SCALE)


def _config(**overrides):
    defaults = dict(
        scale=SCALE,
        duration_hours=HOURS,
        checkpoint_every_hours=10,
        log_durability="wal",
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _run(pop, config=None, **run_kwargs):
    partition = round_robin_partition(pop.n_places, 1)
    return DistributedSimulation(pop, config or _config(), partition).run(
        **run_kwargs
    )


def _kill_at(hour_to_die: int):
    def hook(comm, hour: int) -> None:
        if hour == hour_to_die:
            comm.die()

    return hook


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSnapshotStore:
    def _state(self):
        return {
            "ids": np.arange(5, dtype=np.uint32),
            "spell_start": np.arange(5, dtype=np.int64),
            "spell_act": np.ones(5, dtype=np.uint32),
            "spell_place": np.arange(5, dtype=np.uint32),
            "records": make_records([0], [3], [1], [2], [4]),
            "migrations_out": np.zeros(HOURS, dtype=np.int64),
            "writer_offset": -1,
        }

    def test_roundtrip(self, tmp_path):
        _save_dist_checkpoint(tmp_path, "d1", 12, [self._state()])
        next_hour, (state,) = _load_dist_checkpoint(tmp_path, "d1", 1)
        assert next_hour == 12
        assert state["spell_start"].tolist() == list(range(5))
        assert state["records"].tobytes() == self._state()["records"].tobytes()
        assert state["writer_offset"] == -1

    def test_digest_mismatch_refused(self, tmp_path):
        _save_dist_checkpoint(tmp_path, "d1", 12, [self._state()])
        with pytest.raises(CheckpointError, match="different"):
            _load_dist_checkpoint(tmp_path, "d2", 1)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            _load_dist_checkpoint(tmp_path, "d1", 1)

    def test_manifest_without_state(self, tmp_path):
        _save_dist_checkpoint(tmp_path, "d1", 12, [self._state()])
        (tmp_path / DIST_STATE).unlink()
        with pytest.raises(CheckpointError, match=DIST_STATE):
            _load_dist_checkpoint(tmp_path, "d1", 1)

    def test_corrupt_manifest(self, tmp_path):
        _save_dist_checkpoint(tmp_path, "d1", 12, [self._state()])
        (tmp_path / DIST_MANIFEST).write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            _load_dist_checkpoint(tmp_path, "d1", 1)

    def test_digest_covers_config_and_log(self):
        a = sim_checkpoint_digest(_config(), with_log=True)
        b = sim_checkpoint_digest(_config(), with_log=False)
        c = sim_checkpoint_digest(
            _config(checkpoint_every_hours=11), with_log=True
        )
        assert len({a, b, c}) == 3


class TestResumeEquivalence:
    def test_bit_for_bit_resume(self, pop, tmp_path):
        res_a = _run(
            pop, log_dir=tmp_path / "a", checkpoint_dir=tmp_path / "ck_a"
        )
        assert res_a.checkpoints_written == 4

        with pytest.raises(RankFailureError):
            _run(
                pop,
                log_dir=tmp_path / "b",
                checkpoint_dir=tmp_path / "ck_b",
                fault_hook=_kill_at(33),
            )
        manifest = json.loads((tmp_path / "ck_b" / DIST_MANIFEST).read_text())
        assert manifest["next_hour"] == 30

        res_c = _run(
            pop, log_dir=tmp_path / "b", checkpoint_dir=tmp_path / "ck_b"
        )
        assert res_c.checkpoints_written == 1  # hour 40, the one after 30
        assert np.array_equal(res_a.per_rank_records[0], res_c.per_rank_records[0])
        # identical log bytes, not just identical events
        assert _sha(res_a.log_paths[0]) == _sha(res_c.log_paths[0])

    def test_resume_without_log(self, pop, tmp_path):
        res_a = _run(pop, checkpoint_dir=tmp_path / "ck_a")
        with pytest.raises(RankFailureError):
            _run(pop, checkpoint_dir=tmp_path / "ck_b", fault_hook=_kill_at(25))
        res_c = _run(pop, checkpoint_dir=tmp_path / "ck_b")
        assert np.array_equal(res_a.per_rank_records[0], res_c.per_rank_records[0])

    def test_no_checkpoints_without_dir(self, pop):
        assert _run(pop).checkpoints_written == 0

    def test_resume_requires_checkpoint_dir(self, pop, tmp_path):
        """Resuming needs the checkpoint directory alone: ``simulate`` has
        no ``--resume``, and a run given the directory continues."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(
                ["simulate", "--population", "w.npz", "--log-dir", "logs",
                 "--checkpoint", str(tmp_path), "--resume"]
            )
        assert exc_info.value.code == 2
        with pytest.raises(RankFailureError):
            _run(pop, checkpoint_dir=tmp_path, fault_hook=_kill_at(25))
        assert json.loads((tmp_path / DIST_MANIFEST).read_text())["next_hour"] == 20
        resumed = _run(pop, checkpoint_dir=tmp_path)
        assert resumed.checkpoints_written == 2  # hours 30 and 40 only

    def test_resume_rejects_changed_config(self, pop, tmp_path):
        with pytest.raises(RankFailureError):
            _run(pop, checkpoint_dir=tmp_path / "ck", fault_hook=_kill_at(25))
        changed = _config(log_cache_records=123)
        with pytest.raises(CheckpointError, match="different"):
            _run(pop, changed, checkpoint_dir=tmp_path / "ck")


def write_serial_checkpoint(directory, config, next_hour=30, offset=0):
    """The snapshot the per-hour serial engine committed before the rank
    step wrote every log: ``sim_state.npz`` first, ``sim_manifest.json``
    last, in that engine's layout."""
    directory.mkdir(parents=True)
    buf = io.BytesIO()
    aux = pickle.dumps({"disease": None, "observers": []}, protocol=4)
    np.savez_compressed(
        buf,
        spell_start=np.zeros(SCALE.n_persons, dtype=np.int64),
        spell_activity=np.zeros(SCALE.n_persons, dtype=np.uint32),
        spell_place=np.zeros(SCALE.n_persons, dtype=np.uint32),
        records=make_records([0], [3], [1], [2], [4]),
        aux=np.frombuffer(aux, dtype=np.uint8),
    )
    (directory / "sim_state.npz").write_bytes(buf.getvalue())
    manifest = {
        "version": 1,
        "digest": sim_checkpoint_digest(config, with_log=True),
        "next_hour": next_hour,
        "writer_offset": offset,
    }
    (directory / "sim_manifest.json").write_text(json.dumps(manifest))


class TestSerialFormat:
    def test_serial_checkpoint_refused_before_any_log_opens(self, pop, tmp_path):
        ckpt, logs = tmp_path / "ck", tmp_path / "logs"
        write_serial_checkpoint(ckpt, _config())
        logs.mkdir()
        torn = logs / "rank_0000.evl"
        torn.write_bytes(b"EVL torn by the killed run")
        with pytest.raises(CheckpointError, match="sim_manifest.json"):
            _run(pop, log_dir=logs, checkpoint_dir=ckpt)
        assert [p.name for p in logs.iterdir()] == ["rank_0000.evl"]
        assert torn.read_bytes() == b"EVL torn by the killed run"
        assert sorted(p.name for p in ckpt.iterdir()) == [
            "sim_manifest.json", "sim_state.npz",
        ]

    def test_collective_snapshot_beside_it_resumes(self, pop, tmp_path):
        """Only a directory with no collective snapshot is refused."""
        ckpt = tmp_path / "ck"
        with pytest.raises(RankFailureError):
            _run(pop, checkpoint_dir=ckpt, fault_hook=_kill_at(25))
        write_serial_checkpoint(tmp_path / "serial", _config())
        for path in (tmp_path / "serial").iterdir():
            path.replace(ckpt / path.name)
        res = _run(pop, checkpoint_dir=ckpt)
        assert np.array_equal(res.per_rank_records[0], _run(pop).per_rank_records[0])
