"""``repro simulate --ranks 1`` crash recovery, as a real process.

A one-rank ``simulate --durability wal --checkpoint D`` killed with SIGKILL
is re-run with the same command: it continues from the last snapshot in
``D`` and its log ``cmp``s equal to a run that was never killed.  A
checkpoint the run cannot resume from is ``error: …``, exit 2, with the
log left as it was.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import ScaleConfig, SimulationConfig

from .sim.test_checkpoint import write_serial_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    path = tmp_path_factory.mktemp("world") / "world.npz"
    assert main(["generate", "--persons", "1500", "--seed", "4",
                 "--out", str(path)]) == 0
    return path


def simulate_args(world, logs, ckpt, every=24, weeks=3):
    return ["simulate", "--population", str(world), "--ranks", "1",
            "--log-dir", str(logs), "--weeks", str(weeks), "--durability",
            "wal", "--checkpoint", str(ckpt), "--checkpoint-every", str(every)]


def run_cli(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "repro", *args], env=env, **kwargs)


def checkpoints_written(stdout: str) -> int:
    return int(re.search(r"(\d+) checkpoint\(s\)", stdout).group(1))


def test_sigkilled_simulate_resumes_to_the_same_log(world, tmp_path):
    ref = run_cli(simulate_args(world, tmp_path / "ref", tmp_path / "ck_ref"),
                  stdout=subprocess.PIPE, text=True)
    ref_out, _ = ref.communicate(timeout=120)
    assert ref.returncode == 0

    args = simulate_args(world, tmp_path / "logs", tmp_path / "ck")
    victim = run_cli(args, stdout=subprocess.DEVNULL)
    manifest = tmp_path / "ck" / "dist_manifest.json"
    deadline = time.monotonic() + 120
    try:
        # kill once a few snapshots are committed, mid-run
        while not (
            manifest.is_file() and json.loads(manifest.read_text())["next_hour"] >= 72
        ):
            assert victim.poll() is None, "simulate finished before the kill"
            assert time.monotonic() < deadline, "no snapshot committed"
            time.sleep(0.005)
        victim.send_signal(signal.SIGKILL)
    finally:
        assert victim.wait(timeout=60) == -signal.SIGKILL
    killed_at = json.loads(manifest.read_text())["next_hour"]
    assert killed_at < 3 * 168

    resumed = run_cli(args, stdout=subprocess.PIPE, text=True)
    out, _ = resumed.communicate(timeout=120)
    assert resumed.returncode == 0
    # continued from the snapshot: only the later ones were written again
    assert checkpoints_written(out) < checkpoints_written(ref_out)
    assert filecmp.cmp(tmp_path / "ref" / "rank_0000.evl",
                       tmp_path / "logs" / "rank_0000.evl", shallow=False)
    assert not (tmp_path / "logs" / "rank_0000.evl.wal").exists()


def assert_refused(capsys, args, logs, match):
    before = {p.name: p.read_bytes() for p in logs.iterdir()}
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in logs.iterdir()} == before


def test_serial_checkpoint_is_an_error_not_a_fresh_run(world, tmp_path, capsys):
    logs, ckpt = tmp_path / "logs", tmp_path / "ck"
    logs.mkdir()
    (logs / "rank_0000.evl").write_bytes(b"torn by the killed serial run")
    write_serial_checkpoint(
        ckpt, SimulationConfig(scale=ScaleConfig(n_persons=1500, seed=4))
    )
    assert_refused(capsys, simulate_args(world, logs, ckpt), logs,
                   "sim_manifest.json")


def test_checkpoint_of_another_configuration_is_an_error(world, tmp_path, capsys):
    logs, ckpt = tmp_path / "logs", tmp_path / "ck"
    assert main(simulate_args(world, logs, ckpt, weeks=1)) == 0
    capsys.readouterr()
    assert_refused(capsys, simulate_args(world, logs, ckpt, every=12, weeks=1),
                   logs, "different configuration")
