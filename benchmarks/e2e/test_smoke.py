"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e``.

Not collected by tier-1 (``testpaths = tests``).  Runs all five workloads with
``--quick --trace`` — the same code path and checks on a tiny world — and
asserts that every metric ``BENCHMARK.json`` names comes out with a unit and
that no checked operation failed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchenv import BENCH_DIR, ROOT
from compare import verdict
from spans import SpanRecorder

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    run = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    # each child ends with the one line the driver reads
    last_lines = [
        json.loads(line) for line in run.stdout.splitlines() if line.startswith("{")
    ]
    assert len(last_lines) == len(WORKLOADS)
    found = {}
    for name, last_line in zip(WORKLOADS, last_lines):
        found[name] = json.loads((out / f"{name}.seed2017.trace.json").read_text())
        found[name]["last_line"] = last_line
        assert (out / f"{name}.seed2017.trace.spans.json").exists()
    assert not list(out.glob("tmp-*")), "a temporary directory was left behind"
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported(results, workload):
    result = results[workload]
    assert result["failed_share"] == 0 and result["correct"], result["failures"]
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in result["end_to_end"].items():
        assert entry["value"] > 0 and entry["unit"] == units[name], name
    # the result file holds the layer metrics this workload probes; the
    # driver's line names every one
    assert result["per_layer"]
    for name, entry in result["per_layer"].items():
        assert entry["value"] is not None and entry["unit"] == units[name], name
    last_line = result["last_line"]
    assert (last_line["correct"], last_line["failed"]) == (True, 0)
    assert {n: m["unit"] for n, m in last_line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["env"]["kernel_backend"] in ("cext", "numba", "pyref")
    assert set(result["env"]["malloc_env"].values()) != {None}


def test_every_layer_metric_is_probed_somewhere(results):
    probed = set().union(*(r["per_layer"] for r in results.values()))
    assert probed == {m["name"] for m in SPEC["per_layer"]}


def test_span_self_time_subtracts_the_union_of_children():
    recorder = SpanRecorder("t")
    recorder.spans = [
        {"id": 0, "name": "a.x", "layer": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b.y", "layer": "b", "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "b.y", "layer": "b", "parent": 0, "start": 4.0, "end": 7.0},
    ]
    assert recorder.self_times() == [4.0, 4.0, 3.0]
    assert recorder.layer_self_seconds() == {"a": 4.0, "b": 7.0}
    assert recorder.median("b.y") == 3.5


def test_compare_verdicts():
    steady = lambda v: (v, 0.01, [v])  # noqa: E731
    assert verdict(steady(1.0), steady(1.05), True, 0.10)[1] == "agree"
    assert verdict(steady(1.0), steady(1.20), True, 0.10)[1] == "worse"
    assert verdict(steady(100.0), steady(80.0), False, 0.10)[1] == "worse"
    noisy = (1.0, 0.30, [0.8, 1.0, 1.2])
    assert verdict(noisy, (1.05, 0.02, [1.04, 1.06]), True, 0.10)[1] == "unresolved"
    assert verdict(noisy, (0.5, 0.02, [0.49, 0.51]), True, 0.10)[1] == "agree"
