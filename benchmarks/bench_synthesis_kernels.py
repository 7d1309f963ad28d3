"""BENCH-KERNELS — kernel × backend synthesis matrix.

Reproduces the ``bench_txt_fourweek`` configuration (8 ranks, 4 simulated
weeks, bench-scale population, batches of 2) and synthesizes the **full
4-week window** under three pipeline configurations (there is one record
path — the per-file walk — so no dispatch axis):

* ``dense-hours`` kernel — the seed baseline and oracle;
* ``intervals`` kernel, scipy backend;
* ``intervals`` kernel, **masked backend** — the compiled
  masked-triangular SpGEMM with preallocated workspaces.

Emits ``BENCH_synthesis.json`` (records/s, per-stage timings, kernel-stage
timings, speedups, the pickled size of a stage-2 pool task) and — with
``--check`` — fails if the interval kernel's measured speedup over the
in-run dense baseline regresses more than 20% against the committed
baseline, if a stage-2 task no longer pickles to under 1 KB (the root
ships paths, never records), or if the masked backend's combined
``collocation_matrices`` + ``adjacency`` stage time is not at least 3x
faster (minus the same margin) than the scipy backend *measured in the
same run*.  All gates compare ratios of
same-process measurements, never absolute throughput: every config runs
on the same machine interleaved repeat-by-repeat, so the ratios are
stable across hardware while absolute records/s are not.  The masked
gate is skipped (with a note) when no compiled implementation is
available — CI's pure-fallback leg.

Usage::

    PYTHONPATH=src python benchmarks/bench_synthesis_kernels.py            # print
    PYTHONPATH=src python benchmarks/bench_synthesis_kernels.py --update  # rewrite baseline
    PYTHONPATH=src python benchmarks/bench_synthesis_kernels.py --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.kernels import compiled_impl
from repro.core.pipeline import _file_task
from repro.distrib import DistributedSimulation, SerialPool, spatial_partition
from repro.evlog import LogSet
from repro.sim import Simulation  # noqa: F401  (parity with sibling benches)

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_synthesis.json"

BENCH_PERSONS = 6_000
SEED = 2017
N_RANKS = 8
WEEKS = 4
BATCH_SIZE = 2
REGRESSION_MARGIN = 0.20  # fail --check below 80% of baseline speedup
#: required same-run combined-stage ratio, scipy over masked backend
MASKED_MIN_RATIO = 3.0
REPEATS = 4  # best-of, to shed cold-cache noise

#: stage-2 pool tasks carry a path and a window, never records
MAX_TASK_BYTES = 1024

#: row name -> (kernel, backend)
CONFIGS = {
    "dense-hours": ("dense-hours", "scipy"),
    "intervals/scipy": ("intervals", "scipy"),
    "intervals/masked": ("intervals", "masked"),
}


class _TaskSizePool(SerialPool):
    """A serial pool that records the largest pickled per-file task."""

    file_task_bytes = 0

    def map(self, fn, items):
        if fn is _file_task:
            self.file_task_bytes = max(
                self.file_task_bytes, *(len(pickle.dumps(i)) for i in items)
            )
        return super().map(fn, items)


def generate_logs(log_dir: Path):
    pop = repro.generate_population(
        repro.ScaleConfig(n_persons=BENCH_PERSONS, seed=SEED)
    )
    cfg = repro.SimulationConfig(
        scale=pop.scale,
        duration_hours=WEEKS * repro.HOURS_PER_WEEK,
        n_ranks=N_RANKS,
    )
    part = spatial_partition(
        pop.places.coords(), pop.places.capacity.astype(float), N_RANKS
    )
    DistributedSimulation(pop, cfg, part).run(log_dir=log_dir)
    return pop, LogSet(log_dir)


def measure_once(logs, n_persons, t0, t1, kernel, backend):
    pool = _TaskSizePool()
    try:
        tic = time.perf_counter()
        net, report = repro.synthesize_from_logs(
            logs, n_persons, t0, t1,
            batch_size=BATCH_SIZE, pool=pool,
            kernel=kernel, backend=backend,
        )
        elapsed = time.perf_counter() - tic
    finally:
        pool.close()
    stages = report.timings.stages
    return {
        "seconds": elapsed,
        "records_per_s": report.n_records / elapsed,
        "stages": {k: round(v, 4) for k, v in stages.items()},
        "combined_colloc_adjacency": (
            stages.get("collocation_matrices", 0.0)
            + stages.get("adjacency", 0.0)
        ),
        "kernel_stages": {
            k: round(v, 4) for k, v in sorted(report.kernel_timings.items())
        },
        "file_task_bytes": pool.file_task_bytes,
        "n_records": report.n_records,
        "network": net,
    }


def run_bench() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_kernels_") as tmp:
        log_dir = Path(tmp)
        pop, logs = generate_logs(log_dir)
        t0, t1 = 0, WEEKS * repro.HOURS_PER_WEEK

        # interleave configs within each repeat: the masked/scipy ratio
        # gate needs both sides measured under the same machine drift.
        # best total time and best combined stage time are tracked
        # independently — a run with the fastest end-to-end seconds is
        # not always the one with the fastest kernel stages
        results: dict = {}
        combined: dict = {}
        for _ in range(REPEATS):
            for name, (kernel, backend) in CONFIGS.items():
                run = measure_once(logs, pop.n_persons, t0, t1, kernel, backend)
                combined[name] = min(
                    combined.get(name, float("inf")),
                    run.pop("combined_colloc_adjacency"),
                )
                best = results.get(name)
                if best is None or run["seconds"] < best["seconds"]:
                    results[name] = run

    base = results["dense-hours"]
    nets = [r.pop("network") for r in results.values()]
    identical = all(
        (nets[0].adjacency != n.adjacency).nnz == 0 for n in nets[1:]
    )
    for name, r in results.items():
        r["speedup"] = round(base["seconds"] / r["seconds"], 3)
        r["seconds"] = round(r["seconds"], 4)
        r["records_per_s"] = round(r["records_per_s"], 1)
        r["combined_colloc_adjacency"] = round(combined[name], 4)

    scipy_combined = combined["intervals/scipy"]
    masked_combined = combined["intervals/masked"]
    backend_gate = {
        "compiled_impl": compiled_impl(),
        "scipy_combined_s": round(scipy_combined, 4),
        "masked_combined_s": round(masked_combined, 4),
        "ratio": (
            round(scipy_combined / masked_combined, 3) if masked_combined else None
        ),
        "required_ratio": MASKED_MIN_RATIO,
    }

    return {
        "bench": "synthesis_kernels",
        "config": {
            "persons": BENCH_PERSONS,
            "seed": SEED,
            "ranks": N_RANKS,
            "weeks": WEEKS,
            "window": [0, WEEKS * repro.HOURS_PER_WEEK],
            "batch_size": BATCH_SIZE,
            "records": base["n_records"],
        },
        "kernels": results,
        "backend_gate": backend_gate,
        "file_task_bytes": max(r["file_task_bytes"] for r in results.values()),
        "outputs_bit_identical": identical,
    }


def check_regression(measured: dict, baseline: dict) -> list[str]:
    failures = []
    if not measured["outputs_bit_identical"]:
        failures.append("kernel outputs are no longer bit-identical")
    for name in ("intervals/scipy", "intervals/masked"):
        base_speedup = baseline["kernels"][name]["speedup"]
        got = measured["kernels"][name]["speedup"]
        floor = base_speedup * (1 - REGRESSION_MARGIN)
        if got < floor:
            failures.append(
                f"{name}: speedup {got:.2f}x < {floor:.2f}x "
                f"(baseline {base_speedup:.2f}x - {REGRESSION_MARGIN:.0%})"
            )
    gate = measured["backend_gate"]
    if gate["compiled_impl"] is None:
        print(
            "note: no compiled implementation available; "
            "masked-backend gate skipped (pure-fallback leg)"
        )
    else:
        floor = MASKED_MIN_RATIO * (1 - REGRESSION_MARGIN)
        if gate["ratio"] is None or gate["ratio"] < floor:
            failures.append(
                f"masked backend combined colloc+adjacency ratio "
                f"{gate['ratio']}x < {floor:.2f}x (required "
                f"{MASKED_MIN_RATIO:.1f}x - {REGRESSION_MARGIN:.0%} noise "
                f"margin, same-run scipy/masked)"
            )
    if measured["file_task_bytes"] >= MAX_TASK_BYTES:
        failures.append(
            f"a stage-2 pool task pickles to {measured['file_task_bytes']} "
            f"bytes (must stay under {MAX_TASK_BYTES}: paths, not records)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update", action="store_true",
        help=f"rewrite the committed baseline {BASELINE_PATH.name}",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if the interval kernel regressed >20%% "
        "against the committed baseline or the masked backend misses "
        "its same-run ratio gate",
    )
    args = parser.parse_args(argv)

    measured = run_bench()
    print(json.dumps(measured, indent=2))

    if args.update:
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"\nbaseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        if not BASELINE_PATH.exists():
            print(f"\nno committed baseline at {BASELINE_PATH}", file=sys.stderr)
            return 1
        baseline = json.loads(BASELINE_PATH.read_text())
        failures = check_regression(measured, baseline)
        if failures:
            print("\nREGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nno regression vs committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
