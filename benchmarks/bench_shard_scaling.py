"""BENCH-SHARD — place-sharded synthesis scaling and bit-identity.

Ten times the kernel bench's population (60,000 persons, 8 ranks, 4
simulated weeks) synthesized through :mod:`repro.distrib.shardsynth`:

* **bit-identity** — every shard count (1/2/4) runs through the real
  forked ``shard_synthesize`` path and must reproduce the single-process
  reference CSR exactly;
* **balance gate** — the shard plan's estimated-work imbalance (whole
  rank files, LPT-assigned by work) must stay ≤ 1.2 at every shard
  count;
* **scaling gate** — the critical-path speedup at 4 shards must reach
  3x over the 1-shard run.

Timing uses the **critical-path model**: each shard's partial build is
measured serially (no oversubscription) and a k-shard wall is
``max_s(shard_s) + reduce``.  CI machines pin this suite to one or two
cores, where concurrently forked shards merely timeshare — serial
per-shard measurement is the machine-independent way to report what a
k-core box gets, and the ``--check`` gate compares same-run *ratios*
against the committed baseline, never absolute throughput.  The real
forked path still runs for every configuration (that is what the
bit-identity matrix exercises); only the stopwatch avoids it.

Emits ``BENCH_shard.json``; with ``--check``, fails if any identity or
balance gate breaks or the 4-shard speedup regresses more than 20%
against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py            # print
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --update   # rewrite baseline
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.distrib import DistributedSimulation, spatial_partition
from repro.distrib.shardsynth import _shard_partial, plan_shards, shard_synthesize
from repro.evlog import LogSet

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_shard.json"

BENCH_PERSONS = 60_000  # 10x the kernel bench
SEED = 2017
N_RANKS = 8
WEEKS = 4
SHARD_COUNTS = (1, 2, 4)
MAX_IMBALANCE = 1.2
MIN_SPEEDUP_4 = 3.0
REGRESSION_MARGIN = 0.20
REPEATS = 3  # best-of, to shed cold-cache noise


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


def critical_path(plan, n_persons, t0, t1) -> dict:
    """Best-of-``REPEATS`` serial measurement of one plan's k-shard wall:
    ``max_s(shard partial) + reduce``.  Planning is excluded — a shard
    plan is computed once and amortized over every query on the logs."""
    best_shards = [float("inf")] * plan.n_shards
    best_reduce = float("inf")
    for _ in range(REPEATS):
        partials = []
        for s in range(plan.n_shards):
            tic = time.perf_counter()
            partial, _, _ = _shard_partial(s, plan, n_persons, t0, t1)
            best_shards[s] = min(
                best_shards[s], time.perf_counter() - tic
            )
            partials.append(partial)
        tic = time.perf_counter()
        total = partials[0]
        for p in partials[1:]:
            total = total + p
        best_reduce = min(best_reduce, time.perf_counter() - tic)
    wall = max(best_shards) + best_reduce
    return {
        "shard_seconds": [round(s, 4) for s in best_shards],
        "reduce_seconds": round(best_reduce, 4),
        "wall_seconds": round(wall, 4),
    }


def run_bench() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_shard_") as tmp:
        log_dir = Path(tmp)
        pop, logs = generate_logs(log_dir)
        t0, t1 = 0, WEEKS * repro.HOURS_PER_WEEK

        tic = time.perf_counter()
        reference, ref_report = repro.synthesize_from_logs(
            logs, pop.n_persons, t0, t1
        )
        single_seconds = time.perf_counter() - tic

        # per shard count: bit-identity through the real forked path,
        # then critical-path walls of the same plan
        identity: dict = {}
        imbalances: dict = {}
        scaling: dict = {}
        for k in SHARD_COUNTS:
            plan = plan_shards(logs, k, t0, t1)
            net, report = shard_synthesize(
                logs, pop.n_persons, t0, t1, shard_plan=plan
            )
            identity[str(k)] = {
                "bit_identical": all(
                    np.array_equal(
                        getattr(net.adjacency, key),
                        getattr(reference.adjacency, key),
                    )
                    for key in ("data", "indices", "indptr")
                ),
                "imbalance": round(report.imbalance, 4),
                "records": report.n_records,
                "files": [len(files) for files in plan.shard_files],
            }
            imbalances[k] = report.imbalance
            scaling[str(k)] = critical_path(plan, pop.n_persons, t0, t1)
        wall_1 = scaling["1"]["wall_seconds"]
        for k in SHARD_COUNTS:
            scaling[str(k)]["speedup"] = round(
                wall_1 / scaling[str(k)]["wall_seconds"], 3
            )

    return {
        "bench": "shard_scaling",
        "config": {
            "persons": BENCH_PERSONS,
            "seed": SEED,
            "ranks": N_RANKS,
            "weeks": WEEKS,
            "window": [t0, t1],
            "records": ref_report.n_records,
            "shard_counts": list(SHARD_COUNTS),
        },
        "single_process_seconds": round(single_seconds, 4),
        "identity": identity,
        "scaling": scaling,
        "imbalance": {str(k): round(v, 4) for k, v in imbalances.items()},
        "outputs_bit_identical": all(
            leg["bit_identical"] for leg in identity.values()
        ),
    }


def check_gates(measured: dict, baseline: dict | None) -> list[str]:
    failures = []
    if not measured["outputs_bit_identical"]:
        broken = [
            name
            for name, leg in measured["identity"].items()
            if not leg["bit_identical"]
        ]
        failures.append(
            f"sharded outputs are not bit-identical: {', '.join(broken)}"
        )
    for k, imb in measured["imbalance"].items():
        if imb > MAX_IMBALANCE:
            failures.append(
                f"imbalance at {k} shard(s) is {imb:.3f} > {MAX_IMBALANCE}"
            )
    speedup_4 = measured["scaling"]["4"]["speedup"]
    if baseline is None:
        # fresh baseline: the absolute scaling requirement must hold
        if speedup_4 < MIN_SPEEDUP_4:
            failures.append(
                f"4-shard speedup {speedup_4:.2f}x < required "
                f"{MIN_SPEEDUP_4:.1f}x"
            )
    else:
        base = baseline["scaling"]["4"]["speedup"]
        floor = base * (1 - REGRESSION_MARGIN)
        if speedup_4 < floor:
            failures.append(
                f"4-shard speedup {speedup_4:.2f}x < {floor:.2f}x "
                f"(baseline {base:.2f}x - {REGRESSION_MARGIN:.0%})"
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
        help="fail (exit 1) on any identity/balance gate or a >20%% "
        "regression of the 4-shard speedup vs the committed baseline",
    )
    args = parser.parse_args(argv)

    measured = run_bench()
    print(json.dumps(measured, indent=2))

    if args.update:
        failures = check_gates(measured, baseline=None)
        if failures:
            print("\nBASELINE REJECTED:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"\nbaseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        if not BASELINE_PATH.exists():
            print(
                f"\nno committed baseline at {BASELINE_PATH}",
                file=sys.stderr,
            )
            return 1
        baseline = json.loads(BASELINE_PATH.read_text())
        failures = check_gates(measured, baseline)
        if failures:
            print("\nREGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nno regression vs committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
