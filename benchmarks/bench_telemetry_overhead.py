"""BENCH-TELEMETRY — cost of the always-on telemetry layer.

Times the same synthesis workload twice in one process — once with
telemetry recording enabled (spans and registry counters/histograms) and
once with it switched off via :func:`repro.obs.configure` — and gates
the instrumented-vs-bare overhead at under ``OVERHEAD_LIMIT``.

The two modes interleave *call by call* so frequency scaling, cache
warmth, and background load hit both equally, and each mode's figure is
a low quantile of its per-call times (near-minimum wall time is the
standard low-noise estimator for CPU-bound work; a low quantile beats
the raw minimum because one lucky scheduler slot can't move it, and
coarser block-alternating schedules showed ±4% run-to-run noise,
swamping the real 1–2% cost).
The gate is absolute — measured fresh on the runner, not relative to
the committed baseline — because the claim being enforced is "telemetry
costs < 3%", which must hold on any hardware.
``BENCH_telemetry.json`` records reference numbers for context.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py           # print
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --update  # rewrite baseline
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.distrib import DistributedSimulation, spatial_partition
from repro.obs import configure, get_collector

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_telemetry.json"

BENCH_PERSONS = 2_000
SEED = 2017
N_RANKS = 2
WEEKS = 1
REPS = 150  # timed synthesize calls per mode, interleaved call by call
ESTIMATOR_QUANTILE = 0.1  # compare 10th-percentile times, not raw minima
OVERHEAD_LIMIT = 0.03  # fail --check at >= 3% instrumented-vs-bare


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
    return pop


def one_call(log_dir: Path, n_persons: int) -> float:
    """Wall seconds for one full-week synthesis call."""
    tic = time.perf_counter()
    repro.synthesize_from_logs(
        log_dir, n_persons, 0, WEEKS * repro.HOURS_PER_WEEK
    )
    return time.perf_counter() - tic


def run_bench() -> dict:
    reps_on: list[float] = []
    reps_off: list[float] = []
    prev = configure(True)
    try:
        with tempfile.TemporaryDirectory(prefix="bench_telemetry_") as tmp:
            log_dir = Path(tmp)
            pop = generate_logs(log_dir)

            # warm both paths (imports, file cache, allocator) untimed
            for on in (True, False):
                configure(on)
                one_call(log_dir, pop.n_persons)

            for rep in range(REPS):
                # alternate which mode goes first within each pair so
                # neither systematically benefits from the warmer cache
                order = (True, False) if rep % 2 == 0 else (False, True)
                for on in order:
                    configure(on)
                    secs = one_call(log_dir, pop.n_persons)
                    (reps_on if on else reps_off).append(secs)
                get_collector().drain()  # don't let spans accumulate
    finally:
        configure(prev)

    # the k-th smallest time is a steadier floor estimate than the raw
    # minimum (one lucky scheduler slot can't move it)
    k = int(len(reps_on) * ESTIMATOR_QUANTILE)
    best_on = sorted(reps_on)[k]
    best_off = sorted(reps_off)[k]
    overhead = (best_on - best_off) / best_off
    return {
        "bench": "telemetry_overhead",
        "config": {
            "persons": BENCH_PERSONS,
            "seed": SEED,
            "ranks": N_RANKS,
            "weeks": WEEKS,
            "reps_per_mode": REPS,
            "estimator_quantile": ESTIMATOR_QUANTILE,
        },
        "seconds_instrumented": round(best_on, 6),
        "seconds_bare": round(best_off, 6),
        "min_instrumented": round(min(reps_on), 6),
        "min_bare": round(min(reps_off), 6),
        "median_instrumented": round(sorted(reps_on)[len(reps_on) // 2], 6),
        "median_bare": round(sorted(reps_off)[len(reps_off) // 2], 6),
        "overhead": round(overhead, 4),
        "overhead_pct": round(100 * overhead, 2),
        "limit_pct": round(100 * OVERHEAD_LIMIT, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update", action="store_true",
        help=f"rewrite the committed baseline {BASELINE_PATH.name}",
    )
    mode.add_argument(
        "--check", action="store_true",
        help=f"fail (exit 1) if telemetry costs >= {100 * OVERHEAD_LIMIT:.0f}%% "
        "over the uninstrumented run",
    )
    args = parser.parse_args(argv)

    measured = run_bench()
    print(json.dumps(measured, indent=2))

    if args.update:
        if measured["overhead"] >= OVERHEAD_LIMIT:
            print(
                f"\nrefusing baseline: overhead "
                f"{measured['overhead_pct']:.2f}% >= {100 * OVERHEAD_LIMIT:.0f}%",
                file=sys.stderr,
            )
            return 1
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"\nbaseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        if measured["overhead"] >= OVERHEAD_LIMIT:
            print(
                f"\nREGRESSION: telemetry overhead "
                f"{measured['overhead_pct']:.2f}% >= "
                f"{100 * OVERHEAD_LIMIT:.0f}% limit "
                f"(instrumented {measured['seconds_instrumented']}s vs "
                f"bare {measured['seconds_bare']}s)",
                file=sys.stderr,
            )
            return 1
        print(
            f"\ntelemetry overhead {measured['overhead_pct']:.2f}% "
            f"< {100 * OVERHEAD_LIMIT:.0f}% limit"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
