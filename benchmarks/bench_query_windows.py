"""BENCH-QUERY — warm tile-cache window queries vs cold per-query synthesis.

Reproduces the ``bench_txt_fourweek`` configuration (8 ranks, 4 simulated
weeks, bench-scale population) and serves a repeated sliding-window
workload — 22 one-week windows stepped by 24 h plus unaligned variants,
each requested ``REPEATS`` times as a multi-user analysis service would
field them — two ways:

* **cold**: every window is a fresh ``synthesize_from_logs`` over the log
  directory (records re-read and re-packed per query);
* **warm**: the windows go through a :class:`~repro.core.tilecache.TileCache`
  after a one-off warm-up — each query composes O(log W) cached
  power-of-two tiles plus fringe corrections.

Emits ``BENCH_query.json`` (cold/warm totals, per-query latency, the
warm/cold speedup, cache build cost, and peak cached nnz vs the budget)
and — with ``--check`` — fails if a warm answer differs from cold
synthesis or the cache outgrew its budget.  The warm/cold speedup is
reported, not gated: cold synthesis is a layer that gets faster on its
own (2.5x in one change), which moved the ratio without the cache
changing at all; warm latency is gated end to end by the ``query-windows``
workload of ``benchmarks/e2e``.

Usage::

    PYTHONPATH=src python benchmarks/bench_query_windows.py            # print
    PYTHONPATH=src python benchmarks/bench_query_windows.py --update  # rewrite baseline
    PYTHONPATH=src python benchmarks/bench_query_windows.py --check   # CI gate
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
from repro.core.tilecache import TileCache
from repro.distrib import DistributedSimulation, spatial_partition
from repro.evlog import LogSet

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_query.json"

BENCH_PERSONS = 6_000
SEED = 2017
N_RANKS = 8
WEEKS = 4
BATCH_SIZE = 2
TILE_HOURS = 24
#: each window is requested this many times (the cache exists to serve
#: repeated traffic; cold synthesis pays full price per request)
REPEATS = 3
ROUNDS = 3  # best-of, to shed scheduler/cold-cache noise (as kernel bench)
#: in-memory cache budget (stored nonzeros); the bench asserts the cache
#: honors it while still hitting the speedup target
BUDGET_NNZ = 60_000_000
SPEEDUP_TARGET = 10.0  # warm must beat cold by at least this factor


def sliding_windows() -> list[tuple[int, int]]:
    """One workload pass: one-week windows stepped by one day across the
    four simulated weeks, plus unaligned (+6 h / +18 h) variants and the
    full run.  The measured workload is ``REPEATS`` such passes — the
    repeated overlapping reads a multi-user analysis service fields."""
    horizon = WEEKS * repro.HOURS_PER_WEEK
    windows = []
    t0 = 0
    while t0 + repro.HOURS_PER_WEEK <= horizon:
        windows.append((t0, t0 + repro.HOURS_PER_WEEK))
        t0 += TILE_HOURS
    for off in (6, 18):
        windows.append((off, off + repro.HOURS_PER_WEEK))
    windows.append((0, horizon))  # the full run
    return windows


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


def run_bench() -> dict:
    windows = sliding_windows()
    requests = [w for _ in range(REPEATS) for w in windows]
    with tempfile.TemporaryDirectory(prefix="bench_query_") as tmp:
        log_dir = Path(tmp)
        pop, logs = generate_logs(log_dir)
        horizon = WEEKS * repro.HOURS_PER_WEEK

        # Each side runs the full request loop ROUNDS times, best-of —
        # same machine, same loop, so the warm/cold *ratio* is robust to
        # background load.  Only the first pass's responses are retained
        # (for the identity check below): holding every response alive
        # just makes Python's GC rescan them all on both sides, measuring
        # the harness instead of the query paths.
        # -- cold: fresh synthesis per request -----------------------------
        cold_nets = []
        cold_seconds = None
        for round_no in range(ROUNDS):
            tic = time.perf_counter()
            for i, (t0, t1) in enumerate(requests):
                net, _ = repro.synthesize_from_logs(
                    logs, pop.n_persons, t0, t1,
                    batch_size=BATCH_SIZE,
                )
                if round_no == 0 and i < len(windows):
                    cold_nets.append(net)
            elapsed = time.perf_counter() - tic
            if cold_seconds is None or elapsed < cold_seconds:
                cold_seconds = elapsed

        # -- warm: tile cache, warm-up timed separately --------------------
        with TileCache(
            logs, pop.n_persons,
            tile_hours=TILE_HOURS, budget_nnz=BUDGET_NNZ,
        ) as cache:
            tic = time.perf_counter()
            cache.warm(0, horizon)
            build_seconds = time.perf_counter() - tic

            warm_nets = []
            peak_nnz = cache.cached_nnz
            warm_seconds = None
            for round_no in range(ROUNDS):
                tic = time.perf_counter()
                for i, (t0, t1) in enumerate(requests):
                    net = cache.query_window(t0, t1)
                    if round_no == 0 and i < len(windows):
                        warm_nets.append(net)
                    peak_nnz = max(peak_nnz, cache.cached_nnz)
                elapsed = time.perf_counter() - tic
                if warm_seconds is None or elapsed < warm_seconds:
                    warm_seconds = elapsed
            stats = cache.stats

        identical = all(
            np.array_equal(c.adjacency.data, w.adjacency.data)
            and np.array_equal(c.adjacency.indices, w.adjacency.indices)
            and np.array_equal(c.adjacency.indptr, w.adjacency.indptr)
            for c, w in zip(cold_nets, warm_nets)
        )

    speedup = cold_seconds / warm_seconds
    return {
        "bench": "query_windows",
        "config": {
            "persons": BENCH_PERSONS,
            "seed": SEED,
            "ranks": N_RANKS,
            "weeks": WEEKS,
            "tile_hours": TILE_HOURS,
            "budget_nnz": BUDGET_NNZ,
            "n_windows": len(windows),
            "repeats": REPEATS,
            "n_requests": len(requests),
            "speedup_target": SPEEDUP_TARGET,
        },
        "cold": {
            "seconds": round(cold_seconds, 4),
            "per_query_ms": round(1000 * cold_seconds / len(requests), 2),
        },
        "warm": {
            "build_seconds": round(build_seconds, 4),
            "seconds": round(warm_seconds, 4),
            "per_query_ms": round(1000 * warm_seconds / len(requests), 2),
            "tile_hits": stats.tile_hits,
            "fringe_hits": stats.fringe_hits,
            "tiles_built": stats.tiles_built,
            "tiles_merged": stats.tiles_merged,
            "evictions": stats.evictions,
            "fringe_hours": stats.fringe_hours,
        },
        "speedup": round(speedup, 2),
        "cache_nnz_peak": peak_nnz,
        "cache_under_budget": peak_nnz <= BUDGET_NNZ,
        "outputs_bit_identical": identical,
    }


def check_regression(measured: dict) -> list[str]:
    failures = []
    if not measured["outputs_bit_identical"]:
        failures.append("warm queries are no longer bit-identical to cold")
    if not measured["cache_under_budget"]:
        failures.append(
            f"cache peaked at {measured['cache_nnz_peak']:,} nnz, over the "
            f"{measured['config']['budget_nnz']:,} budget"
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
        help="fail (exit 1) if warm answers differ from cold synthesis or "
        "the cache outgrew its budget",
    )
    args = parser.parse_args(argv)

    measured = run_bench()
    print(json.dumps(measured, indent=2))

    if args.update:
        # the committed baseline must itself demonstrate the target: the
        # per-run CI gate only checks the relative ratio (stable across
        # hardware), so sub-target numbers are rejected here instead
        if measured["speedup"] < SPEEDUP_TARGET:
            print(
                f"\nrefusing baseline: speedup {measured['speedup']:.2f}x "
                f"below the {SPEEDUP_TARGET:.0f}x target",
                file=sys.stderr,
            )
            return 1
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"\nbaseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        failures = check_regression(measured)
        if failures:
            print("\nREGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nwarm answers bit-identical, cache under budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
