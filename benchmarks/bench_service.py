"""BENCH-SERVICE — the network-query service under 64 concurrent clients.

Stands up a real :class:`~repro.service.server.NetworkQueryService` over
freshly simulated logs and drives it with ``N_CLIENTS`` concurrent
socket clients, each issuing a deterministic per-client mix of
``window`` / ``degrees`` / ``ego`` requests over a sliding pool of
one-week windows.  Three phases:

* **cold reference** — every pool window synthesized directly
  (``synthesize_from_logs``), timed; these networks are also the
  bit-identity references;
* **burst** — all clients request the *same cold window* at once, which
  must coalesce into one composition;
* **load** — the measured mixed workload: per-request latency is
  recorded client-side (wall time around each request), yielding
  p50/p95/p99 latency and queries/sec;
* **warm compose** — the layer below the service: the same pool composed
  by a warm bench-side :class:`~repro.core.tilecache.TileCache`, no
  sockets, no encode.

Emits ``BENCH_service.json``.  The ``--check`` gate compares one
*ratio* against the committed baseline — load p50 ÷ warm compose p50,
the service against the layer below it, so runner hardware doesn't
matter — and asserts perfect success rate, burst coalescing, trace-id
round trips and response bit-identity.  The service-vs-cold throughput
gain is reported, not gated: cold synthesis gets faster on its own.
``--update`` refuses to record a load q/s or p50 more than 20 % worse
than the committed file unless ``--accept-regression "<note>"`` says
why; the note is written into the file.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # print
    PYTHONPATH=src python benchmarks/bench_service.py --update   # rewrite baseline
    PYTHONPATH=src python benchmarks/bench_service.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.service import NetworkQueryService, ServiceClient, ServiceConfig
from repro.distrib import DistributedSimulation, spatial_partition

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_service.json"

BENCH_PERSONS = 4_000
SEED = 2017
N_RANKS = 4
WEEKS = 2
TILE_HOURS = 24
N_CLIENTS = 64
QUERIES_PER_CLIENT = 6
#: request mix per client: mostly full-window CSR fetches, with degree
#: summaries and ego subgraphs mixed in as an analysis workload would
OP_WEIGHTS = {"window": 0.7, "degrees": 0.2, "ego": 0.1}
#: --check fails when a gated ratio, and --update refuses when load q/s
#: or p50, is more than this share worse than the committed file
REGRESSION_MARGIN = 0.20


def window_pool() -> list[tuple[int, int]]:
    """One-week windows stepped by one day across the run, plus an
    unaligned +6 h variant and the full horizon."""
    horizon = WEEKS * repro.HOURS_PER_WEEK
    windows = []
    t0 = 0
    while t0 + repro.HOURS_PER_WEEK <= horizon:
        windows.append((t0, t0 + repro.HOURS_PER_WEEK))
        t0 += TILE_HOURS
    windows.append((6, 6 + repro.HOURS_PER_WEEK))
    windows.append((0, horizon))
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
    return pop


def client_plan(client_no: int, windows) -> list[tuple[str, tuple[int, int]]]:
    """Deterministic per-client request sequence."""
    rng = np.random.default_rng(10_000 + client_no)
    ops = list(OP_WEIGHTS)
    probs = np.array(list(OP_WEIGHTS.values()))
    plan = []
    for _ in range(QUERIES_PER_CLIENT):
        op = ops[rng.choice(len(ops), p=probs / probs.sum())]
        window = windows[rng.integers(len(windows))]
        plan.append((op, window))
    return plan


async def run_client(port: int, client_no: int, windows) -> list[dict]:
    """Execute one client's plan; return per-request latency records.

    Each record carries the server-echoed trace id (the client attaches
    its span context to every request header), so the bench also proves
    the trace round-trip holds under full concurrent load.
    """
    records = []
    async with ServiceClient(port=port, tenant=f"c{client_no:02d}") as client:
        for op, (t0, t1) in client_plan(client_no, windows):
            client.last_trace_id = None
            tic = time.perf_counter()
            if op == "window":
                await client.query_window(t0, t1)
            elif op == "degrees":
                await client.degree_summary(t0, t1)
            else:
                await client.query_ego(client_no, t0, t1)
            ms = 1000 * (time.perf_counter() - tic)
            records.append(
                {"op": op, "ms": ms, "trace_id": client.last_trace_id}
            )
    return records


async def drive_service(log_dir: Path, pop, windows, cold_refs) -> dict:
    config = ServiceConfig(
        port=0, tile_hours=TILE_HOURS, executor_threads=2, prefetch_tiles=1
    )
    service = NetworkQueryService(
        log_dir, pop.n_persons, places=pop.places, config=config
    )
    async with service:
        port = service.port

        # -- burst: every client hits the same cold window at once ------
        burst_window = windows[len(windows) // 2]
        burst_clients = [
            ServiceClient(port=port, tenant=f"b{i:02d}")
            for i in range(N_CLIENTS)
        ]
        await asyncio.gather(*(c.connect() for c in burst_clients))
        tic = time.perf_counter()
        burst_nets = await asyncio.gather(
            *(c.query_window(*burst_window) for c in burst_clients)
        )
        burst_seconds = time.perf_counter() - tic
        await asyncio.gather(*(c.close() for c in burst_clients))
        burst_compositions = service.stats.compositions
        burst_coalesced = service.stats.coalesced
        burst_identical = all(
            np.array_equal(n.adjacency.data, cold_refs[burst_window].adjacency.data)
            for n in burst_nets
        )

        # -- warm the rest of the pool once, then the measured load -----
        async with ServiceClient(port=port, tenant="warmup") as warm:
            for window in windows:
                await warm.query_window(*window)
        await service.prefetch_idle()

        load_base_queries = service.stats.queries
        load_base_comps = service.stats.compositions
        load_base_coal = service.stats.coalesced
        tic = time.perf_counter()
        per_client = await asyncio.gather(
            *(run_client(port, i, windows) for i in range(N_CLIENTS))
        )
        load_seconds = time.perf_counter() - tic
        load_queries = service.stats.queries - load_base_queries
        load_compositions = service.stats.compositions - load_base_comps
        load_coalesced = service.stats.coalesced - load_base_coal

        # -- bit-identity of served windows vs the cold references ------
        identical = burst_identical
        async with ServiceClient(port=port, tenant="verify") as verify:
            for window, ref in cold_refs.items():
                net = await verify.query_window(*window)
                identical = identical and (
                    np.array_equal(net.adjacency.data, ref.adjacency.data)
                    and np.array_equal(
                        net.adjacency.indices, ref.adjacency.indices
                    )
                    and np.array_equal(
                        net.adjacency.indptr, ref.adjacency.indptr
                    )
                )
        stats = service.stats.snapshot()

    latencies = [r["ms"] for recs in per_client for r in recs]
    expected = N_CLIENTS * QUERIES_PER_CLIENT
    by_op: dict[str, list[float]] = {}
    for recs in per_client:
        for r in recs:
            by_op.setdefault(r["op"], []).append(r["ms"])
    trace_ids = [r["trace_id"] for recs in per_client for r in recs]
    traced = [t for t in trace_ids if t]
    return {
        "burst": {
            "window": list(burst_window),
            "clients": N_CLIENTS,
            "seconds": round(burst_seconds, 4),
            "compositions": burst_compositions,
            "coalesced": burst_coalesced,
        },
        "load": {
            "clients": N_CLIENTS,
            "n_requests": len(latencies),
            "success_rate": round(len(latencies) / expected, 4),
            "seconds": round(load_seconds, 4),
            "queries_per_sec": round(len(latencies) / load_seconds, 1),
            "latency_ms": {
                "p50": round(float(np.percentile(latencies, 50)), 2),
                "p95": round(float(np.percentile(latencies, 95)), 2),
                "p99": round(float(np.percentile(latencies, 99)), 2),
                "mean": round(float(np.mean(latencies)), 2),
                "max": round(float(np.max(latencies)), 2),
            },
            "latency_ms_by_op": {
                op: {
                    "n": len(ms),
                    "p50": round(float(np.percentile(ms, 50)), 2),
                    "p99": round(float(np.percentile(ms, 99)), 2),
                }
                for op, ms in sorted(by_op.items())
            },
            "compositions": load_compositions,
            "coalesced": load_coalesced,
            "trace_roundtrip": round(len(traced) / max(len(trace_ids), 1), 4),
            "distinct_trace_ids": len(set(traced)),
        },
        "server_stats": stats,
        "outputs_bit_identical": bool(identical),
    }


def warm_compose_p50_ms(log_dir: Path, n_persons: int, windows) -> float:
    """The layer below the service: p50 of composing the pool's windows
    from a fully warm cache, in-process."""
    cache = repro.TileCache(log_dir, n_persons, tile_hours=TILE_HOURS)
    try:
        cache.warm(0, WEEKS * repro.HOURS_PER_WEEK)
        walls = []
        for repeat in range(4):
            for t0, t1 in windows:
                tic = time.perf_counter()
                cache.query_window(t0, t1)
                if repeat:  # the first pass fills the fringe partials
                    walls.append(1000 * (time.perf_counter() - tic))
    finally:
        cache.close()
    return float(np.percentile(walls, 50))


def run_bench() -> dict:
    windows = window_pool()
    with tempfile.TemporaryDirectory(prefix="bench_service_") as tmp:
        log_dir = Path(tmp)
        pop = generate_logs(log_dir)

        # -- cold reference: direct synthesis per pool window -----------
        cold_refs = {}
        tic = time.perf_counter()
        for t0, t1 in windows:
            net, _ = repro.synthesize_from_logs(
                log_dir, pop.n_persons, t0, t1
            )
            cold_refs[(t0, t1)] = net
        cold_seconds = time.perf_counter() - tic
        cold_per_query_ms = 1000 * cold_seconds / len(windows)

        measured = asyncio.run(
            drive_service(log_dir, pop, windows, cold_refs)
        )
        compose_ms = warm_compose_p50_ms(log_dir, pop.n_persons, windows)

    cold_qps = len(windows) / cold_seconds
    gain = measured["load"]["queries_per_sec"] / cold_qps
    return {
        "bench": "service",
        "config": {
            "persons": BENCH_PERSONS,
            "seed": SEED,
            "ranks": N_RANKS,
            "weeks": WEEKS,
            "tile_hours": TILE_HOURS,
            "clients": N_CLIENTS,
            "queries_per_client": QUERIES_PER_CLIENT,
            "op_weights": OP_WEIGHTS,
            "n_windows": len(windows),
        },
        "cold": {
            "seconds": round(cold_seconds, 4),
            "per_query_ms": round(cold_per_query_ms, 2),
            "queries_per_sec": round(cold_qps, 2),
        },
        **measured,
        "warm_compose": {"p50_ms": round(compose_ms, 3)},
        "load_p50_over_warm_compose": round(
            measured["load"]["latency_ms"]["p50"] / compose_ms, 1
        ),
        "throughput_gain_vs_cold": round(gain, 2),
    }


def check_regression(measured: dict, baseline: dict) -> list[str]:
    failures = []
    if not measured["outputs_bit_identical"]:
        failures.append(
            "served networks are no longer bit-identical to direct synthesis"
        )
    if measured["load"]["success_rate"] < 1.0:
        failures.append(
            f"success rate {measured['load']['success_rate']:.4f} < 1.0"
        )
    roundtrip = measured["load"].get("trace_roundtrip", 0.0)
    if roundtrip < 1.0:
        failures.append(
            f"trace-id round-trip {roundtrip:.4f} < 1.0: some responses "
            "came back without the request's trace id"
        )
    n_requests = measured["load"]["n_requests"]
    distinct = measured["load"].get("distinct_trace_ids", 0)
    if distinct != n_requests:
        failures.append(
            f"{distinct} distinct trace ids across {n_requests} requests: "
            "trace ids must be unique per request"
        )
    burst = measured["burst"]
    if burst["compositions"] >= burst["clients"]:
        failures.append(
            f"burst of {burst['clients']} identical queries ran "
            f"{burst['compositions']} compositions: coalescing is broken"
        )
    if burst["coalesced"] == 0:
        failures.append("burst produced zero coalesced queries")
    base_ratio = baseline["load_p50_over_warm_compose"]
    ceiling = base_ratio * (1 + REGRESSION_MARGIN)
    if measured["load_p50_over_warm_compose"] > ceiling:
        failures.append(
            f"load p50 is {measured['load_p50_over_warm_compose']:.1f}x the "
            f"warm compose p50, above {ceiling:.1f}x "
            f"(baseline {base_ratio:.1f}x + {REGRESSION_MARGIN:.0%})"
        )
    return failures


def update_regressions(measured: dict, baseline: dict) -> list[str]:
    """Absolute load numbers more than the margin worse than the
    committed file — what ``--update`` will not record unremarked."""
    old, new = baseline["load"], measured["load"]
    pairs = [
        ("load q/s", old["queries_per_sec"], new["queries_per_sec"], -1),
        ("load p50 ms", old["latency_ms"]["p50"], new["latency_ms"]["p50"], 1),
    ]
    return [
        f"{name}: {was} -> {now} ({(now - was) / was:+.0%})"
        for name, was, now, worse in pairs
        if worse * (now - was) > REGRESSION_MARGIN * was
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update", action="store_true",
        help=f"rewrite the committed baseline {BASELINE_PATH.name}",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if the service regressed >20%% against the "
        "committed baseline",
    )
    parser.add_argument(
        "--accept-regression", metavar="NOTE",
        help="with --update: record load numbers >20%% worse than the "
        "committed baseline anyway, with this note explaining why",
    )
    args = parser.parse_args(argv)
    if args.accept_regression is not None and not args.update:
        parser.error("--accept-regression only applies to --update")

    measured = run_bench()
    print(json.dumps(measured, indent=2))

    if args.update:
        if not measured["outputs_bit_identical"]:
            print("\nrefusing baseline: outputs not bit-identical",
                  file=sys.stderr)
            return 1
        if measured["load"]["success_rate"] < 1.0:
            print("\nrefusing baseline: queries failed", file=sys.stderr)
            return 1
        worse = (
            update_regressions(measured, json.loads(BASELINE_PATH.read_text()))
            if BASELINE_PATH.exists()
            else []
        )
        if worse:
            print("\nworse than the committed baseline:", file=sys.stderr)
            for line in worse:
                print(f"  - {line}", file=sys.stderr)
            if args.accept_regression is None:
                print(
                    'refusing baseline: re-run with --accept-regression '
                    '"<note>" to record it anyway',
                    file=sys.stderr,
                )
                return 1
            measured["accepted_regression"] = {
                "note": args.accept_regression, "diff": worse,
            }
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"\nbaseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        if not BASELINE_PATH.exists():
            print(f"\nno committed baseline at {BASELINE_PATH}",
                  file=sys.stderr)
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
