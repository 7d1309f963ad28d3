"""query-windows: a fixed pool of windows through one warm tile cache.

Set-up builds the month world and one unbounded ``TileCache`` and warms the
horizon; a round is one pass over the pool through ``TileCache.query_window``
(the ``repro query`` product surface).  Warm tile composition does all the
work — the "fits in cache" case; kernels and the service do none.
"""

from __future__ import annotations

import shutil
import statistics
import time
from types import SimpleNamespace

import numpy as np

import repro
from repro import TileCache

from harness import build_world, same_csr, world_metrics

NAME = "query-windows"

WEEK = repro.HOURS_PER_WEEK
TILE_HOURS = 24


def sizes(quick: bool) -> dict:
    return {
        "persons": 800 if quick else 10_000, "ranks": 4,
        "weeks": 2 if quick else 4, "tile_hours": TILE_HOURS,
    }


def window_pool(hours: int, seed: int) -> list[tuple[str, int, int]]:
    """Day-stepped aligned weeks, weeks shifted +6 h, unaligned days, and the
    half and whole horizon: 38 windows over four weeks, in seeded order."""
    pool = [("aligned", t0, t0 + WEEK) for t0 in range(0, hours - WEEK + 1, 24)]
    pool += [
        ("unaligned", t0, t0 + WEEK)
        for t0 in range(6, 6 + 7 * 72, 72) if t0 + WEEK <= hours
    ]
    pool += [
        ("unaligned", t0, t0 + 24)
        for t0 in range(5, 5 + 7 * 96, 96) if t0 + 24 <= hours
    ]
    pool += [("long", 0, hours // 2), ("long", 0, hours)]
    return [pool[i] for i in np.random.default_rng(seed).permutation(len(pool))]


def cold_references(world, pool) -> dict[tuple[int, int], object]:
    """Each pool window synthesized directly from the logs, no cache."""
    return {
        (t0, t1): repro.synthesize_from_logs(
            world.log_dir, world.pop.n_persons, t0, t1
        )[0].adjacency
        for _, t0, t1 in pool
    }


def setup(ctx):
    size = sizes(ctx.quick)
    world = build_world(
        ctx, size["persons"], size["ranks"], size["weeks"], ctx.tmp / "query-logs"
    )
    cache = TileCache(world.log_dir, world.pop.n_persons, tile_hours=TILE_HOURS)
    with ctx.span("core.tilecache.warm"):
        tiles_built = cache.warm(0, world.hours)
    return SimpleNamespace(
        size=size, world=world, cache=cache, tiles_built=tiles_built,
        pool=window_pool(world.hours, ctx.seed), refs=None, passes=[], child_pids=[],
    )


def teardown(ctx, state) -> None:
    state.cache.close()
    shutil.rmtree(state.world.log_dir)


def one_pass(ctx, cache, pool):
    ops, nets = [], []
    for kind, t0, t1 in pool:
        tic = time.perf_counter()
        with ctx.span(f"core.tilecache.query_{kind}"):
            nets.append(cache.query_window(t0, t1))
        ops.append((kind, time.perf_counter() - tic))
    return ops, nets


def run_round(ctx, state):
    ops, nets = one_pass(ctx, state.cache, state.pool)
    stats = state.cache.stats
    state.passes.append((stats.tile_hits, stats.fringe_hits, stats.fringe_hours))
    return ops, nets


def check_pass(ctx, state, nets, what: str) -> None:
    for (_, t0, t1), net in zip(state.pool, nets):
        ctx.check(
            same_csr(net.adjacency, state.refs[(t0, t1)]),
            f"query-windows: {what} window ({t0},{t1}) differs from cold synthesis",
        )


def verify_round(ctx, state, nets, first: bool) -> None:
    if first:
        state.refs = cold_references(state.world, state.pool)
    check_pass(ctx, state, nets, "cached")


def probes(ctx, state, latencies, round_wall_s: float) -> dict:
    world, cache = state.world, state.cache
    n_persons = world.pop.n_persons
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in latencies:
        by_kind.setdefault(kind, []).append(1000.0 * seconds)
    everything = [ms for values in by_kind.values() for ms in values]

    # the "larger than the cache" case: same pool, 40 % of the nnz budget
    tight = TileCache(
        world.log_dir, n_persons, tile_hours=TILE_HOURS,
        budget_nnz=int(0.4 * cache.cached_nnz),
    )
    try:
        tight_ops, tight_nets = one_pass(ctx, tight, state.pool)
        check_pass(ctx, state, tight_nets, "tight-budget")
        tight_stats = tight.stats
    finally:
        tight.close()

    store = ctx.tmp / "tile-store"
    persisted = TileCache(
        world.log_dir, n_persons, tile_hours=TILE_HOURS, cache_dir=store
    )
    persisted.warm(0, world.hours)
    persisted.close()
    with ctx.span("core.tilecache.reload"):
        reopened = TileCache(
            world.log_dir, n_persons, tile_hours=TILE_HOURS, cache_dir=store
        )
        reopened.warm(0, world.hours)
    ctx.check(
        reopened.stats.tiles_built == 0 and reopened.stats.disk_hits > 0,
        "query-windows: a reopened tile store rebuilt tiles instead of loading them",
    )
    reopened.close()
    shutil.rmtree(store)

    first, last, before = state.passes[0], state.passes[-1], state.passes[-2]
    out = world_metrics(ctx, world)
    out.update(
        {
            "core.tilecache.warm_s": ctx.spans.median("core.tilecache.warm"),
            "core.tilecache.tiles_built": state.tiles_built,
            "core.tilecache.cached_nnz": cache.cached_nnz,
            "core.tilecache.aligned_p50_ms": statistics.median(by_kind["aligned"]),
            "core.tilecache.unaligned_p50_ms": statistics.median(by_kind["unaligned"]),
            "core.tilecache.long_p50_ms": statistics.median(by_kind["long"]),
            "core.tilecache.query_p99_ms": float(np.percentile(everything, 99)),
            # hits of one steady pass; fringe hours of the first pass, the
            # only one that reads records for the unaligned edges
            "core.tilecache.tile_hits": last[0] - before[0],
            "core.tilecache.fringe_hits": last[1] - before[1],
            "core.tilecache.fringe_hours": first[2],
            "core.tilecache.tight_mean_ms": 1000.0
            * statistics.mean(s for _, s in tight_ops),
            "core.tilecache.tight_evictions": tight_stats.evictions,
            "core.tilecache.tight_tiles_built": tight_stats.tiles_built,
            "core.tilecache.reload_s": ctx.spans.median("core.tilecache.reload"),
        }
    )
    return out
