"""synth-windows: cold synthesis from logs, the read side of evlog.

The month world is built in set-up; a round synthesizes a fixed set of four
windows (aligned week, unaligned day, unaligned week, whole horizon) with the
default plan and no cache.  ``evlog.reader``, ``core.pipeline`` and
``core.kernels`` do all the work; the tile cache is bypassed.
"""

from __future__ import annotations

import shutil
import time
from types import SimpleNamespace

import numpy as np

import repro
from repro.core import build_interval_pack, slice_records, sum_pack_adjacency
from repro.distrib.shardsynth import plan_shards, shard_synthesize
from repro.evlog import LogSet

from harness import build_world, on_cpus, report_metrics, same_csr, world_metrics

NAME = "synth-windows"

WEEK = repro.HOURS_PER_WEEK


def sizes(quick: bool) -> dict:
    return {"persons": 800 if quick else 10_000, "ranks": 4, "weeks": 4}


def windows(hours: int, seed: int) -> dict[str, tuple[int, int]]:
    """The fixed set of four windows, in seeded order."""
    fixed = {
        "week": (0, WEEK),
        "day": (30, 54),
        "unaligned_week": (100, 100 + WEEK),
        "month": (0, hours),
    }
    return {kind: fixed[kind] for kind in np.random.default_rng(seed).permutation(list(fixed))}


def setup(ctx):
    size = sizes(ctx.quick)
    log_dir = ctx.tmp / "synth-logs"
    world = build_world(ctx, size["persons"], size["ranks"], size["weeks"], log_dir)
    return SimpleNamespace(
        size=size, world=world, windows=windows(world.hours, ctx.seed),
        expected=None, last=None, sliced=0, child_pids=[],
    )


def teardown(ctx, state) -> None:
    shutil.rmtree(state.world.log_dir)


def run_round(ctx, state):
    world = state.world
    ops, results = [], {}
    for kind, (t0, t1) in state.windows.items():
        tic = time.perf_counter()
        with ctx.span(f"core.pipeline.{kind}"):
            results[kind] = repro.synthesize_from_logs(
                world.log_dir, world.pop.n_persons, t0, t1
            )
        ops.append((kind, time.perf_counter() - tic))
    return ops, results


def verify_round(ctx, state, results, first: bool) -> None:
    world = state.world
    if first:
        # additivity over a disjoint time partition: the month is the sum
        # of its weeks
        total = None
        for t0 in range(0, world.hours, WEEK):
            week, _ = repro.synthesize_from_logs(
                world.log_dir, world.pop.n_persons, t0, t0 + WEEK
            )
            total = week.adjacency if total is None else total + week.adjacency
        total.sort_indices()
        ctx.check(
            same_csr(results["month"][0].adjacency, total.tocsr()),
            "synth-windows: A(0, horizon) is not the sum of its disjoint weeks",
        )
        state.expected = {
            kind: (net.n_edges, net.total_weight) for kind, (net, _) in results.items()
        }
        state.sliced = sum(report.n_sliced_records for _, report in results.values())
    for kind, (net, _) in results.items():
        ctx.check(
            (net.n_edges, net.total_weight) == state.expected[kind],
            f"synth-windows: window {kind} changed between rounds",
        )
    state.last = results


def rate(state, round_wall_s: float):
    return "synth_records_per_s", state.sliced / round_wall_s, "1/s"


def probes(ctx, state, latencies, round_wall_s: float) -> dict:
    world = state.world
    n_persons = world.pop.n_persons
    month_net, month_report = state.last["month"]

    records = slice_records(LogSet(world.log_dir).read_time_slice(0, WEEK), 0, WEEK)
    with ctx.span("core.intervals.build_pack"):
        pack = build_interval_pack(records, 0, WEEK)
    with ctx.span("core.intervals.sum_adjacency"):
        sum_pack_adjacency([pack], n_persons)

    with ctx.span("distrib.shardsynth.plan"):
        shard_plan = plan_shards(
            world.log_dir, 2, 0, world.hours, coords=world.pop.places.coords()
        )
    # the shards are forked processes: give them the cores the bench child
    # itself is kept off
    with on_cpus(ctx.affinity["all"]), ctx.span("distrib.shardsynth.month_2shard"):
        sharded, _ = shard_synthesize(
            world.log_dir, n_persons, 0, world.hours, shard_plan=shard_plan
        )
    ctx.check(
        same_csr(sharded.adjacency, month_net.adjacency),
        "synth-windows: 2-shard synthesis differs from single-process synthesis",
    )

    out = world_metrics(ctx, world)
    out.update(report_metrics(month_report))
    out.update(
        {f"core.pipeline.{kind}_s": ctx.spans.median(f"core.pipeline.{kind}")
         for kind in state.windows}
    )
    out.update(
        {
            "core.pipeline.records_sliced": state.sliced,
            "core.pipeline.adj_nnz": month_net.n_edges,
            "core.intervals.build_pack_s": ctx.spans.median("core.intervals.build_pack"),
            "core.intervals.sum_adjacency_s": ctx.spans.median(
                "core.intervals.sum_adjacency"
            ),
            "distrib.shardsynth.plan_s": ctx.spans.median("distrib.shardsynth.plan"),
            "distrib.shardsynth.month_2shard_s": ctx.spans.median(
                "distrib.shardsynth.month_2shard"
            ),
            "distrib.shardsynth.imbalance": shard_plan.imbalance,
        }
    )
    return out
