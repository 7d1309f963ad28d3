"""simlog-month: logged four-week distributed runs, the write side of evlog.

Population and partition are set-up; a round is one
``DistributedSimulation.run(log_dir=fresh)``.  ``sim``, ``distrib.dmodel`` and
``evlog.writer`` do all the work; ``core``, ``service`` and ``analysis`` none.
"""

from __future__ import annotations

import shutil
import time
from types import SimpleNamespace

import numpy as np

import repro
from repro.distrib import DistributedSimulation
from repro.evlog import CachedLogWriter, LogReader, LogSet
from repro.evlog.multifile import rank_log_path

from harness import plan_world, run_world, world_metrics

NAME = "simlog-month"


def sizes(quick: bool) -> dict:
    return {"persons": 800 if quick else 10_000, "ranks": 4, "weeks": 1 if quick else 4}


def setup(ctx):
    size = sizes(ctx.quick)
    pop, partition, config = plan_world(ctx, size["persons"], size["ranks"], size["weeks"])
    return SimpleNamespace(
        size=size, pop=pop, partition=partition, config=config,
        rounds=0, world=None, expected=None, child_pids=[],
    )


def teardown(ctx, state) -> None:
    pass


def run_round(ctx, state):
    log_dir = ctx.tmp / f"simlog-{state.rounds}"
    state.rounds += 1
    tic = time.perf_counter()
    world = run_world(ctx, state.pop, state.partition, state.config, log_dir)
    return [("run", time.perf_counter() - tic)], world


def serial_run(state):
    """The serial engine on the same world, no logs: the plain baseline."""
    config = repro.SimulationConfig(
        scale=state.pop.scale, duration_hours=state.config.duration_hours
    )
    return repro.Simulation(state.pop, config).run_fast()


def _by_person_start(records):
    return records[np.lexsort((records["place"], records["start"], records["person"]))]


def verify_round(ctx, state, world, first: bool) -> None:
    result = world.result
    if first:
        # full read-back, once: what is on disk is what the ranks emitted,
        # and the serial engine emits as many records
        log_set = LogSet(world.log_dir)
        verified = sum(LogReader(path).verify() for path in log_set.paths)
        ctx.check(
            verified == result.total_events == serial_run(state).n_events
            and np.array_equal(
                _by_person_start(log_set.read_all()),
                _by_person_start(result.merged_records()),
            ),
            "simlog-month: logs read back differ from the records the ranks emitted",
        )
        state.expected = (result.total_events, log_set.total_bytes())
    ctx.check(
        (result.total_events, LogSet(world.log_dir).total_bytes()) == state.expected,
        f"simlog-month: round {state.rounds} logged another record or byte count",
    )
    if state.world is not None:
        shutil.rmtree(state.world.log_dir)
    state.world = world


def rate(state, round_wall_s: float):
    person_hours = state.pop.n_persons * state.config.duration_hours
    return "sim_person_hours_per_s", person_hours / round_wall_s, "1/s"


def _replay(ctx, state, name: str, durability: str):
    """Write the last run's own per-rank records again; ``(records/s, stats)``."""
    directory = ctx.tmp / f"replay-{durability}"
    directory.mkdir()
    per_rank = state.world.result.per_rank_records
    stats = []
    tic = time.perf_counter()
    with ctx.span(name):
        for rank, records in enumerate(per_rank):
            with CachedLogWriter(
                rank_log_path(directory, rank), rank=rank,
                cache_records=state.config.log_cache_records, durability=durability,
            ) as writer:
                writer.log_batch(records)
            stats.append(writer.stats)
    wall = time.perf_counter() - tic
    shutil.rmtree(directory)
    return sum(len(r) for r in per_rank) / wall, stats


def probes(ctx, state, latencies, round_wall_s: float) -> dict:
    world = state.world
    for _ in range(3):
        with ctx.span("sim.run_fast"):
            serial_run(state)
        with ctx.span("distrib.run_nolog"):
            DistributedSimulation(state.pop, state.config, state.partition).run()
    run_s = ctx.spans.median("distrib.run")
    nolog_s = ctx.spans.median("distrib.run_nolog")
    replay_rate, plain = _replay(ctx, state, "evlog.writer.replay", "none")
    wal_rate, wal = _replay(ctx, state, "evlog.writer.wal", "wal")

    log_set = LogSet(world.log_dir)
    with ctx.span("evlog.reader.read_all"):
        log_set.read_all()
    with ctx.span("evlog.reader.slice_week"):
        log_set.read_time_slice(0, repro.HOURS_PER_WEEK)
    with ctx.span("evlog.reader.crc_scan"):
        for path in log_set.paths:
            LogReader(path).check_crc()

    out = world_metrics(ctx, world)
    out.update(
        {
            "sim.run_fast_s": ctx.spans.median("sim.run_fast"),
            "distrib.run_nolog_s": nolog_s,
            "distrib.overhead_ratio": nolog_s / ctx.spans.median("sim.run_fast"),
            "evlog.writer.share_s": run_s - nolog_s,
            "evlog.writer.replay_records_per_s": replay_rate,
            "evlog.writer.wal_records_per_s": wal_rate,
            "evlog.writer.flushes": sum(s.flushes for s in plain),
            "evlog.writer.fsyncs": sum(s.fsyncs for s in wal),
            "evlog.reader.read_all_mb_per_s": log_set.total_bytes()
            / 1e6
            / ctx.spans.median("evlog.reader.read_all"),
            "evlog.reader.slice_week_s": ctx.spans.median("evlog.reader.slice_week"),
            "evlog.reader.crc_scan_s": ctx.spans.median("evlog.reader.crc_scan"),
        }
    )
    return out
