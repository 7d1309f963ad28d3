"""TXT-4WK — the paper's exact Section V workflow at bench scale.

Paper: "The entire simulated time duration is four weeks with a time step
of 1 hour … The collocation network synthesis R script is executed on the
resulting log files to process **only the fourth week** of log data in
batches … The final aggregation step sums the resulting adjacency
matrices."

This bench runs that pipeline verbatim: a 4-week distributed run with
per-rank logs, fourth-week-only synthesis via the chunk index (log files
are opened but non-overlapping chunks are skipped), and cross-checks the
result against an in-memory week-4 synthesis.  It also reports the
index-pruning ratio — how much of the log the time slice avoided decoding.
"""

from __future__ import annotations

import numpy as np

import repro
from repro._util import human_bytes
from repro.distrib import (
    DistributedSimulation,
    round_robin_partition,
    spatial_partition,
)
from repro.evlog import LogSet
from repro.sim import Simulation

from conftest import write_report

N_RANKS = 8
WEEKS = 4


def test_txt_fourweek_workflow(benchmark, bench_pop, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale,
        duration_hours=WEEKS * repro.HOURS_PER_WEEK,
        n_ranks=N_RANKS,
    )
    part = spatial_partition(
        bench_pop.places.coords(),
        bench_pop.places.capacity.astype(float),
        N_RANKS,
    )
    run = DistributedSimulation(bench_pop, cfg, part).run(log_dir=tmp_path)
    logs = LogSet(tmp_path)

    t0 = 3 * repro.HOURS_PER_WEEK
    t1 = 4 * repro.HOURS_PER_WEEK

    # index pruning: chunks touched for week 4 vs total
    total_chunks = 0
    touched = 0
    for reader in logs.iter_readers():
        total_chunks += reader.n_chunks
        touched += reader.chunks_overlapping(t0, t1)

    net, report = repro.synthesize_from_logs(
        logs, bench_pop.n_persons, t0, t1, batch_size=2
    )

    # oracle: serial week-4 window
    serial_cfg = repro.SimulationConfig(
        scale=bench_pop.scale, duration_hours=WEEKS * repro.HOURS_PER_WEEK
    )
    serial = Simulation(bench_pop, serial_cfg).run()
    oracle, _ = repro.synthesize_network(
        serial.records, bench_pop.n_persons, t0, t1
    )
    assert (net.adjacency != oracle.adjacency).nnz == 0

    lines = [
        "TXT-4WK: four-week run, fourth-week-only synthesis (paper Sec V)",
        f"  ranks x weeks          : {N_RANKS} x {WEEKS}",
        f"  events logged          : {run.total_events:,}",
        f"  log bytes              : {human_bytes(logs.total_bytes())}",
        f"  chunks touched (wk 4)  : {touched}/{total_chunks} "
        f"({touched / total_chunks:.0%})",
        f"  week-4 network         : {net.n_edges:,} edges "
        f"({report.batches} independent batches)",
        "  paper: 256 files x ~100 MB, fourth week only, batches of 16;",
        "  batch jobs independent, adjacencies summed.",
    ]
    write_report("txt_fourweek", "\n".join(lines))

    assert touched < total_chunks  # the index actually pruned work
    assert report.batches == N_RANKS // 2


def test_txt_fourweek_sliced_read_cost(benchmark, bench_pop, tmp_path):
    """Read cost of one week out of four, served by the chunk index."""
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale,
        duration_hours=WEEKS * repro.HOURS_PER_WEEK,
    )
    one_rank = round_robin_partition(bench_pop.n_places, 1)
    run = DistributedSimulation(bench_pop, cfg, one_rank).run(log_dir=tmp_path)
    from repro.evlog import LogReader

    reader = LogReader(run.log_paths[0])
    t0, t1 = 3 * repro.HOURS_PER_WEEK, 4 * repro.HOURS_PER_WEEK
    out = benchmark(reader.read_time_slice, t0, t1)
    assert len(out) > 0
    assert len(out) < reader.n_records
