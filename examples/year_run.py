#!/usr/bin/env python
"""Year-scale run: 52 weeks of simulation, one synthesis per month,
monthly aggregates.

The paper's production scenario is a one-year simulation whose logs reach
100-200 GB and whose analysis must proceed file-by-file, window-by-window.
This example runs the full year at laptop scale and exercises exactly that
discipline:

1. simulate 52 weeks on one rank, streaming the event log to one EVL
   file (bounded memory: the rank holds one week's schedule grid at a
   time);
2. synthesize 13 four-week ("monthly") networks, one
   ``synthesize_from_logs`` call per window — each decodes only the
   chunks that overlap it (the chunk index);
3. sum the monthlies into the annual network (the paper's aggregation)
   and report the temporal statistics: seasonal edge counts, month-over-
   month persistence, and the recurring contact core.

Run:  python examples/year_run.py [n_persons]
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro._util import human_bytes
from repro.analysis import edge_persistence, edge_recurrence
from repro.core.adjacency import sum_partials
from repro.distrib import DistributedSimulation, round_robin_partition
from repro.evlog import LogReader, LogSet

WEEKS = 52
MONTH_HOURS = 4 * repro.HOURS_PER_WEEK  # 4-week "months"
N_MONTHS = 13


def main() -> None:
    n_persons = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    pop = repro.generate_population(repro.ScaleConfig(n_persons=n_persons))
    log_dir = Path(tempfile.mkdtemp(prefix="year-"))

    print(f"=== simulating {WEEKS} weeks for {n_persons:,} persons ===")
    config = repro.SimulationConfig(
        scale=pop.scale, duration_hours=WEEKS * repro.HOURS_PER_WEEK
    )
    one_rank = round_robin_partition(pop.n_places, 1)
    t0 = time.perf_counter()
    result = DistributedSimulation(pop, config, one_rank).run(log_dir=log_dir)
    sim_time = time.perf_counter() - t0
    reader = LogReader(result.log_paths[0])
    rate = result.total_events / (n_persons * WEEKS * 7)
    print(f"  wall time   : {sim_time:.1f} s")
    print(f"  events      : {result.total_events:,} ({rate:.2f}/person/day)")
    print(f"  log size    : {human_bytes(reader.file_bytes)} "
          f"in {reader.n_chunks} chunks")
    paper_year = 2_900_000 * rate * 365 * 20
    print(f"  paper-scale projection (2.9 M persons, 1 year): "
          f"{human_bytes(paper_year)}")

    print(f"\n=== streaming synthesis: {N_MONTHS} four-week aggregates ===")
    t0 = time.perf_counter()
    logs = LogSet(log_dir)
    months = [
        repro.synthesize_from_logs(
            logs, n_persons, m * MONTH_HOURS, (m + 1) * MONTH_HOURS
        )[0]
        for m in range(N_MONTHS)
    ]
    synth_time = time.perf_counter() - t0
    edges = np.array([net.n_edges for net in months])
    print(f"  wall time   : {synth_time:.1f} s "
          f"({synth_time / N_MONTHS:.2f} s per month)")
    print(f"  edges/month : min={edges.min():,} max={edges.max():,}")

    persistence = edge_persistence(months)
    weeks_met, pair_counts = edge_recurrence(months)
    # the paper's aggregation: "the adjacency matrices are simply summed"
    annual = repro.CollocationNetwork(
        sum_partials([net.adjacency for net in months], n_persons),
        t0=0,
        t1=N_MONTHS * MONTH_HOURS,
    )
    print(f"\n=== annual network ===")
    print(repro.summarize(annual).report())
    print(f"\n  month-over-month persistence: "
          f"mean={persistence.mean():.2f} "
          f"(min={persistence.min():.2f}, max={persistence.max():.2f})")
    core = pair_counts[weeks_met >= N_MONTHS - 1].sum()
    once = pair_counts[weeks_met == 1].sum()
    print(f"  pairs meeting in >= {N_MONTHS - 1} months : {core:,} "
          f"(the stable core)")
    print(f"  pairs meeting in exactly 1 month : {once:,} "
          f"(the venue fringe)")


if __name__ == "__main__":
    main()
