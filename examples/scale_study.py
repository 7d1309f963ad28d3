#!/usr/bin/env python
"""Scale study: how the pipeline's cost grows with population size.

The paper's claim structure is about scalability — a 2.9 M-person city
simulated in minutes, synthesized in ~30-minute batches.  This script
measures the full pipeline (generate → simulate a week → synthesize →
analyze) across a population sweep and fits the empirical growth exponent
of each stage, so a user can extrapolate to their own target scale.

Run:  python examples/scale_study.py [max_persons]
"""

from __future__ import annotations

import sys
import time

import numpy as np

import repro
from repro._util import human_bytes
from repro.analysis import degree_distribution, local_clustering


def run_once(n_persons: int) -> dict[str, float]:
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    pop = repro.generate_population(repro.ScaleConfig(n_persons=n_persons))
    timings["generate"] = time.perf_counter() - t0

    config = repro.SimulationConfig(
        scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK
    )
    t0 = time.perf_counter()
    result = repro.Simulation(pop, config).run()
    timings["simulate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    net, _ = repro.synthesize_network(
        result.records, n_persons, 0, repro.HOURS_PER_WEEK
    )
    timings["synthesize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    degree_distribution(net.degrees())
    local_clustering(net)
    timings["analyze"] = time.perf_counter() - t0

    timings["total"] = sum(timings.values())
    timings["edges"] = net.n_edges
    timings["memory"] = net.memory_bytes
    return timings


def main() -> None:
    max_persons = int(sys.argv[1]) if len(sys.argv) > 1 else 16_000
    sizes = []
    n = 2_000
    while n <= max_persons:
        sizes.append(n)
        n *= 2

    stages = ["generate", "simulate", "synthesize", "analyze", "total"]
    results = {}
    header = f"{'persons':>9} " + "".join(f"{s:>12}" for s in stages)
    header += f"{'edges':>12}{'net memory':>12}"
    print(header)
    for size in sizes:
        r = run_once(size)
        results[size] = r
        row = f"{size:>9,} " + "".join(f"{r[s]:>11.2f}s" for s in stages)
        row += f"{int(r['edges']):>12,}{human_bytes(r['memory']):>12}"
        print(row)

    if len(sizes) >= 3:
        print("\nempirical growth exponents (t ~ n^e, log-log fit):")
        logn = np.log([float(s) for s in sizes])
        for stage in stages:
            logt = np.log([max(results[s][stage], 1e-4) for s in sizes])
            e = np.polyfit(logn, logt, 1)[0]
            verdict = (
                "~linear" if e < 1.3 else
                "superlinear" if e < 1.8 else "~quadratic"
            )
            print(f"  {stage:>11}: e = {e:.2f}  ({verdict})")
        print(
            "\nthe pipeline is designed O(records + edges); a growth "
            "exponent near 1 is what lets the paper reach 2.9 M persons."
        )


if __name__ == "__main__":
    main()
