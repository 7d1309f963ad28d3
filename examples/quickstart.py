#!/usr/bin/env python
"""Quickstart: population → simulation → collocation network → analysis.

The end-to-end pipeline of the paper at laptop scale:

1. generate a synthetic Chicago-like population;
2. simulate one week of hourly activities (the chiSIM-style model);
3. synthesize the person collocation network from the event records;
4. print the paper's headline statistics and an ASCII Figure 3.

Run:  python examples/quickstart.py [n_persons]
"""

from __future__ import annotations

import sys

import repro
from repro.analysis import compare_fits
from repro.viz import ascii_loglog


def main() -> None:
    n_persons = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    print(f"=== generating population of {n_persons:,} persons ===")
    pop = repro.generate_population(repro.ScaleConfig(n_persons=n_persons))
    for key, value in pop.summary().items():
        print(f"  {key:>20}: {value}")

    print("\n=== simulating one week (168 hourly ticks) ===")
    config = repro.SimulationConfig(
        scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK
    )
    result = repro.Simulation(pop, config).run()
    print(f"  events logged        : {result.n_events:,}")
    print(
        f"  events/person/day    : "
        f"{result.events_per_person_day(pop.n_persons):.2f} "
        f"(paper sizing figure: ~5)"
    )
    print(f"  log bytes (20 B/rec) : {result.n_events * 20:,}")

    print("\n=== synthesizing the collocation network ===")
    net, report = repro.synthesize_network(
        result.records, pop.n_persons, 0, repro.HOURS_PER_WEEK
    )
    print(report.summary())

    print("\n=== network statistics (paper Section V) ===")
    print(repro.summarize(net).report())

    print("\n=== Figure 3: degree distribution + fits ===")
    dist = repro.degree_distribution(net.degrees())
    fits = compare_fits(dist)
    for name, fit in fits.items():
        print(f"  {name:>22}: {fit!r} tail_rms={fit.tail_error(dist):.3f}")
    k = dist.degrees.astype(float)
    overlays = [
        (k, fits["power_law"].predict(k) * dist.counts.sum(), "."),
        (k, fits["truncated_power_law"].predict(k) * dist.counts.sum(), "+"),
    ]
    print(
        ascii_loglog(
            dist.degrees,
            dist.counts,
            title="vertex degree (o = data, . = power law, + = truncated PL)",
            overlays=overlays,
        )
    )


if __name__ == "__main__":
    main()
