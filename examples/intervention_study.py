#!/usr/bin/env python
"""Intervention study: how schedule changes reshape the endogenous network
and an epidemic running on it.

The paper's headline is that the collocation network is *emergent* — "the
actual network structure is an emergent property of the activity data".
This example makes that concrete by perturbing the activity data and
watching both the network and an SEIR outbreak respond:

* baseline — normal schedules;
* school closure — all school attendance redirected home;
* venue closure — all "other" places (shops, leisure) closed;
* stay-home order — 60% of the population fully home.

For each scenario it reports the network's edge count, the 0-14 group's
within-group mean degree (Figure 5's quantity), and the epidemic's attack
rate and peak.

Run:  python examples/intervention_study.py [n_persons]
"""

from __future__ import annotations

import sys

import numpy as np

import repro
from repro.analysis import age_group_degree_distributions, contact_matrix
from repro.sim import (
    ClosePlaceKind,
    CloseSchools,
    InterventionSchedule,
    PrevalenceObserver,
    Simulation,
    StayHomeOrder,
)
from repro.synthpop.places import PlaceKind


def run_scenario(pop, name, interventions, beta=0.03):
    base = pop.schedule_generator()
    schedules = (
        InterventionSchedule(base, interventions) if interventions else base
    )

    # network for one week
    net_cfg = repro.SimulationConfig(
        scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK
    )
    records = Simulation(pop, net_cfg, schedules=schedules).run().records
    net, _ = repro.synthesize_network(
        records, pop.n_persons, 0, repro.HOURS_PER_WEEK
    )
    kids = age_group_degree_distributions(net, pop.persons)["0-14"]

    # two-week epidemic on the same schedules
    epi_cfg = repro.SimulationConfig(
        scale=pop.scale,
        duration_hours=2 * repro.HOURS_PER_WEEK,
        disease=repro.DiseaseConfig(transmissibility=beta, initial_infected=5),
    )
    observer = PrevalenceObserver()
    epi_schedules = (
        InterventionSchedule(pop.schedule_generator(), interventions)
        if interventions
        else pop.schedule_generator()
    )
    result = Simulation(pop, epi_cfg, schedules=epi_schedules).run(
        observers=[observer]
    )
    disease = result.disease
    assert disease is not None
    peak_hour, peak = observer.peak_infectious()
    return {
        "name": name,
        "edges": net.n_edges,
        "kids_mean_degree": kids.mean_degree,
        "attack_rate": disease.attack_rate(),
        "peak": peak,
        "peak_hour": peak_hour,
        "net": net,
    }


def main() -> None:
    n_persons = int(sys.argv[1]) if len(sys.argv) > 1 else 5_000
    pop = repro.generate_population(repro.ScaleConfig(n_persons=n_persons))

    scenarios = [
        ("baseline", []),
        ("close schools", [CloseSchools()]),
        ("close venues", [ClosePlaceKind(pop.places, PlaceKind.OTHER)]),
        ("60% stay home", [StayHomeOrder(0.6, seed=1)]),
    ]
    print(
        f"{'scenario':>15} {'edges':>10} {'kids mean k':>12} "
        f"{'attack rate':>12} {'peak (hour)':>14}"
    )
    results = []
    for name, ivs in scenarios:
        r = run_scenario(pop, name, ivs)
        results.append(r)
        print(
            f"{r['name']:>15} {r['edges']:>10,} "
            f"{r['kids_mean_degree']:>12.1f} {r['attack_rate']:>12.1%} "
            f"{r['peak']:>7,} ({r['peak_hour']:>4})"
        )

    base = results[0]
    print("\nage-group mixing, baseline:")
    print(contact_matrix(base["net"], pop.persons).report())

    print("\nevery intervention must shrink the network and the outbreak:")
    for r in results[1:]:
        shrunk = r["edges"] < base["edges"]
        milder = r["attack_rate"] <= base["attack_rate"] + 0.02
        print(
            f"  {r['name']:>15}: edges {'-' if shrunk else '!'} "
            f"attack {'-' if milder else '!'}"
        )
        if not (shrunk and milder):
            raise SystemExit("intervention failed to reduce contact/spread")


if __name__ == "__main__":
    main()
