#!/usr/bin/env python
"""Epidemic simulation + patient-zero contact tracing from the event log.

The paper's motivating use case for agent-level logging (Section II): "the
log can be used to reconstruct all the agents that an agent had contact
with over the course of an epidemic simulation, and used to trace back to
patient zero, the agent who initiated the disease outbreak."

This example:

1. runs a two-week SEIR outbreak on the synthetic population (the serial
   engine, which carries the disease layer);
2. writes the same two weeks' event log with the rank step on one rank,
   exactly as a production run would (the outbreak does not move anyone,
   so the log records the movements it ran on);
3. picks a late case and reconstructs their hourly contacts *from the log
   alone* (via ``events_to_grid``), confirming the true infector is among
   the reconstructed contacts at the infection hour;
4. walks the full transmission chain back to patient zero and checks every
   hop against the log.

Run:  python examples/epidemic_trace.py [n_persons]
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.distrib import round_robin_partition
from repro.sim import PrevalenceObserver
from repro.sim.events import events_to_grid
from repro.viz import ascii_series


def contacts_at_hour(
    log_path: Path, n_persons: int, person: int, hour: int
) -> np.ndarray:
    """Reconstruct who shared a place with *person* at *hour*, from the log."""
    records = repro.LogReader(log_path).read_time_slice(hour, hour + 1)
    _, place = events_to_grid(records, n_persons, hour, hour + 1)
    here = place[person, 0]
    return np.flatnonzero(place[:, 0] == here)


def main() -> None:
    n_persons = int(sys.argv[1]) if len(sys.argv) > 1 else 5_000
    pop = repro.generate_population(repro.ScaleConfig(n_persons=n_persons))
    config = repro.SimulationConfig(
        scale=pop.scale,
        duration_hours=2 * repro.HOURS_PER_WEEK,
        disease=repro.DiseaseConfig(
            transmissibility=0.01, initial_infected=3
        ),
    )
    observer = PrevalenceObserver()
    print(f"=== simulating a 2-week outbreak over {n_persons:,} persons ===")
    result = repro.Simulation(pop, config).run(observers=[observer])
    logged = repro.DistributedSimulation(
        pop,
        dataclasses.replace(config, disease=None),
        round_robin_partition(pop.n_places, 1),
    ).run(log_dir=tempfile.mkdtemp())
    log_path = logged.log_paths[0]
    disease = result.disease
    assert disease is not None
    print(f"  final state : {disease.counts()}")
    print(f"  attack rate : {disease.attack_rate():.1%}")
    peak_hour, peak = observer.peak_infectious()
    print(f"  peak        : {peak} infectious at hour {peak_hour}")
    print(ascii_series(
        np.array(observer.series["infectious"]), title="infectious over time"
    ))

    if not disease.transmissions:
        print("no transmissions occurred; try a higher transmissibility")
        return

    # pick the latest case and trace back
    case = disease.transmissions[-1].infected
    chain = disease.trace_to_patient_zero(case)
    print(f"\n=== tracing case {case} back to patient zero ===")
    for hop, rec in enumerate(chain):
        contacts = contacts_at_hour(
            log_path, n_persons, rec.infected, rec.hour
        )
        ok = rec.infector in contacts
        print(
            f"  hop {hop}: person {rec.infected} infected at hour "
            f"{rec.hour} (place {rec.place}) by person {rec.infector} "
            f"[{len(contacts)} collocated; log confirms infector: {ok}]"
        )
        if not ok:
            raise SystemExit("log reconstruction failed to confirm a hop")
    zero = chain[-1].infector
    print(
        f"  patient zero: person {zero} "
        f"(seed case: {zero in disease.patient_zeros})"
    )


if __name__ == "__main__":
    main()
