"""TXT-SIM — distributed simulation and spatial partitioning.

Paper Section II: chiSIM distributes places across processes "with the
objective of minimizing person agent movement between processes", and a
one-year full-city run takes minutes on 128-256 processes.

Measured here:

* agent-migration volume under random / round-robin / spatial(RCB) /
  refined partitions — the ordering the paper's design presumes;
* communication bytes metered by the simulated cluster;
* distributed-run wall time (the engine benchmark).
"""

from __future__ import annotations

import numpy as np

import repro
from repro._util import human_bytes
from repro.distrib import (
    DistributedSimulation,
    movement_matrix,
    random_partition,
    refine_partition,
    round_robin_partition,
    spatial_partition,
)

from conftest import write_report

N_RANKS = 8


def build_partitions(pop):
    coords = pop.places.coords()
    weights = pop.places.capacity.astype(float)
    grid = pop.schedule_generator().week(0)
    movement = movement_matrix(grid.place, pop.n_places)
    rng = np.random.default_rng(0)
    parts = {
        "random": random_partition(pop.n_places, N_RANKS, rng),
        "round-robin": round_robin_partition(pop.n_places, N_RANKS),
        "spatial": spatial_partition(coords, weights, N_RANKS),
    }
    parts["refined"] = refine_partition(parts["spatial"], movement, weights)
    return parts, movement


def test_txt_sim_partition_migration(benchmark, bench_pop):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    parts, movement = build_partitions(bench_pop)
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale,
        duration_hours=repro.HOURS_PER_WEEK,
        n_ranks=N_RANKS,
    )
    results = {}
    for name, part in parts.items():
        res = DistributedSimulation(bench_pop, cfg, part).run()
        results[name] = res

    lines = [
        f"TXT-SIM: agent migration by partition ({N_RANKS} ranks, 1 week)",
        f"  {'partition':>12} {'migrations':>12} {'comm bytes':>12} "
        f"{'per agent-day':>14}",
    ]
    days = 7 * bench_pop.n_persons
    for name, res in results.items():
        lines.append(
            f"  {name:>12} {res.total_migrations:>12,} "
            f"{human_bytes(res.traffic.bytes_sent):>12} "
            f"{res.total_migrations / days:>14.2f}"
        )
    lines.append(
        "  paper: spatial partitioning chosen to minimize migration; the"
    )
    lines.append("  ordering refined <= spatial < random must hold.")
    write_report("txt_sim_partition", "\n".join(lines))

    # the paper's design premise, as a hard ordering
    assert (
        results["refined"].total_migrations
        <= results["spatial"].total_migrations
        < results["random"].total_migrations
    )
    # all partitions produce the same total event stream length
    counts = {name: r.total_events for name, r in results.items()}
    assert len(set(counts.values())) == 1


def test_txt_sim_distributed_run_time(benchmark, bench_pop):
    parts, _ = build_partitions(bench_pop)
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale,
        duration_hours=repro.HOURS_PER_WEEK,
        n_ranks=N_RANKS,
    )
    sim = DistributedSimulation(bench_pop, cfg, parts["refined"])
    res = benchmark.pedantic(sim.run, rounds=2, iterations=1)
    assert res.total_events > 0


def test_txt_sim_serial_engine_time(benchmark, bench_pop):
    """Serial engine baseline for the same week."""
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale, duration_hours=repro.HOURS_PER_WEEK
    )
    sim = repro.Simulation(bench_pop, cfg)
    res = benchmark.pedantic(sim.run, rounds=3, iterations=1)
    assert res.n_events > 0


def test_txt_sim_process_cluster_equivalence(benchmark, bench_pop):
    """The model on real OS processes (fork + queues): same events as the
    default in-process (lockstep) cluster, at its own wall-clock cost."""
    from repro.distrib import ProcessBspCluster

    parts, _ = build_partitions(bench_pop)
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale,
        duration_hours=24,  # one day: process IPC is the cost being measured
        n_ranks=4,
    )
    part4 = spatial_partition(
        bench_pop.places.coords(), bench_pop.places.capacity.astype(float), 4
    )
    sim = DistributedSimulation(bench_pop, cfg, part4)
    res_proc = benchmark.pedantic(
        sim.run,
        kwargs={"cluster": ProcessBspCluster(4)},
        rounds=2,
        iterations=1,
    )
    res_lockstep = sim.run()
    assert (
        res_proc.merged_records() == res_lockstep.merged_records()
    ).all()


def test_txt_sim_refinement_cost(benchmark, bench_pop):
    """One-time cost of computing the refined partition."""
    coords = bench_pop.places.coords()
    weights = bench_pop.places.capacity.astype(float)
    grid = bench_pop.schedule_generator().week(0)
    movement = movement_matrix(grid.place, bench_pop.n_places)

    def build():
        base = spatial_partition(coords, weights, N_RANKS)
        return refine_partition(base, movement, weights)

    part = benchmark.pedantic(build, rounds=3, iterations=1)
    assert part.n_ranks == N_RANKS
