"""chain-week: the paper's whole chain from nothing, once per round.

generate -> partition -> distributed run with logs -> synthesize the week ->
the Section V report.  The one number for the whole chain; the analysis
stage does most of the work here and in no other workload.
"""

from __future__ import annotations

import shutil
import time
from types import SimpleNamespace

import numpy as np

import repro
from repro.analysis import (
    age_group_degree_distributions,
    clustering_histogram,
    compare_fits,
    degree_distribution,
    ego_network,
    local_clustering,
    mean_clustering,
    summarize,
)
from repro.evlog import LogSet

from harness import (
    build_world,
    minor_faults,
    report_metrics,
    same_csr,
    world_metrics,
)
from oracle import brute_force_adjacency

NAME = "chain-week"


def sizes(quick: bool) -> dict:
    return {"persons": 600 if quick else 6000, "ranks": 4, "weeks": 1, "egos": 25}


def setup(ctx):
    size = sizes(ctx.quick)
    rng = np.random.default_rng([ctx.seed, size["egos"]])
    return SimpleNamespace(
        size=size,
        egos=rng.integers(0, size["persons"], size["egos"]),
        rounds=0,
        world=None,
        last=None,
        fingerprint=None,
        child_pids=[],
    )


def teardown(ctx, state) -> None:
    pass


def run_round(ctx, state):
    size = state.size
    tic = time.perf_counter()
    world = build_world(
        ctx, size["persons"], size["ranks"], size["weeks"],
        ctx.tmp / f"chain-logs-{state.rounds}",
    )
    state.rounds += 1
    with ctx.span("core.pipeline.week"):
        net, report = repro.synthesize_from_logs(
            world.log_dir, world.pop.n_persons, 0, world.hours
        )
    with ctx.span("analysis.summarize"):
        net_summary = summarize(net)
    with ctx.span("analysis.degree_fits"):
        compare_fits(degree_distribution(net.degrees()))
    with ctx.span("analysis.age_groups"):
        age_group_degree_distributions(net, world.pop.persons)
    faults = minor_faults()
    with ctx.span("analysis.clustering"):
        coefficients = local_clustering(net)
        histogram = clustering_histogram(coefficients, degrees=net.degrees())
    faults = minor_faults() - faults
    ego_nodes = 0
    for person in state.egos:
        with ctx.span("analysis.ego"):
            ego_nodes += ego_network(net, int(person)).n_nodes
    wall = time.perf_counter() - tic
    payload = SimpleNamespace(
        world=world, net=net, report=report, summary=net_summary,
        coefficients=coefficients, histogram=histogram, ego_nodes=ego_nodes,
        clustering_minflt=faults,
    )
    return [("chain", wall)], payload


def verify_round(ctx, state, payload, first: bool) -> None:
    world, net = payload.world, payload.net
    if first:
        records = LogSet(world.log_dir).read_all()
        expected = brute_force_adjacency(
            records["person"], records["place"], records["start"], records["stop"],
            world.pop.n_persons, 0, 24,
        )
        day, _ = repro.synthesize_from_logs(world.log_dir, world.pop.n_persons, 0, 24)
        ctx.check(
            same_csr(day.adjacency, expected),
            "chain-week: adjacency of (0,24) differs from the brute-force oracle",
        )
        state.fingerprint = (net.n_edges, net.total_weight, payload.ego_nodes)
    ctx.check(
        (net.n_edges, net.total_weight, payload.ego_nodes) == state.fingerprint
        and payload.summary.n_edges == net.n_edges
        and int(payload.histogram[1].sum()) == int((net.degrees() >= 2).sum()),
        f"chain-week: round {state.rounds} gave another network than round 0",
    )
    if state.world is not None:
        shutil.rmtree(state.world.log_dir)
    state.world, state.last = world, payload


def probes(ctx, state, latencies, round_wall_s: float) -> dict:
    last = state.last
    degrees = last.net.degrees()
    out = world_metrics(ctx, state.world)
    out.update(report_metrics(last.report))
    out.update(
        {
            "core.pipeline.week_s": ctx.spans.median("core.pipeline.week"),
            "core.pipeline.adj_nnz": last.net.n_edges,
            "analysis.summarize_s": ctx.spans.median("analysis.summarize"),
            "analysis.degree_fits_s": ctx.spans.median("analysis.degree_fits"),
            "analysis.age_groups_s": ctx.spans.median("analysis.age_groups"),
            "analysis.clustering_s": ctx.spans.median("analysis.clustering"),
            "analysis.ego_p50_ms": 1000.0 * ctx.spans.median("analysis.ego"),
            "analysis.clustering_minflt": last.clustering_minflt,
            "analysis.edges": last.net.n_edges,
            "analysis.mean_degree": float(degrees.mean()),
            "analysis.mean_clustering": mean_clustering(last.coefficients, degrees),
        }
    )
    return out
