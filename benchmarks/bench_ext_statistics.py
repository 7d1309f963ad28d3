"""EXT-STATS — the "additional network statistics" the conclusion calls for.

Paper conclusion: "Further exploration of this approach to generate
realistic social network structures will need to identify additional
network statistics and their relative contributions to the features of the
network."

This bench computes and records the candidates implemented in this repo,
each with a falsifiable expectation on collocation networks:

* degree assortativity r > 0 (social cliques are assortative);
* vertex strength ≫ degree (repeated contact hours);
* edge-weight distribution bimodal-ish: a mass of brief venue contacts
  plus a household plateau near the weekly maximum;
* Barrat weighted clustering close to (and correlated with) binary
  clustering;
* age-group contact matrix strongly diagonal for children;
* week-over-week edge persistence well inside (0, 1): a stable core plus
  venue churn.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.analysis import (
    contact_matrix,
    degree_assortativity,
    edge_persistence,
    edge_recurrence,
    edge_weight_distribution,
    local_clustering,
    strength_distribution,
    weighted_clustering,
)
from repro.distrib import DistributedSimulation, spatial_partition

from conftest import write_report


def test_ext_statistics_suite(benchmark, bench_pop, bench_net):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    r = degree_assortativity(bench_net)
    strength = strength_distribution(bench_net)
    degrees = bench_net.degrees()
    weights, counts = edge_weight_distribution(bench_net)
    cm = contact_matrix(bench_net, bench_pop.persons)
    frac = cm.assortativity_fraction()

    wc = weighted_clustering(bench_net)
    bc = local_clustering(bench_net)
    defined = degrees >= 2
    corr = float(np.corrcoef(wc[defined], bc[defined])[0, 1])

    lines = [
        "EXT-STATS: additional network statistics (paper conclusion)",
        f"  degree assortativity r     : {r:+.3f}",
        f"  mean degree / mean strength: {degrees.mean():.1f} / "
        f"{strength.mean_degree:.1f}",
        f"  modal edge weight          : {weights[np.argmax(counts)]} h",
        f"  max edge weight            : {weights.max()} h "
        f"(week = {repro.HOURS_PER_WEEK} h)",
        f"  weighted~binary clustering corr: {corr:.3f}",
        "  within-group contact fraction: "
        + ", ".join(f"{lb}={f:.2f}" for lb, f in zip(cm.labels, frac)),
    ]
    write_report("ext_statistics", "\n".join(lines))

    assert r > 0.05  # assortative
    assert strength.mean_degree > 2 * degrees.mean()
    assert weights[np.argmax(counts)] <= 3  # venue contacts dominate pairs
    assert weights.max() >= 60  # household co-residents share most hours
    assert corr > 0.5
    assert frac[0] > frac[3]  # children most within-group assortative


def test_ext_assortativity_cost(benchmark, bench_net):
    r = benchmark(degree_assortativity, bench_net)
    assert np.isfinite(r)


def test_ext_weighted_clustering_cost(benchmark, bench_net):
    wc = benchmark.pedantic(
        weighted_clustering, args=(bench_net,), rounds=2, iterations=1
    )
    assert wc.max() <= 1.0


def test_ext_temporal_persistence(benchmark, bench_pop, tmp_path):
    """Two-week series: persistence of the contact core."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale,
        duration_hours=2 * repro.HOURS_PER_WEEK,
        n_ranks=4,
    )
    part = spatial_partition(
        bench_pop.places.coords(), bench_pop.places.capacity.astype(float), 4
    )
    DistributedSimulation(bench_pop, cfg, part).run(log_dir=tmp_path)
    weeks_nets = [
        repro.synthesize_from_logs(
            tmp_path,
            bench_pop.n_persons,
            w * repro.HOURS_PER_WEEK,
            (w + 1) * repro.HOURS_PER_WEEK,
        )[0]
        for w in range(2)
    ]
    persistence = edge_persistence(weeks_nets)[0]
    weeks, rec_counts = edge_recurrence(weeks_nets)
    write_report(
        "ext_temporal",
        "EXT-STATS (temporal): week-over-week edge dynamics\n"
        f"  persistence (w1 -> w2): {persistence:.3f}\n"
        f"  recurrence: {dict(zip(weeks.tolist(), rec_counts.tolist()))}\n"
        "  stable core (household/school/work) + churning venue fringe",
    )
    assert 0.25 < persistence < 0.95
