"""EXT-LAYERS / EXT-GRAN — location-type layers and time granularity.

Two direct quotes drive this bench:

* conclusion: synthetic networks must "also match the vertex degree
  distributions for population sub-groups such as age or **location type,
  e.g., work or school**" — so we decompose the network into place-kind
  layers and record each layer's degree profile;
* Section II: the event log "contains the complete information required
  to create a person collocation network with **arbitrary time
  granularity, e.g., hourly, daily, weekly or monthly aggregates**" — so
  we synthesize daily networks and compare weekday vs weekend structure.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.analysis import degree_distribution, edge_persistence
from repro.core.adjacency import sum_partials
from repro.evlog.multifile import write_rank_logs
from repro.synthpop.places import LAYER_KINDS, PlaceKind

from conftest import write_report


def test_ext_layers_degree_profiles(benchmark, bench_pop, bench_week, bench_net):
    records = bench_week.records
    kind = bench_pop.places.kind[records["place"].astype(np.int64)]

    def per_kind_networks():
        """One network per place kind, over that kind's records."""
        return {
            name: repro.synthesize_network(
                records[kind == int(PlaceKind[name.upper()])],
                bench_pop.n_persons,
                0,
                repro.HOURS_PER_WEEK,
            )[0]
            for name in LAYER_KINDS
        }

    layers = benchmark.pedantic(per_kind_networks, rounds=1, iterations=1)
    rows = []
    stats = {}
    for name, net in layers.items():
        d = degree_distribution(net.degrees())
        mean_w = net.total_weight / net.n_edges if net.n_edges else 0.0
        stats[name] = {"net": net, "dist": d, "mean_w": mean_w}
        rows.append(
            f"  {name:>10}: edges={net.n_edges:>8,}  mean_k={d.mean_degree:>6.1f}"
            f"  max_k={d.max_degree:>4}  hours/pair={mean_w:>6.1f}"
        )
    lines = [
        "EXT-LAYERS: the network by location type (conclusion's sub-groups)",
        *rows,
        "  home = long-hour cliques; school = capped classrooms;",
        "  other = many brief weak ties.  Layers sum exactly to the full net.",
    ]
    write_report("ext_layers", "\n".join(lines))

    # exact decomposition
    total = None
    for net in layers.values():
        total = net if total is None else total + net
    assert (total.adjacency != bench_net.adjacency).nnz == 0
    # structure: home pairs share the most hours; venues the fewest
    assert stats["home"]["mean_w"] > stats["other"]["mean_w"] * 10
    # classroom cap: school layer max degree far below the full network's
    assert stats["school"]["dist"].max_degree < bench_net.degrees().max()
    # weak-tie layer has the most distinct pairs
    assert stats["other"]["net"].n_edges == max(
        s["net"].n_edges for s in stats.values()
    )


def test_ext_granularity_daily_networks(benchmark, bench_pop, bench_week, tmp_path):
    """Daily aggregates of the same log; weekday vs weekend structure."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    write_rank_logs(tmp_path, [bench_week.records])
    days = [
        repro.synthesize_from_logs(
            tmp_path, bench_pop.n_persons, 24 * d, 24 * (d + 1)
        )[0]
        for d in range(7)
    ]

    edges = np.array([net.n_edges for net in days])
    weekday_mean = float(edges[:5].mean())
    weekend_mean = float(edges[5:].mean())
    persistence = edge_persistence(days)

    lines = [
        "EXT-GRAN: daily networks from one week of logs (Section II's",
        "  'arbitrary time granularity')",
        f"  edges per day        : {edges.tolist()}",
        f"  weekday mean         : {weekday_mean:,.0f}",
        f"  weekend mean         : {weekend_mean:,.0f}",
        f"  day-over-day persistence: "
        + ", ".join(f"{p:.2f}" for p in persistence),
        "  anchored weekday routine (school/work) vs diffuse weekends.",
    ]
    write_report("ext_granularity", "\n".join(lines))

    # the weekly total equals the sum of the dailies
    total = sum_partials([net.adjacency for net in days], bench_pop.n_persons)
    whole, _ = repro.synthesize_network(
        bench_week.records, bench_pop.n_persons, 0, repro.HOURS_PER_WEEK
    )
    assert (total != whole.adjacency).nnz == 0
    # weekday structure differs from weekend structure
    assert weekday_mean != weekend_mean
    # Mon-Tue persistence (routine) exceeds Fri-Sat (routine breaks)
    assert persistence[0] > persistence[4]
