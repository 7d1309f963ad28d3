#!/usr/bin/env python
"""Ego-network extraction, ForceAtlas2 layout, and Gephi export.

The Figures 1–2 workflow: sample random individuals from the collocation
network, take everyone within two degrees of separation, lay the induced
subgraph out with ForceAtlas2, and export GEXF/GraphML files (nodes
colored by degree, darker = more neighbors) that open directly in Gephi.

The paper's two samples illustrate the range of local structure — one
dense (2,529 nodes / 391,104 edges), one diffuse (1,097 nodes / 41,372
edges); this script samples several egos and reports the same spread.

Run:  python examples/ego_visualization.py [n_persons] [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import repro
from repro.analysis import sample_ego_networks
from repro.viz import write_gexf, write_graphml
from repro.viz.gexf import degree_colors


def main() -> None:
    n_persons = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    out_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("ego_exports")
    out_dir.mkdir(parents=True, exist_ok=True)

    pop = repro.generate_population(repro.ScaleConfig(n_persons=n_persons))
    config = repro.SimulationConfig(
        scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK
    )
    result = repro.Simulation(pop, config).run()
    net, _ = repro.synthesize_network(
        result.records, pop.n_persons, 0, repro.HOURS_PER_WEEK
    )
    print(f"network: {net.n_edges:,} edges over {net.n_persons:,} persons")

    rng = np.random.default_rng(7)
    egos = sample_ego_networks(net, n_samples=5, rng=rng, radius=2)
    egos.sort(key=lambda e: e.density())
    print("\nsampled radius-2 ego networks (paper Figures 1-2):")
    for i, ego in enumerate(egos):
        print(
            f"  ego {i}: center={ego.center:>6}  nodes={ego.n_nodes:>6,}  "
            f"edges={ego.n_edges:>8,}  density={ego.density():.4f}"
        )

    # export the densest and the most diffuse, like the paper's two figures
    for tag, ego in (("fig1_dense", egos[-1]), ("fig2_diffuse", egos[0])):
        print(f"\nlaying out {tag} ({ego.n_nodes} nodes) with ForceAtlas2...")
        positions = repro.forceatlas2_layout(ego.matrix, iterations=80)
        colors = degree_colors(ego.degrees())
        gexf = write_gexf(
            out_dir / f"{tag}.gexf",
            ego.matrix,
            positions=positions,
            node_labels=ego.persons,
            node_colors=colors,
        )
        graphml = write_graphml(
            out_dir / f"{tag}.graphml",
            ego.matrix,
            node_attrs={
                "person": ego.persons,
                "degree": ego.degrees(),
                "age": pop.persons.age[ego.persons].astype(np.int64),
            },
        )
        print(f"  wrote {gexf} and {graphml} (open in Gephi)")


if __name__ == "__main__":
    main()
