"""Visualization support (Figures 1–2 workflow).

The paper exports ego subgraphs from R/iGraph and renders them in Gephi
with the ForceAtlas2 layout, colored by vertex degree.  This subpackage
covers the full workflow without external tools:

* :mod:`repro.viz.forceatlas2` — a numpy implementation of the
  ForceAtlas2 force model (degree-weighted repulsion, linear attraction,
  gravity, adaptive cooling), "useful in spatializing Small-World and
  scale-free networks";
* :mod:`repro.viz.gexf` / :mod:`repro.viz.graphml` — Gephi-compatible
  file writers with positions, degree-based colors and edge weights;
* :mod:`repro.viz.ascii` — terminal renderings (log-log scatter and bar
  histograms) used by the examples and benchmark reports, since no
  plotting library is assumed.
"""

from .forceatlas2 import ForceAtlas2Layout, forceatlas2_layout
from .gexf import write_gexf
from .graphml import write_graphml
from .ascii import ascii_loglog, ascii_histogram, ascii_series

__all__ = [
    "ForceAtlas2Layout",
    "forceatlas2_layout",
    "write_gexf",
    "write_graphml",
    "ascii_loglog",
    "ascii_histogram",
    "ascii_series",
]
