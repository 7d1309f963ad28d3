"""Network analysis — paper Section V.

Implements every quantitative characterization the paper reports:

* :mod:`repro.analysis.degree` — vertex degree distributions (Figure 3),
  including log-binning for the log-log plots;
* :mod:`repro.analysis.fits` — power-law, truncated power-law, and
  exponential fits to the degree distribution (the three reference curves
  of Figure 3);
* :mod:`repro.analysis.clustering` — local clustering coefficient
  (transitivity) per vertex and its histogram (Figure 4);
* :mod:`repro.analysis.ego` — radius-2 ego subgraphs around sampled
  individuals (Figures 1 and 2);
* :mod:`repro.analysis.groups` — within-age-group subnetworks and their
  degree distributions (Figure 5);
* :mod:`repro.analysis.summary` — whole-network statistics (vertex/edge
  counts, components, memory footprint: the Section V text numbers).

All computations run on the sparse adjacency directly and are
cross-validated against networkx in the test suite.
"""

from .degree import DegreeDistribution, degree_distribution, log_binned
from .fits import (
    FitResult,
    fit_power_law,
    fit_truncated_power_law,
    fit_exponential,
    compare_fits,
    power_law_mle,
)
from .clustering import local_clustering, clustering_histogram, mean_clustering
from .ego import EgoNetwork, ego_from_parts, ego_network, sample_ego_networks
from .groups import within_group_network, age_group_degree_distributions
from .summary import NetworkSummary, summarize
from .smallworld import PathLengthStats, sampled_path_lengths, small_world_sigma
from .contactmatrix import ContactMatrix, contact_matrix
from .weighted import (
    strength_distribution,
    edge_weight_distribution,
    weighted_clustering,
    degree_assortativity,
)

__all__ = [
    "DegreeDistribution",
    "degree_distribution",
    "log_binned",
    "FitResult",
    "fit_power_law",
    "fit_truncated_power_law",
    "fit_exponential",
    "compare_fits",
    "power_law_mle",
    "local_clustering",
    "clustering_histogram",
    "mean_clustering",
    "EgoNetwork",
    "ego_from_parts",
    "ego_network",
    "sample_ego_networks",
    "within_group_network",
    "age_group_degree_distributions",
    "NetworkSummary",
    "summarize",
    "PathLengthStats",
    "sampled_path_lengths",
    "small_world_sigma",
    "strength_distribution",
    "edge_weight_distribution",
    "weighted_clustering",
    "degree_assortativity",
    "ContactMatrix",
    "contact_matrix",
]
