"""Demographic within-group subnetworks (Figure 5).

"The entire simulated population was divided according to age groups ...
These figures represent the within-group network connectedness such that
only collocation connections between persons within each age group are
considered and edges between age groups are removed."
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..config import AGE_GROUPS
from ..errors import AnalysisError
from ..core.adjacency import pattern_degrees
from ..core.kernels.graph import induced_sum
from ..core.network import CollocationNetwork
from ..synthpop.person import PersonTable
from .degree import DegreeDistribution, degree_distribution

__all__ = [
    "within_group_network",
    "age_group_degree_distributions",
    "group_members",
]


def group_members(persons: PersonTable, group_index: int) -> np.ndarray:
    """Person ids belonging to one of the paper's age groups."""
    if not 0 <= group_index < len(AGE_GROUPS):
        raise AnalysisError(f"no age group {group_index}")
    return np.flatnonzero(persons.age_group() == group_index).astype(np.int64)


def within_group_network(
    network: CollocationNetwork, members: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Induced symmetric subnetwork on a member set (cross-group edges
    removed).  Returns ``(sym_matrix, sorted_members)``."""
    return network.subgraph(np.asarray(members, dtype=np.int64))


def age_group_degree_distributions(
    network: CollocationNetwork, persons: PersonTable
) -> dict[str, DegreeDistribution]:
    """Within-group degree distribution per Figure 5 age group.

    Keys are the group labels ("0-14", "15-18", "19-44", "45-64", "65+");
    each distribution counts only edges between two members of the group.
    """
    if len(persons) != network.n_persons:
        raise AnalysisError("person table does not match network population")
    out: dict[str, DegreeDistribution] = {}
    groups = persons.age_group()
    for index, (label, _, _) in enumerate(AGE_GROUPS):
        members = np.flatnonzero(groups == index).astype(np.int64)
        if len(members) == 0:
            out[label] = degree_distribution(np.zeros(0, dtype=np.int64))
            continue
        # the members' upper triangle is enough to count their degrees
        upper = induced_sum([network.adjacency], members)
        out[label] = degree_distribution(pattern_degrees(upper))
    return out
