"""Temporal statistics over a sequence of interval networks.

The log holds "the complete information required to create a person
collocation network with arbitrary time granularity" (Section II): one
:func:`~repro.core.pipeline.synthesize_from_logs` call per window gives a
sequence of networks, and these functions read the contact dynamics off
it — edge persistence between consecutive intervals and edge recurrence
(how many intervals a pair keeps meeting), which separate the stable
social core (household, school, work) from incidental venue contacts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..core.adjacency import sum_partials
from ..core.network import CollocationNetwork
from ..errors import SynthesisError

__all__ = ["edge_persistence", "edge_recurrence"]


def _patterns(networks: Sequence[CollocationNetwork]) -> list[sp.csr_matrix]:
    """Each network's binary edge pattern; refuses an empty sequence and
    networks over different populations."""
    if not networks:
        raise SynthesisError("series needs at least one interval")
    n = networks[0].n_persons
    if any(net.n_persons != n for net in networks):
        raise SynthesisError("intervals cover different populations")
    out = []
    for net in networks:
        a = net.adjacency.copy()
        a.data = np.ones_like(a.data)
        out.append(a)
    return out


def edge_persistence(networks: Sequence[CollocationNetwork]) -> np.ndarray:
    """Fraction of interval-w edges that recur in interval w+1.

    High persistence = a stable social core; the venue fringe churns.
    """
    patterns = _patterns(networks)
    out = np.empty(len(patterns) - 1, dtype=np.float64)
    for w, (prev, cur) in enumerate(zip(patterns, patterns[1:])):
        out[w] = prev.multiply(cur).nnz / prev.nnz if prev.nnz else 0.0
    return out


def edge_recurrence(
    networks: Sequence[CollocationNetwork],
) -> tuple[np.ndarray, np.ndarray]:
    """``(weeks, pair_counts)``: how many pairs met in exactly *w*
    intervals (w ≥ 1)."""
    patterns = _patterns(networks)
    acc = sum_partials(patterns, networks[0].n_persons)
    counts = np.bincount(
        acc.data.astype(np.int64), minlength=len(patterns) + 1
    )[1:]
    weeks = np.arange(1, len(patterns) + 1)
    keep = counts > 0
    return weeks[keep], counts[keep]
