"""Brute-force collocation adjacency, straight from the paper's definition.

``A = sum over places of x . x^T`` where ``x[person, hour]`` is 1 when the
person is at the place during that hour; ``A[i, j]`` for ``i < j`` is the
hours persons ``i`` and ``j`` spent in the same place.  Shares no code with
``repro.core``: it takes the four raw record columns and uses numpy and
scipy only.  The end-to-end benchmark keeps its own copy
(``benchmarks/e2e/oracle.py``), which the tests do not load.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def brute_force_adjacency(person, place, start, stop, n_persons: int, t0: int, t1: int):
    """Strict-upper-triangle pair-hours of ``[t0, t1)`` as a canonical CSR."""
    person = np.asarray(person, dtype=np.int64)
    place = np.asarray(place, dtype=np.int64)
    lo = np.maximum(np.asarray(start, dtype=np.int64), t0)
    hi = np.minimum(np.asarray(stop, dtype=np.int64), t1)
    live = hi > lo
    person, place, lo, hi = person[live], place[live], lo[live], hi[live]
    order = np.argsort(place, kind="stable")
    person, place, lo, hi = person[order], place[order], lo[order], hi[order]
    bounds = np.flatnonzero(np.diff(place)) + 1
    rows, cols, vals = [], [], []
    for a, b in zip(np.r_[0, bounds], np.r_[bounds, len(place)]):
        roster, local = np.unique(person[a:b], return_inverse=True)
        if len(roster) < 2:
            continue
        x = np.zeros((len(roster), t1 - t0), dtype=np.int64)
        for who, s, e in zip(local, lo[a:b], hi[a:b]):
            x[who, s - t0 : e - t0] = 1
        pair_hours = np.triu(x @ x.T, k=1)
        i, j = np.nonzero(pair_hours)
        rows.append(roster[i])
        cols.append(roster[j])
        vals.append(pair_hours[i, j])
    if not rows:
        return sp.csr_matrix((n_persons, n_persons), dtype=np.int64)
    out = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_persons, n_persons),
    ).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out
