"""Per-place sparse collocation matrices.

"The sparse collocation matrix x is created by additively processing log
entries in a simulation output file and filling in values of 1 for the
times a person is doing an activity at the location. ... The elements of x
are simply binary values that indicate when each person row index was
present for each column time index."

One deliberate deviation from the paper's description: the paper indexes x
by *all* p persons; we index rows by the (sorted, unique) persons actually
present at the place and keep the global ids alongside.  ``x·xᵀ`` is
identical after mapping local rows back to global ids, and per-place work
becomes O(participants), not O(population) — the same optimization a sparse
matrix library performs internally on empty rows, made explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import SynthesisError
from ..evlog.schema import LOG_DTYPE, LogRecordArray
from .slicing import records_by_place

__all__ = [
    "CollocationMatrix",
    "collocation_matrix_for_place",
    "build_collocation_matrices",
    "merge_collocations",
]


@dataclass
class CollocationMatrix:
    """Sparse presence matrix for one place over a time slice.

    Attributes
    ----------
    place:
        the place id.
    persons:
        sorted unique global person ids present (the local→global row map).
    matrix:
        CSR boolean ``(len(persons), t1 - t0)``; entry ``(i, h)`` set when
        ``persons[i]`` was at the place during slice hour ``h``.
    t0, t1:
        the absolute-time slice this matrix covers.
    """

    place: int
    persons: np.ndarray
    matrix: sp.csr_matrix
    t0: int
    t1: int

    @property
    def nnz(self) -> int:
        """Person-hours of presence."""
        return int(self.matrix.nnz)

    @property
    def person_hours(self) -> int:
        """Alias of :attr:`nnz` under its physical meaning — shared
        vocabulary with :class:`~repro.core.intervals.IntervalPack`."""
        return int(self.matrix.nnz)

    @property
    def work(self) -> int:
        """Estimated pairwise-product work: ``sum(per-hour presence²)``.

        ``x·xᵀ`` touches ``c_h²`` index pairs for each hour column with
        ``c_h`` present persons, so this — not presence nnz — is what LPT
        balancing should equalize across workers.
        """
        counts = np.bincount(self.matrix.indices, minlength=self.matrix.shape[1])
        counts = counts.astype(np.int64)
        return int((counts * counts).sum())

    @property
    def n_persons(self) -> int:
        return len(self.persons)

    @property
    def n_hours(self) -> int:
        return self.matrix.shape[1]


def _expand_intervals(
    starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand ``[start, stop)`` intervals into (record_row, hour) pairs.

    Vectorized run-length expansion: no Python loop over records.
    """
    lengths = (stops - starts).astype(np.int64)
    total = int(lengths.sum())
    rows = np.repeat(np.arange(len(starts)), lengths)
    offsets = np.arange(total) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    hours = np.repeat(starts.astype(np.int64), lengths) + offsets
    return rows, hours


def collocation_matrix_for_place(
    place: int, records: LogRecordArray, t0: int, t1: int
) -> CollocationMatrix:
    """Build the collocation matrix *x* for one place from its records.

    Records must already be sliced/clipped to ``[t0, t1)`` and all belong
    to *place*.
    """
    records = np.asarray(records, dtype=LOG_DTYPE)
    if len(records) == 0:
        raise SynthesisError(f"no records for place {place}")
    if (records["place"] != place).any():
        raise SynthesisError(f"records contain foreign places (expected {place})")
    starts = records["start"].astype(np.int64)
    stops = records["stop"].astype(np.int64)
    if starts.min() < t0 or stops.max() > t1:
        raise SynthesisError("records extend outside the slice; clip first")

    persons = records["person"]
    unique_persons, local = np.unique(persons, return_inverse=True)
    rec_rows, hours = _expand_intervals(starts, stops)
    row_idx = local[rec_rows]
    col_idx = hours - t0
    data = np.ones(len(row_idx), dtype=np.uint32)
    x = sp.coo_matrix(
        (data, (row_idx, col_idx)),
        shape=(len(unique_persons), t1 - t0),
    ).tocsr()
    # a person logged twice for the same (place, hour) must still count once
    x.data[:] = 1
    return CollocationMatrix(
        place=int(place), persons=unique_persons, matrix=x, t0=t0, t1=t1
    )


def merge_collocations(mats: list[CollocationMatrix]) -> CollocationMatrix:
    """Union-merge matrices for the *same* place and window.

    Used when one place's records were split across per-file tasks: presence is binary, so the union of the partial
    matrices is bit-for-bit what a single build from the concatenated
    records would produce.
    """
    if not mats:
        raise SynthesisError("cannot merge zero collocation matrices")
    if len(mats) == 1:
        return mats[0]
    first = mats[0]
    if any(
        m.place != first.place or m.t0 != first.t0 or m.t1 != first.t1
        for m in mats
    ):
        raise SynthesisError("cannot merge collocation matrices across places/windows")
    # fast path: identical (already sorted) person rosters need no re-sort
    # or row remap — the union pattern is a binarized matrix sum, which is
    # canonical CSR and therefore bit-identical to the rebuild below
    if all(
        len(m.persons) == len(first.persons)
        and np.array_equal(m.persons, first.persons)
        for m in mats[1:]
    ):
        x = mats[0].matrix
        for m in mats[1:]:
            x = x + m.matrix
        x = x.astype(np.uint32)
        x.data[:] = 1
        return CollocationMatrix(
            place=first.place,
            persons=first.persons,
            matrix=x,
            t0=first.t0,
            t1=first.t1,
        )
    persons = np.unique(np.concatenate([m.persons for m in mats]))
    rows, cols = [], []
    for m in mats:
        coo = m.matrix.tocoo()
        rows.append(np.searchsorted(persons, m.persons)[coo.row])
        cols.append(coo.col)
    x = sp.coo_matrix(
        (
            np.ones(sum(len(r) for r in rows), dtype=np.uint32),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(len(persons), first.t1 - first.t0),
    ).tocsr()
    x.data[:] = 1
    return CollocationMatrix(
        place=first.place, persons=persons, matrix=x, t0=first.t0, t1=first.t1
    )


def build_collocation_matrices(
    records: LogRecordArray, t0: int, t1: int
) -> list[CollocationMatrix]:
    """Group sliced records by place and build every place's matrix."""
    place_ids, groups = records_by_place(records)
    return [
        collocation_matrix_for_place(int(pid), grp, t0, t1)
        for pid, grp in zip(place_ids, groups)
    ]
