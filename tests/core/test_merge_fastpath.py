"""Merges must not change a single bit.

``merge_packs`` re-unions segment boundaries, so merging per-part packs
must give exactly the pack (and adjacency) one build from the
concatenated records gives, whether the parts share places or not; and
``merge_collocations`` takes a matrix-sum shortcut when every partial
shares one person roster, which must be **bit-identical** to its general
path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.colloc import build_collocation_matrices, merge_collocations
from repro.core.intervals import (
    IntervalPack,
    build_interval_pack,
    merge_packs,
    sum_pack_adjacency,
)
from repro.core.slicing import slice_records
from tests.core.test_kernel_equivalence import (
    N_PERSONS,
    N_PLACES,
    T0,
    T1,
    csr_identical,
    tricky_records,
)


def pack_identical(a: IntervalPack, b: IntervalPack) -> bool:
    return (
        np.array_equal(a.places, b.places)
        and a.places.dtype == b.places.dtype
        and np.array_equal(a.place_work, b.place_work)
        and np.array_equal(a.place_hours, b.place_hours)
        and np.array_equal(a.col_place, b.col_place)
        and np.array_equal(a.col_start, b.col_start)
        and np.array_equal(a.col_weight, b.col_weight)
        and np.array_equal(a.persons, b.persons)
        and a.persons.dtype == b.persons.dtype
        and csr_identical(a.matrix, b.matrix)
        and (a.t0, a.t1) == (b.t0, b.t1)
    )


def part_records(seed, n_parts=4, disjoint=True):
    """Per-part sliced records: over disjoint, ascending place ranges, or
    over one shared place range."""
    rng = np.random.default_rng(seed)
    parts = []
    width = N_PLACES // n_parts
    for part in range(n_parts):
        rec = tricky_records(rng, n_records=150)
        if disjoint:
            rec["place"] = rec["place"] % width + part * width
        parts.append(slice_records(rec, T0, T1))
    return parts


def packs_and_whole(parts):
    """One pack per part, and one pack from the concatenated records."""
    packs = [build_interval_pack(rec, T0, T1) for rec in parts]
    return packs, build_interval_pack(np.concatenate(parts), T0, T1)


def disjoint_packs(seed, n_parts=4):
    return packs_and_whole(part_records(seed, n_parts))[0]


class TestPackMergeFastPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_concat_equals_reunion(self, seed):
        """A build from the concatenated records == the re-union merge of
        the per-part packs, place-disjoint parts or not."""
        for disjoint in (True, False):
            packs, whole = packs_and_whole(part_records(seed, disjoint=disjoint))
            assert pack_identical(merge_packs(packs), whole), disjoint

    @pytest.mark.parametrize("seed", range(6))
    def test_merged_adjacency_identical(self, seed):
        """The consumer-visible contract: identical adjacency either way."""
        for disjoint in (True, False):
            packs, whole = packs_and_whole(
                part_records(100 + seed, disjoint=disjoint)
            )
            a = sum_pack_adjacency([merge_packs(packs)], N_PERSONS)
            b = sum_pack_adjacency([whole], N_PERSONS)
            assert csr_identical(a, b), disjoint

    def test_fast_path_does_not_mutate_inputs(self):
        packs = disjoint_packs(11)
        before = [
            (p.matrix.data.copy(), p.places.copy(), p.col_place.copy())
            for p in packs
        ]
        merge_packs(packs)
        for p, (data, places, col_place) in zip(packs, before):
            assert np.array_equal(p.matrix.data, data)
            assert np.array_equal(p.places, places)
            assert np.array_equal(p.col_place, col_place)

    def test_single_pack_passthrough(self):
        (pack,) = disjoint_packs(12, n_parts=1)
        assert merge_packs([pack]) is pack


class TestCollocMergeFastPath:
    def _partials(self, seed, same_roster):
        """Split one place's records into partials; with ``same_roster``
        each partial is rebuilt over the union roster (the fast path)."""
        rng = np.random.default_rng(seed)
        rec = slice_records(tricky_records(rng, n_records=400), T0, T1)
        rec["place"][:] = 7
        full = build_collocation_matrices(rec, T0, T1)[0]
        thirds = [rec[i::3] for i in range(3)]
        mats = [build_collocation_matrices(t, T0, T1)[0] for t in thirds]
        if same_roster:
            # re-index every partial onto the union roster
            import scipy.sparse as sp

            persons = full.persons
            out = []
            for m in mats:
                coo = m.matrix.tocoo()
                x = sp.coo_matrix(
                    (
                        np.ones(coo.nnz, dtype=np.uint32),
                        (np.searchsorted(persons, m.persons)[coo.row], coo.col),
                    ),
                    shape=(len(persons), T1 - T0),
                ).tocsr()
                out.append(
                    type(m)(
                        place=m.place, persons=persons, matrix=x,
                        t0=m.t0, t1=m.t1,
                    )
                )
            mats = out
        return full, mats

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_rosters_fast_path(self, seed):
        full, mats = self._partials(seed, same_roster=True)
        merged = merge_collocations(mats)
        assert np.array_equal(merged.persons, full.persons)
        assert csr_identical(merged.matrix, full.matrix)
        assert merged.matrix.dtype == full.matrix.dtype

    @pytest.mark.parametrize("seed", range(5))
    def test_distinct_rosters_general_path(self, seed):
        full, mats = self._partials(50 + seed, same_roster=False)
        merged = merge_collocations(mats)
        assert np.array_equal(merged.persons, full.persons)
        assert csr_identical(merged.matrix, full.matrix)

    def test_fast_path_does_not_mutate_inputs(self):
        _, mats = self._partials(3, same_roster=True)
        before = [m.matrix.data.copy() for m in mats]
        merge_collocations(mats)
        for m, data in zip(mats, before):
            assert np.array_equal(m.matrix.data, data)
