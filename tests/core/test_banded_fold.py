"""The banded fold, held to the paper's definition and to one-shot sums.

:func:`~repro.core.intervals.fold_packs` reduces the strict upper
triangle in bands of person rows: per band, every pack's triples are
packed, sorted, deduplicated and summed, then appended to the output.
Whatever the band bound (:data:`~repro.core.kernels.masked._BAND_BYTES`,
patched small here to force many bands), the result must be bit-for-bit
the brute-force oracle's (``tests/_oracle.py``) and a single-shot
reference reduce's (every pack's scipy product summed in one COO→CSR),
on both kernel legs.  The draws reach what band edges can break: bands
with no pair, one band, a pair on a band's last row, a person count that
is no multiple of a band's rows, places split across packs.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.intervals import build_interval_pack_columns, fold_packs
from repro.core.kernels import cext, masked
from repro.evlog import make_records
from repro.evlog.reader import slice_columns
from repro.obs import default_registry
from tests._oracle import brute_force_adjacency
from tests.core.conftest import IMPLS, use_impl
from tests.core.test_kernel_backends import csr_identical

T0, T1 = 4, 52


def reference_reduce(packs, n_persons: int) -> sp.csr_matrix:
    """The single-shot reduce: each pack's ``(Y·diag(w))·Yᵀ`` in scipy,
    its strict upper triangle mapped to global persons, all of them
    summed in one COO→CSR."""
    rows, cols, vals = [], [], []
    for p in packs:
        x = p.matrix.astype(np.int64)
        xw = sp.csr_matrix(
            (p.col_weight[x.indices].astype(np.int64), x.indices, x.indptr),
            shape=x.shape,
        )
        local = (xw @ x.T).tocoo()
        keep = local.row < local.col
        rows.append(p.persons[local.row[keep]])
        cols.append(p.persons[local.col[keep]])
        vals.append(local.data[keep])
    out = sp.coo_matrix(
        (
            np.concatenate(vals) if vals else np.empty(0, np.int64),
            (
                np.concatenate(rows) if rows else np.empty(0, np.int64),
                np.concatenate(cols) if cols else np.empty(0, np.int64),
            ),
        ),
        shape=(n_persons, n_persons),
    ).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return sp.csr_matrix(
        (
            out.data.astype(np.int64),
            out.indices.astype(np.int32),
            out.indptr.astype(np.int32),
        ),
        shape=out.shape,
    )


def file_packs(rows, n_files: int, by_place: bool):
    """The records of *rows* as *n_files* packs: split by place (rank logs,
    place-disjoint) or round-robin (places split across packs)."""
    person, place, start, dur = (np.array(c, np.int64) for c in zip(*rows))
    file_of = place % n_files if by_place else np.arange(len(rows)) % n_files
    packs = []
    for f in range(n_files):
        mine = file_of == f
        rec = make_records(
            start[mine].astype(np.uint32),
            (start[mine] + dur[mine]).astype(np.uint32),
            person[mine],
            np.zeros(int(mine.sum()), np.uint32),
            place[mine],
        )
        columns = slice_columns(rec, T0, T1)
        if len(columns[0]):
            packs.append(build_interval_pack_columns(*columns, T0, T1))
    return packs


@pytest.fixture()
def band_bytes(monkeypatch):
    """Patch the band bound for one test; returns the setter."""
    return lambda value: monkeypatch.setattr(masked, "_BAND_BYTES", value)


@st.composite
def folds(draw):
    n_persons = draw(st.integers(2, 90))
    # persons drawn from a sub-range leave rows with no pair: bands there
    # hold nothing
    lo = draw(st.integers(0, n_persons - 1))
    hi = draw(st.integers(lo, n_persons - 1))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(lo, hi),
                st.integers(0, 9),
                st.integers(0, 60),
                st.integers(1, 20),
            ),
            min_size=1,
            max_size=80,
        )
    )
    return (
        n_persons,
        rows,
        draw(st.integers(1, 4)),
        draw(st.booleans()),
        # 0 leaves only the floor (room for two rows of every pack): bands
        # of a row or a few; 8 MiB is one band at these sizes
        draw(st.sampled_from([0, 64, 1024, 8 << 20])),
    )


@settings(deadline=None, max_examples=60)
@given(folds())
def test_banded_fold_is_the_oracle_and_the_single_shot_reduce(case):
    n_persons, rows, n_files, by_place, bound = case
    person, place, start, dur = (np.array(c, np.int64) for c in zip(*rows))
    oracle = brute_force_adjacency(person, place, start, start + dur, n_persons, T0, T1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(masked, "_BAND_BYTES", bound)
        for impl in IMPLS:
            with use_impl(impl):
                packs = file_packs(rows, n_files, by_place)
                bands = default_registry().counter("kernels.fold.bands")
                before = bands.get()
                got, merged = fold_packs(packs, n_persons)
                if impl == "cext" and merged:
                    n_bands = bands.get() - before
                    event(f"bands: {'3+' if n_bands >= 3 else n_bands}")
            assert csr_identical(got, reference_reduce(merged, n_persons)), impl
            assert np.array_equal(got.toarray(), oracle.toarray()), impl
            assert got.dtype == np.int64 and got.indices.dtype == np.int32


@pytest.mark.skipif(cext.load_cext() is None, reason="bands are the compiled fold's")
def test_band_edges_are_exercised(band_bytes, monkeypatch):
    """One crowd across a gap of sixty absent persons, a second pack at
    the top and a prime person count, at the smallest bound: many bands
    of a row or two over the crowd's dense rows, an empty band past them,
    bands ending on a row that holds pairs — and still the oracle and the
    single-shot reduce."""
    n_persons = 101
    crowd = [(i, 0, 8, 2) for i in [*range(20), *range(80, 101)]]
    crowd += [(i, 4, 20, 5) for i in range(95, 101)]
    band_bytes(0)
    kernels = cext.load_cext()
    bands = []
    real = kernels.fill_values

    def spy(run_lo, run_hi, keys, vals, n_rows, cbits, r0, *rest):
        bands.append((r0, r0 + n_rows))
        return real(run_lo, run_hi, keys, vals, n_rows, cbits, r0, *rest)

    monkeypatch.setattr(kernels, "fill_values", spy)
    packs = file_packs(crowd, 3, by_place=True)
    got, _ = fold_packs(packs, n_persons)
    person, place, start, dur = (np.array(c, np.int64) for c in zip(*crowd))
    oracle = brute_force_adjacency(person, place, start, start + dur, n_persons, T0, T1)
    assert csr_identical(got, reference_reduce(packs, n_persons))
    assert np.array_equal(got.toarray(), oracle.toarray())
    assert [r0 for r0, _ in bands] == [0] + [r1 for _, r1 in bands[:-1]]
    assert bands[-1][1] == n_persons and len(bands) > 3
    per_row = np.diff(got.indptr)
    assert any(per_row[r0:r1].sum() == 0 for r0, r1 in bands), "no empty band"
    assert any(per_row[r1 - 1] for r0, r1 in bands), "no pair on a band's last row"
