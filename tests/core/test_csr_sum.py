"""The one fold for partial adjacencies, on both implementations.

:func:`~repro.core.adjacency.sum_partials` sums canonical strict-upper
partials in the compiled k-way merge
(:func:`~repro.core.kernels.masked.csr_sum`) when the extension loaded
and every part is in its layout, else with scipy's pairwise ``+`` right
below the call.  Every test runs through the public entry point once per
implementation (``impl`` fixture) and compares with pairwise scipy ``+``
and a dense sum, which share no code with the kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import TileCache
from repro.core.adjacency import sum_partials
from repro.core.kernels import cext, collect_kernel_timings
from repro.errors import SynthesisError
from repro.evlog import make_records, write_rank_logs
from repro.obs import capture_spans
from tests.core.test_kernel_equivalence import csr_identical

#: the ``impl`` fixture only patches a module attribute, which may well
#: stay in place across the examples of one test
PER_IMPL = settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: small values cancel across parts, 0 is an explicit zero, and eight of
#: the large ones still sum inside int64
VALUES = np.array([-3, -1, 0, 1, 2, 3, 2**59, -(2**59)], dtype=np.int64)


def partial(n, rows, cols, vals) -> sp.csr_matrix:
    """Canonical CSR from unique, row-major (row, col) pairs, keeping
    explicit zeros."""
    return sp.csr_matrix(
        (np.asarray(vals, np.int64), (np.asarray(rows), np.asarray(cols))),
        shape=(n, n),
    )


@st.composite
def partial_sets(draw):
    """``(n, parts)``: 1–8 strict-upper partials, some empty, with empty
    rows, explicit zeros, cancelling and large values."""
    n = draw(st.sampled_from([1, 2, 3, 7, 20]))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = np.triu_indices(n, 1)
    parts = []
    for _ in range(k):
        keep = rng.random(len(rows)) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
        vals = VALUES[rng.integers(0, len(VALUES), int(keep.sum()))]
        parts.append(partial(n, rows[keep], cols[keep], vals))
    return n, parts


def pairwise(parts, n) -> sp.csr_matrix:
    out = sp.csr_matrix((n, n), dtype=np.int64)
    for part in parts:
        out = out + part
    return out


def dense(parts, n) -> sp.csr_matrix:
    return sp.csr_matrix(sum(p.toarray() for p in parts), shape=(n, n))


def arrays(m):
    return (m.indptr, m.indices, m.data)


class TestAgainstScipy:
    @PER_IMPL
    @given(partial_sets())
    def test_matches_pairwise_plus_and_dense_sum(self, impl, case):
        n, parts = case
        got = sum_partials(parts, n)
        assert csr_identical(got, pairwise(parts, n))
        assert csr_identical(got, dense(parts, n))
        assert got.has_canonical_format

    @PER_IMPL
    @given(partial_sets())
    def test_no_input_is_aliased_or_mutated(self, impl, case):
        n, parts = case
        before = [tuple(a.copy() for a in arrays(p)) for p in parts]
        got = sum_partials(parts, n)
        for part, old in zip(parts, before):
            for now, was in zip(arrays(part), old):
                assert np.array_equal(now, was)
            for mine in arrays(got):
                assert not any(np.shares_memory(mine, a) for a in arrays(part))

    def test_one_part_is_copied_with_zeros_dropped(self, impl):
        part = partial(4, [0, 0, 2], [1, 3, 3], [5, 0, 7])
        got = sum_partials([part], 4)
        assert got is not part and not np.shares_memory(got.data, part.data)
        assert got.data.tolist() == [5, 7] and part.nnz == 3

    def test_no_parts_is_the_empty_adjacency(self, impl):
        got = sum_partials([], 3)
        assert got.shape == (3, 3) and got.nnz == 0


def valid() -> sp.csr_matrix:
    """Rows 0 and 2 of a 5 x 5 partial: (0, 1) (0, 4) (2, 3)."""
    return partial(5, [0, 0, 2], [1, 4, 3], [1, 2, 3])


def bad_indptr_step():
    m = valid()
    m.indptr[1], m.indptr[2] = 2, 1  # row 1 runs backwards
    return m


def bad_indptr_end():
    m = valid()
    m.indptr[-1] = 2  # ends short of the stored entries
    return m


def column_past_n():
    m = valid()
    m.indices[1] = 5
    return m


def diagonal_entry():
    return partial(5, [0, 2], [1, 2], [1, 3])


def lower_entry():
    return partial(5, [0, 3], [1, 1], [1, 3])


MALFORMED = [
    bad_indptr_step, bad_indptr_end, column_past_n, diagonal_entry, lower_entry,
]


class TestMalformedInput:
    @pytest.mark.parametrize("trust_flag", [False, True], ids=["flag", "stale"])
    @pytest.mark.parametrize("make", MALFORMED, ids=lambda f: f.__name__)
    def test_is_refused(self, impl, make, trust_flag):
        """Refused with a typed error, never read out of bounds: also when
        scipy's cached canonical flag is stale (set before the damage), so
        the kernel gets the part and must find the damage itself."""
        m = make()
        if trust_flag:
            m.has_canonical_format = True
        with pytest.raises(SynthesisError):
            sum_partials([valid(), m, valid()], 5)
        with pytest.raises(SynthesisError):
            sum_partials([m], 5)

    def test_a_lying_flag_cannot_overrun_the_scratch(self, impl):
        """Forty copies of one column behind a stale canonical flag: the
        twin (which scans for itself) sums them; the kernel refuses a row
        longer than a strict-upper row can be rather than write past its
        row-sized scratch."""
        m = sp.csr_matrix(
            (np.ones(40, np.int64), np.ones(40, np.int32), np.r_[0, [40] * 5]),
            shape=(5, 5),
        )
        m.has_canonical_format = True
        parts = [valid(), m, valid()]
        if impl == "cext":
            with pytest.raises(SynthesisError):
                sum_partials(parts, 5)
        else:
            assert csr_identical(sum_partials(parts, 5), dense(parts, 5))

    def test_wrong_shape_is_refused(self, impl):
        with pytest.raises(SynthesisError):
            sum_partials([valid(), partial(6, [0], [1], [1])], 5)


def twin_count() -> int:
    return collect_kernel_timings().get("csr_sum.twin", 0)


def int64_indices():
    m = valid()
    m.indices = m.indices.astype(np.int64)
    m.indptr = m.indptr.astype(np.int64)
    return m


def unsorted_row():
    return sp.csr_matrix(
        (np.array([2, 1, 3]), np.array([4, 1, 3]), np.array([0, 2, 2, 3, 3, 3])),
        shape=(5, 5),
    )


def strided_indices():
    m = valid()
    m.indices = np.repeat(m.indices, 2)[::2]  # same values, not contiguous
    return m


class TestRouting:
    @pytest.mark.parametrize("make", [int64_indices, unsorted_row, strided_indices])
    def test_outside_the_layout_goes_to_the_twin_once_per_call(self, impl, make):
        twin_count()
        got = sum_partials([valid(), make(), valid()], 5)
        assert twin_count() == 1
        assert csr_identical(got, dense([valid(), valid(), valid()], 5))
        assert got.has_canonical_format

    def test_layout_parts_run_the_kernel(self, impl):
        twin_count()
        sum_partials([valid(), valid()], 5)
        assert twin_count() == (impl == "twin")

    def test_smoke_test_rejects_a_bad_sum_kernel(self):
        kernels = cext.load_cext()
        if kernels is None:
            pytest.skip("C extension unavailable")

        class Skewed:
            def __getattr__(self, name):
                if name == "csr_sum":
                    return lambda *args: 0
                return getattr(kernels, name)

        with pytest.raises(RuntimeError):
            cext._smoke_test(Skewed())


class TestCompose:
    """The tile cache's compose: one span with ``parts`` and ``impl``, and
    the twin counter in the registry."""

    def test_compose_span_and_twin_counter(self, impl, tmp_path, registry):
        recs = make_records(
            np.array([0, 0, 30, 30]), np.array([40, 40, 70, 70]),
            np.array([0, 1, 1, 2]), np.zeros(4, np.uint32), np.array([0, 0, 1, 1]),
        )
        write_rank_logs(tmp_path, [recs])
        with TileCache(tmp_path, 3, tile_hours=24) as cache:
            cache.warm(0, 72)
            registry.reset()
            with capture_spans() as spans:
                net = cache.query_window(5, 72)  # fringe + tiles 1, 2
        [span] = [s for s in spans if s["name"] == "compose"]
        assert span["attrs"]["parts"] == 3
        assert span["attrs"]["impl"] == impl
        assert span["attrs"]["n_edges"] == net.n_edges == 2
        counters = registry.snapshot()["counters"]
        assert counters.get("kernels.csr_sum.twin", 0) == (impl == "twin")
