"""Bit-identity contract of the kernel implementation: C and twin.

Records become an interval pack and a pack becomes an adjacency one way;
each step runs in the C extension when it loaded and the input fits its
layout, else in the numpy/scipy body below the call.  Both must produce
**bit-identical** CSR adjacencies — same ``data``, ``indices``,
``indptr``, dtypes — as each other and as the oracle
(``reference.synthesize_network(kernel="dense-hours")``: per-hour
matrices, scipy ``x·xᵀ``, no pack and no C), on any input.  The property
suite drives randomized logs through oracle and production under both
implementations, deliberately covering empty windows, empty places,
single-person places, and records straddling the window boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synthesize_network
from repro.core.intervals import (
    build_interval_pack,
    build_interval_pack_columns,
    sum_pack_adjacency,
)
from repro.core.kernels import (
    backend_info,
    collect_kernel_timings,
    compiled_impl,
    get_workspace,
)
from repro.core.slicing import clip_records, slice_records
from repro.evlog import make_records
from repro.obs import CollectingProbe, default_registry, push_probe
from tests.core import _reference_value_dispatch as reference
from tests.core.conftest import IMPLS, use_impl

N_PERSONS = 60
T0, T1 = 10, 58


def csr_identical(a, b):
    """Bit-for-bit CSR equality — the contract, not mere closeness."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.indices.dtype == b.indices.dtype
        and np.array_equal(a.data, b.data)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


def to_records(rows):
    if not rows:
        return make_records(*(np.empty(0, np.uint32) for _ in range(5)))
    person, place, start, dur = (np.array(c, np.uint32) for c in zip(*rows))
    return make_records(start, start + dur, person, np.zeros_like(place), place)


#: (person, place, start, duration) — starts range past T1 and durations
#: cross T0/T1, so records straddle both window boundaries; small place
#: range forces shared places, while sparse draws leave single-person and
#: empty places
record_lists = st.lists(
    st.tuples(
        st.integers(0, N_PERSONS - 1),
        st.integers(0, 12),
        st.integers(0, 70),
        st.integers(1, 25),
    ),
    max_size=60,
)


class TestBackendBitIdentity:
    @settings(deadline=None, max_examples=40)
    @given(record_lists)
    def test_all_kernel_backend_pairs(self, rows):
        """One adjacency: the oracle's, and production's under each
        implementation — zero bit drift."""
        rec = to_records(rows)
        oracle, _ = reference.synthesize_network(
            rec, N_PERSONS, T0, T1, kernel="dense-hours"
        )
        for impl in IMPLS:
            with use_impl(impl):
                net, report = synthesize_network(rec, N_PERSONS, T0, T1)
            if report.n_sliced_records:
                assert report.impl == impl
            assert csr_identical(oracle.adjacency, net.adjacency)

    @settings(deadline=None, max_examples=20)
    @given(record_lists)
    def test_pack_fields_identical(self, rows):
        """The compiled pack build yields the twin's pack exactly —
        every field, every dtype — not just the same adjacency."""
        rec = slice_records(to_records(rows), T0, T1)
        if not len(rec):
            return
        with use_impl("twin"):
            ref = build_interval_pack(rec, T0, T1)
        fast = build_interval_pack(rec, T0, T1)
        for name in (
            "places",
            "place_work",
            "place_hours",
            "col_place",
            "col_start",
            "col_weight",
            "persons",
        ):
            a, b = getattr(ref, name), getattr(fast, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert csr_identical(ref.matrix, fast.matrix)

    def test_empty_window(self):
        for impl in IMPLS:
            with use_impl(impl):
                net, _ = synthesize_network(
                    to_records([(0, 0, 1, 5)]), N_PERSONS, 500, 600
                )
            assert net.adjacency.nnz == 0


class TestOneSelector:
    """``masked.load_cext`` is the only thing that decides, and what it
    decided is observable."""

    ROWS = [(0, 0, 12, 5), (1, 0, 12, 5), (2, 1, 20, 9), (3, 1, 22, 4)]

    def _columns(self):
        rec = clip_records(slice_records(to_records(self.ROWS), T0, T1), T0, T1)
        return tuple(
            rec[name].astype(np.int64)
            for name in ("start", "stop", "person", "place")
        )

    def test_masked_out_extension_is_never_called(self, ctypes_calls):
        """The split brain: the pack build and the product used to ask
        different selectors, so one could run in C beside the other's
        fallback."""
        with use_impl("twin"):
            pack = build_interval_pack_columns(*self._columns(), T0, T1)
            sum_pack_adjacency([pack], N_PERSONS)
            _, report = synthesize_network(
                to_records(self.ROWS), N_PERSONS, T0, T1
            )
        assert ctypes_calls == []
        assert report.impl == "twin"
        assert {"pack_build", "spgemm", "accumulate"} <= set(report.kernel_timings)

    def test_loaded_extension_runs_both_steps(self, ctypes_calls):
        with use_impl("cext"), push_probe(CollectingProbe()) as probe:
            _, report = synthesize_network(
                to_records(self.ROWS), N_PERSONS, T0, T1
            )
        assert {"rk_boundary_scan", "rk_masked_spgemm"} <= set(ctypes_calls)
        assert report.impl == "cext"
        assert report.summary().splitlines()[0].split() == ["impl", "cext"]
        assert not [name for name in probe.counters if name.endswith(".twin")]

    def test_oracle_never_touches_the_extension(self, ctypes_calls):
        reference.synthesize_network(
            to_records(self.ROWS), N_PERSONS, T0, T1, kernel="dense-hours"
        )
        assert ctypes_calls == []

    def test_declined_fast_path_is_counted(self):
        """Once per call that ran the twin, whatever the reason: the
        extension masked out, or loaded and declining a person id >= 2**32."""
        with use_impl("twin"), push_probe(CollectingProbe()) as probe:
            synthesize_network(to_records(self.ROWS), N_PERSONS, T0, T1)
        assert probe.counters["kernels.pack_build.twin"] == 1
        assert probe.counters["kernels.spgemm.twin"] == 1
        collect_kernel_timings()
        one = np.array([1], np.int64)
        build_interval_pack_columns(one, one + 2, one << 32, one, 0, 24)
        assert collect_kernel_timings()["pack_build.twin"] == 1

    def test_compiled_gauge_and_info(self):
        info = backend_info()
        assert set(info) == {"compiled_impl", "cext_error"}
        assert info["compiled_impl"] == compiled_impl()
        assert info["compiled_impl"] in ("cext", None)
        assert (info["cext_error"] is None) == (compiled_impl() == "cext")
        gauges = default_registry().snapshot()["gauges"]
        assert gauges["kernels.compiled"] == int(compiled_impl() == "cext")


class TestWorkspacePooling:
    def test_take_reuses_buffers(self):
        ws = get_workspace()
        ws.clear()
        a = ws.take("t_pool", 100, np.int64)
        grows = ws.grows
        b = ws.take("t_pool", 80, np.int64)
        assert b.base is a.base  # same backing buffer, no allocation
        assert ws.grows == grows
        c = ws.take("t_pool", 10_000, np.int64)
        assert len(c) == 10_000 and ws.grows == grows + 1
        ws.clear()

    def test_take_is_per_name_and_dtype(self):
        ws = get_workspace()
        ws.clear()
        a = ws.take("t_a", 64, np.int64)
        b = ws.take("t_b", 64, np.int32)
        assert a.base is not b.base
        # dtype change on one name reallocates rather than aliasing
        c = ws.take("t_a", 64, np.int32)
        assert c.dtype == np.int32
        ws.clear()

    def test_steady_state_synthesis_stops_allocating(self):
        """Second identical run through the C kernels must be all pool
        hits — the preallocated-workspace claim, asserted."""
        if compiled_impl() is None:
            pytest.skip("no compiled implementation available")
        rng = np.random.default_rng(5)
        rows = [
            (int(rng.integers(0, N_PERSONS)), int(rng.integers(0, 6)),
             int(rng.integers(0, 40)), int(rng.integers(1, 10)))
            for _ in range(200)
        ]
        rec = to_records(rows)
        ws = get_workspace()
        synthesize_network(rec, N_PERSONS, T0, T1)
        grows = ws.grows
        synthesize_network(rec, N_PERSONS, T0, T1)
        assert ws.grows == grows


@pytest.mark.skipif(compiled_impl() is None, reason="no C compiler / cext")
class TestCompiledGuards:
    """The compiled pack build must decline — not corrupt — inputs the
    reference semantics reserve."""

    def _cols(self, rec, t0=T0, t1=T1):
        rec = clip_records(rec, t0, t1)
        return (
            rec["start"].astype(np.int64),
            rec["stop"].astype(np.int64),
            rec["person"].astype(np.int64),
            rec["place"].astype(np.int64),
        )

    def test_zero_length_record_falls_back(self):
        from repro.core.kernels.masked import build_pack_arrays

        start = np.array([5, 7], np.int64)
        stop = np.array([5, 9], np.int64)  # first record covers nothing
        person = np.array([1, 2], np.int64)
        place = np.array([0, 0], np.int64)
        assert build_pack_arrays(start, stop, person, place, 0, 24) is None

    def test_negative_place_falls_back(self):
        from repro.core.kernels.masked import build_pack_arrays

        start = np.array([1], np.int64)
        stop = np.array([3], np.int64)
        person = np.array([1], np.int64)
        place = np.array([-1], np.int64)
        assert build_pack_arrays(start, stop, person, place, 0, 24) is None

    def test_huge_person_id_falls_back(self):
        from repro.core.kernels.masked import build_pack_arrays

        start = np.array([1], np.int64)
        stop = np.array([3], np.int64)
        person = np.array([2**32], np.int64)
        place = np.array([0], np.int64)
        assert build_pack_arrays(start, stop, person, place, 0, 24) is None

    def test_build_matches_reference_on_tricky_window(self):
        from repro.core.kernels.masked import build_pack_arrays

        rng = np.random.default_rng(9)
        rows = [
            (int(rng.integers(0, N_PERSONS)), int(rng.integers(0, 8)),
             int(rng.integers(0, 70)), int(rng.integers(1, 25)))
            for _ in range(300)
        ]
        rec = slice_records(to_records(rows), T0, T1)
        fields = build_pack_arrays(*self._cols(rec), T0, T1)
        assert fields is not None
        with use_impl("twin"):
            ref = build_interval_pack(rec, T0, T1)
        for name in ("places", "col_place", "col_start", "col_weight", "persons"):
            assert np.array_equal(fields[name], getattr(ref, name)), name
        assert csr_identical(fields["matrix"], ref.matrix)
