"""Tests for migrant payload packing.

``TestUnpack`` covers the reference arrival path, ``unpack_migrants``,
which now lives beside the reference rank step in
``_reference_rank_step.py``: ``HostedTable.receive`` is the one arrival
path in ``src/`` and ``test_receive_property.py`` holds it to this one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distrib import MIGRANT_DTYPE, pack_migrants
from repro.distrib.migration import route_rows
from repro.errors import CommError

from ._reference_rank_step import unpack_migrants


class TestPack:
    def test_roundtrip(self):
        m = pack_migrants(
            np.array([1, 2], dtype=np.uint32),
            np.array([10, 20], dtype=np.int64),
            np.array([0, 1], dtype=np.uint32),
            np.array([5, 6], dtype=np.uint32),
        )
        assert m.dtype == MIGRANT_DTYPE
        assert m["person"].tolist() == [1, 2]
        assert m["spell_start"].tolist() == [10, 20]

    def test_length_mismatch(self):
        with pytest.raises(CommError):
            pack_migrants(
                np.array([1], dtype=np.uint32),
                np.array([10, 20], dtype=np.int64),
                np.array([0], dtype=np.uint32),
                np.array([5], dtype=np.uint32),
            )

    def test_fixed_width_wire_size(self):
        """16 bytes per migrating agent — flat, meterable payloads."""
        assert MIGRANT_DTYPE.itemsize == 20
        m = pack_migrants(
            np.arange(10, dtype=np.uint32),
            np.arange(10, dtype=np.int64),
            np.zeros(10, dtype=np.uint32),
            np.zeros(10, dtype=np.uint32),
        )
        assert m.nbytes == 10 * MIGRANT_DTYPE.itemsize


class TestUnpack:
    def test_concatenates_skipping_empty(self):
        a = pack_migrants(
            np.array([1], dtype=np.uint32),
            np.array([0], dtype=np.int64),
            np.array([0], dtype=np.uint32),
            np.array([0], dtype=np.uint32),
        )
        out = unpack_migrants([None, a, np.empty(0, dtype=MIGRANT_DTYPE), a])
        assert len(out) == 2

    def test_all_empty(self):
        out = unpack_migrants([None, None])
        assert len(out) == 0
        assert out.dtype == MIGRANT_DTYPE

    @pytest.mark.parametrize(
        "payload",
        [
            np.zeros(2, dtype=np.dtype([("person", "<u4"), ("place", "<u4")])),
            np.arange(3, dtype=np.int64),
            [(1, 0, 0, 0)],
        ],
        ids=["other-struct", "plain-ints", "list"],
    )
    def test_wrong_dtype_is_a_protocol_error(self, payload):
        """A payload that is not migrants is refused, never cast."""
        good = np.zeros(1, dtype=MIGRANT_DTYPE)
        with pytest.raises(CommError, match="dtype"):
            unpack_migrants([good, payload])


class TestRouteRows:
    def test_matches_the_per_destination_split(self, rng):
        """The split both rank loops used to spell out by hand."""
        for n_ranks in (1, 2, 5):
            dest = rng.integers(0, n_ranks, 40).astype(np.int32)
            order, spans = route_rows(dest, n_ranks)
            by_hand = np.argsort(dest, kind="stable")
            bounds = np.searchsorted(dest[by_hand], np.arange(n_ranks + 1))
            want = [
                (r, int(bounds[r]), int(bounds[r + 1]))
                for r in range(n_ranks)
                if bounds[r + 1] > bounds[r]
            ]
            assert np.array_equal(order, by_hand)
            assert spans == want
            for r, lo, hi in spans:
                rows = order[lo:hi]
                assert (dest[rows] == r).all()
                assert (np.diff(rows) > 0).all()  # hosted order kept

    def test_skips_ranks_nobody_goes_to(self):
        order, spans = route_rows(np.array([3, 1, 3], dtype=np.int32), 5)
        assert order.tolist() == [1, 0, 2]
        assert spans == [(1, 0, 1), (3, 1, 3)]

    def test_no_leavers(self):
        order, spans = route_rows(np.empty(0, dtype=np.int32), 3)
        assert len(order) == 0 and spans == []
