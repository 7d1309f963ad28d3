"""Ego networks held to the brute-force oracle.

``tests/_oracle.py`` reads the paper's definition straight off the
records (pair-hours, then a set-based BFS on the dense symmetric form);
three ways of asking for an ego network must agree with it for radius
0–3, on both kernel implementations:

* :func:`~repro.analysis.ego.ego_network` over a directly synthesized
  window;
* :func:`~repro.analysis.ego.ego_from_parts` over the cached parts of an
  unaligned window with fringes (``(6, 174)`` on 24 h tiles);
* the service's ``ego`` reply for the same window (radius 1–3: the
  service refuses radius 0).

Generated worlds hold isolated persons, a place nobody is at inside the
window, spells that touch a window edge (zero hours inside it — a record
with ``stop <= start`` is refused where it enters, by ``make_records``,
the log writer and synthesis alike), a person in two places at once and
verbatim duplicate records; persons 0 and n−1 are always among the
centres.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ego_from_parts, ego_network
from repro.core import TileCache, synthesize_from_logs
from repro.evlog import make_records, write_rank_logs
from repro.service import NetworkQueryService, ServiceClient, ServiceConfig
from tests._oracle import brute_force_adjacency, brute_force_ego
from tests.core.conftest import IMPLS, use_impl

T0, T1 = 6, 174  # unaligned on 24 h tiles: a fringe at each end
SPAN = 192
PLACES = (0, 1, 2, 3, 7)
#: place 7 is only ever visited outside the window
EMPTY_PLACE = 7


@st.composite
def worlds(draw):
    """``(per-rank records, n_persons, centres)`` over ``[0, SPAN)``."""
    n = draw(st.sampled_from([5, 9, 14]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    isolated = draw(st.integers(1, n - 2))  # never 0 or n-1
    m = draw(st.integers(6, 40))
    person = rng.choice(np.setdiff1d(np.arange(n), [isolated]), m)
    place = np.array(PLACES[:-1])[rng.integers(0, len(PLACES) - 1, m)]
    start = rng.integers(0, SPAN - 1, m)
    stop = np.minimum(start + rng.integers(1, 80, m), SPAN)
    # a person in two places at once: the first spell again, elsewhere
    person = np.r_[person, person[0]]
    place = np.r_[place, (place[0] + 1) % 4]
    start, stop = np.r_[start, start[0]], np.r_[stop, stop[0]]
    # spells with no hour inside the window: one ending on T0, one
    # starting on T1, and the empty place's visitors
    edge = rng.choice(person, 4)
    person = np.r_[person, edge]
    place = np.r_[place, place[:2], [EMPTY_PLACE] * 2]
    start = np.r_[start, [0, T1, 0, T1]]
    stop = np.r_[stop, [T0, SPAN, T0, SPAN]]
    # verbatim duplicates
    pick = np.r_[np.arange(len(person)), rng.integers(0, len(person), len(person) // 5)]
    n_ranks = draw(st.integers(1, 3))
    rank = np.searchsorted(PLACES, place[pick]) % n_ranks
    per_rank = [
        make_records(
            start[pick][rank == r],
            stop[pick][rank == r],
            person[pick][rank == r],
            np.zeros(int((rank == r).sum()), dtype=np.uint32),
            place[pick][rank == r],
        )
        for r in range(n_ranks)
    ]
    centres = sorted({0, n - 1, isolated, draw(st.integers(0, n - 1))})
    return per_rank, n, centres


def truth(per_rank, n):
    rec = np.concatenate(per_rank)
    return brute_force_adjacency(
        rec["person"], rec["place"], rec["start"], rec["stop"], n, T0, T1
    )


def assert_matches(ego, want_persons, want_weights):
    """Same persons; a canonical symmetric int64 CSR of the same weights."""
    assert np.array_equal(ego.persons, want_persons)
    got = ego.matrix
    want = sp.csr_matrix(want_weights)
    assert got.shape == want.shape and got.data.dtype == np.int64
    assert got.has_canonical_format and got.data.all()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@settings(deadline=None, max_examples=40)
@given(worlds())
def test_ego_network_and_cached_parts_match_brute_force(world):
    per_rank, n, centres = world
    adjacency = truth(per_rank, n)
    with tempfile.TemporaryDirectory() as logs:
        write_rank_logs(logs, per_rank)
        for impl in IMPLS:
            with use_impl(impl):
                net, _ = synthesize_from_logs(logs, n, T0, T1)
                with TileCache(logs, n, tile_hours=24) as cache:
                    parts = cache.window_parts(T0, T1)
                    assert len(parts) > 1
                    for centre in centres:
                        for radius in range(4):
                            want = brute_force_ego(adjacency, centre, radius)
                            assert_matches(ego_network(net, centre, radius), *want)
                            assert_matches(
                                ego_from_parts(parts, centre, radius), *want
                            )


@settings(deadline=None, max_examples=8)
@given(worlds())
def test_service_ego_replies_match_brute_force(world):
    per_rank, n, centres = world
    adjacency = truth(per_rank, n)

    async def replies(logs):
        service = NetworkQueryService(
            logs, n, config=ServiceConfig(port=0, tile_hours=24, prefetch_tiles=0)
        )
        async with service:
            async with ServiceClient(port=service.port) as client:
                return {
                    (centre, radius): await client.query_ego(centre, T0, T1, radius)
                    for centre in centres
                    for radius in (1, 2, 3)
                }

    with tempfile.TemporaryDirectory() as logs:
        write_rank_logs(logs, per_rank)
        for impl in IMPLS:
            with use_impl(impl):
                got = asyncio.run(replies(Path(logs)))
            for (centre, radius), ego in got.items():
                assert ego.center == centre and ego.radius == radius
                assert_matches(ego, *brute_force_ego(adjacency, centre, radius))
