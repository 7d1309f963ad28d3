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

The service's other replies over the same worlds are held to the same
oracle: ``window`` to the brute-force adjacency, ``layer`` to brute
force over the records at places of that kind (place kinds drawn per
world), and ``degrees`` to the histogram read off the brute-force
adjacency.

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
from repro.synthpop.places import LAYER_KINDS, PlaceKind, PlaceTable
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


def truth(per_rank, n, keep=None):
    """Brute force over every record, or those at places where ``keep``
    (indexed by place id) is true."""
    rec = np.concatenate(per_rank)
    if keep is not None:
        rec = rec[keep[rec["place"]]]
    return brute_force_adjacency(
        rec["person"], rec["place"], rec["start"], rec["stop"], n, T0, T1
    )


def histogram(adjacency):
    """``(degrees, counts, n_isolated)`` read off the dense symmetric form."""
    dense = adjacency.toarray()
    degree = np.count_nonzero(dense + dense.T, axis=1)
    values, counts = np.unique(degree[degree > 0], return_counts=True)
    return values.tolist(), counts.tolist(), int(np.sum(degree == 0))


def assert_same_csr(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def assert_matches(ego, want_persons, want_weights):
    """Same persons; a canonical symmetric int64 CSR of the same weights."""
    assert np.array_equal(ego.persons, want_persons)
    got = ego.matrix
    assert got.data.dtype == np.int64
    assert got.has_canonical_format and got.data.all()
    assert_same_csr(got, sp.csr_matrix(want_weights))


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
            logs, n, config=ServiceConfig(port=0, tile_hours=24)
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


@settings(deadline=None, max_examples=8)
@given(
    worlds(),
    st.lists(st.sampled_from(PlaceKind), min_size=PLACES[-1] + 1,
             max_size=PLACES[-1] + 1),
)
def test_service_window_layer_and_degree_replies_match_brute_force(
    world, kinds
):
    per_rank, n, _centres = world
    kind = np.array(kinds, dtype=np.uint8)
    places = PlaceTable(
        kind=kind, x=np.zeros(len(kind)), y=np.zeros(len(kind)),
        capacity=np.ones(len(kind)),
    )
    adjacency = truth(per_rank, n)
    layers = {
        name: truth(per_rank, n, keep=kind == int(PlaceKind[name.upper()]))
        for name in LAYER_KINDS
    }

    async def replies(logs):
        service = NetworkQueryService(
            logs, n, places=places, config=ServiceConfig(port=0, tile_hours=24)
        )
        async with service:
            async with ServiceClient(port=service.port) as client:
                return (
                    await client.query_window(T0, T1),
                    {
                        name: await client.query_layer(name, T0, T1)
                        for name in LAYER_KINDS
                    },
                    await client.degree_summary(T0, T1),
                )

    with tempfile.TemporaryDirectory() as logs:
        write_rank_logs(logs, per_rank)
        for impl in IMPLS:
            with use_impl(impl):
                net, layer_nets, summary = asyncio.run(replies(Path(logs)))
            assert_same_csr(net.adjacency, adjacency)
            for name, layer in layer_nets.items():
                assert_same_csr(layer.adjacency, layers[name])
            degrees, counts, n_isolated = histogram(adjacency)
            assert summary["degrees"] == degrees
            assert summary["counts"] == counts
            assert summary["n_isolated"] == n_isolated
            assert summary["n_vertices"] == n
            assert summary["n_edges"] == adjacency.nnz
            assert summary["total_weight"] == int(adjacency.sum())
