"""Ground truth for composed windows: the tile cache and the shard reduce
held to the brute-force oracle.

Every window :class:`~repro.core.tilecache.TileCache` composes — aligned
tiles plus fringes, windows straddling tile and fringe edges, under an nnz
budget tight enough to evict on every insert, out of a persisted store
reopened by a second cache, and over every place or only those a place
mask admits (a place-kind layer) — and every :func:`shard_synthesize` reduce over
1, 2 and 3 shards must equal ``tests/_oracle.py``'s reading of the paper's
definition over the same records, on both kernel implementations.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import TileCache
from repro.distrib import shard_synthesize
from repro.evlog import write_rank_logs
from tests._oracle import brute_force_adjacency
from tests.core.conftest import IMPLS, use_impl
from tests.core.test_ground_truth import MASKABLE_PLACES, N_PERSONS, SPAN, U32, worlds
from tests.core.test_kernel_equivalence import csr_identical


@st.composite
def windows(draw, world_window):
    """The world's own window plus up to three more anywhere in its span,
    of lengths that straddle 1, 4 and 24 hour tiles."""
    t0, t1 = world_window
    base = 0 if t0 < U32 // 2 else U32 - SPAN
    out = [(t0, t1)]
    for _ in range(draw(st.integers(0, 3))):
        start = base + draw(st.integers(0, SPAN - 1))
        length = draw(st.sampled_from([1, 3, 5, 23, 25, 48, SPAN]))
        out.append((start, min(start + length, base + SPAN)))
    return out


def truths(per_rank, wins, place_mask=None):
    rec = np.concatenate(per_rank)
    if place_mask is not None:
        rec = rec[place_mask[rec["place"]]]
    return {
        w: brute_force_adjacency(
            rec["person"], rec["place"], rec["start"], rec["stop"], N_PERSONS, *w
        )
        for w in wins
    }


@settings(deadline=None, max_examples=40)
@given(
    st.data(),
    st.none() | st.lists(
        st.booleans(), min_size=len(MASKABLE_PLACES), max_size=len(MASKABLE_PLACES)
    ),
    st.sampled_from([1, 4, 24]),
    st.sampled_from([1, 16]),
)
def test_tile_cache_matches_brute_force(data, admitted, tile_hours, budget):
    """Unbounded, tightly budgeted and reopened-from-disk caches — over
    every place, or over the places a mask admits (what a service layer
    holds) — answer every window twice, so the second pass composes
    cached partials, exactly as the oracle does over the admitted
    places' records."""
    # a mask is an array over place ids: a masked world keeps its ids
    # small, an unmasked one keeps the uint32 edge
    mask = None
    if admitted is None:
        per_rank, t0, t1 = data.draw(worlds())
    else:
        per_rank, t0, t1 = data.draw(worlds(places=MASKABLE_PLACES))
        mask = np.zeros(MASKABLE_PLACES[-1] + 1, dtype=bool)
        mask[np.array(MASKABLE_PLACES)[admitted]] = True
    wins = data.draw(windows((t0, t1)))
    truth = truths(per_rank, wins, mask)
    with tempfile.TemporaryDirectory() as tmp:
        logs, store = Path(tmp, "logs"), Path(tmp, "store")
        write_rank_logs(logs, per_rank)
        for impl in IMPLS:
            with use_impl(impl):
                for budget_nnz in (None, budget):
                    with TileCache(
                        logs, N_PERSONS, tile_hours=tile_hours,
                        budget_nnz=budget_nnz, place_mask=mask,
                    ) as cache:
                        for w in wins + wins:
                            net = cache.query_window(*w)
                            assert csr_identical(net.adjacency, truth[w]), (impl, w)
                        if budget_nnz is not None:
                            assert cache.cached_nnz <= budget_nnz
                with TileCache(
                    logs, N_PERSONS, tile_hours=tile_hours,
                    cache_dir=store / impl, place_mask=mask,
                ) as cache:
                    for w in wins:
                        cache.query_window(*w)
                with TileCache(
                    logs, N_PERSONS, tile_hours=tile_hours,
                    cache_dir=store / impl, place_mask=mask,
                ) as reopened:
                    for w in wins:
                        net = reopened.query_window(*w)
                        assert csr_identical(net.adjacency, truth[w]), (impl, w)
                    assert reopened.stats.tiles_built == 0


@settings(deadline=None, max_examples=10)
@given(worlds(places=MASKABLE_PLACES))
def test_shard_reduce_matches_brute_force(world):
    """The summed partials of 1, 2 and 3 forked shards == the oracle."""
    per_rank, t0, t1 = world
    rec = np.concatenate(per_rank)
    assume(((rec["start"] < t1) & (rec["stop"] > t0)).any())
    truth = truths(per_rank, [(t0, t1)])[(t0, t1)]
    with tempfile.TemporaryDirectory() as logs:
        write_rank_logs(logs, per_rank)
        for impl in IMPLS:
            with use_impl(impl):
                for n_shards in (1, 2, 3):
                    net, _report = shard_synthesize(
                        logs, N_PERSONS, t0, t1, n_shards=n_shards
                    )
                    assert csr_identical(net.adjacency, truth), (impl, n_shards)
