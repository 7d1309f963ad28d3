"""Ground truth beyond self-agreement.

Bit-identity between our own paths only proves they agree with each
other.  Here production (under each kernel implementation) **and** the
dense-hours oracle are held to ``benchmarks/e2e/oracle.py`` — a 50-line
brute-force reading of the paper's definition (``A = Σ_places x·xᵀ``,
pair-hours, strict upper triangle) that shares no code with
``repro.core`` — on generated logs: spells clipped by both window edges,
a person in two places in one hour, verbatim duplicates, single-person
places, empty rank files, uint32 extremes.  The oracle file is loaded by
path, read-only: it belongs to the frozen benchmark.

The masked window builder a tile, a fringe and a shard share is held to
the same oracle, restricted to the places the mask admits; and a
from-logs run — any batch size, inline or on threads, places split
across files — to one fold per batch.
"""

from __future__ import annotations

import importlib.util
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TileCache, synthesize_from_logs, synthesize_network
from repro.core.intervals import window_partial
from repro.distrib import TaskPool
from repro.evlog import LogSet, make_records, write_rank_logs
from repro.evlog.multifile import rank_log_path
from tests.core import _reference_value_dispatch as reference
from tests.core.conftest import IMPLS, use_impl
from tests.core.test_kernel_equivalence import csr_identical

_ORACLE = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "oracle.py"
_spec = importlib.util.spec_from_file_location("e2e_oracle", _ORACLE)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)
brute_force_adjacency = _oracle.brute_force_adjacency

U32 = 2**32 - 1
N_PERSONS = 6
SPAN = 70  # generated hours, relative to the world's base hour
#: few persons and places, so rosters overlap, one person is in two
#: places at once and some places see one person only; the last place id
#: sits on the uint32 edge
PLACES = (0, 1, 5, 9, U32)
#: the same shape under a place mask, which is an array over place ids
MASKABLE_PLACES = (0, 1, 5, 9, 12)


@st.composite
def worlds(draw, places=PLACES, split_places=False):
    """``(per-rank records, t0, t1)``: spells over ``[base, base + SPAN]``
    with a window strictly inside, so both of its edges clip some.
    Hypothesis picks the shape; the spells come from a seeded generator,
    which fills rosters far more densely than drawn lists do.  With
    *split_places* every other place's records are dealt across all the
    rank files instead of staying in one."""
    base = draw(st.sampled_from([0, U32 - SPAN]))
    t0 = draw(st.integers(5, 25))
    t1 = t0 + draw(st.sampled_from([1, 7, 24, 40]))
    n_ranks = draw(st.integers(1, 7))
    n = draw(st.sampled_from([12, 30, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    pick = rng.integers(0, n, n + n // 4)  # a fifth are verbatim duplicates
    person = rng.integers(0, N_PERSONS, n)[pick]
    place = np.array(places, dtype=np.int64)[rng.integers(0, len(places), n)][pick]
    start = rng.integers(0, SPAN, n)[pick]
    stop = np.minimum(start + rng.integers(1, 60, n)[pick], SPAN)
    # a place's records stay in one rank file, like the distributed
    # model's logs; a rank no place maps to writes an empty file
    rank = np.searchsorted(places, place) % n_ranks
    if split_places:
        dealt = np.searchsorted(places, place) % 2 == 0
        rank = np.where(dealt, rng.integers(0, n_ranks, len(rank)), rank)
    per_rank = [
        make_records(
            base + start[rank == r],
            base + stop[rank == r],
            person[rank == r],
            np.zeros(int((rank == r).sum()), dtype=np.uint32),
            place[rank == r],
        )
        for r in range(n_ranks)
    ]
    return per_rank, base + t0, base + t1


@settings(deadline=None, max_examples=60)
@given(worlds())
def test_production_and_oracle_match_brute_force(world):
    per_rank, t0, t1 = world
    rec = np.concatenate(per_rank)
    truth = brute_force_adjacency(
        rec["person"], rec["place"], rec["start"], rec["stop"], N_PERSONS, t0, t1
    )
    with tempfile.TemporaryDirectory() as logs:
        write_rank_logs(logs, per_rank)
        dense, _ = reference.synthesize_from_logs(
            logs, N_PERSONS, t0, t1, kernel="dense-hours"
        )
        assert csr_identical(dense.adjacency, truth)
        for impl in IMPLS:
            with use_impl(impl):
                from_logs, _ = synthesize_from_logs(logs, N_PERSONS, t0, t1)
                in_memory, _ = synthesize_network(rec, N_PERSONS, t0, t1)
            assert csr_identical(from_logs.adjacency, truth), impl
            assert csr_identical(in_memory.adjacency, truth), impl


@settings(deadline=None, max_examples=40)
@given(
    worlds(places=MASKABLE_PLACES),
    st.lists(st.booleans(), min_size=len(MASKABLE_PLACES), max_size=len(MASKABLE_PLACES)),
    # one-hour tiles align every window (a single hour is one tile), 4 h
    # tiles align a few and straddle most, a 24 h tile holds or straddles
    st.sampled_from([1, 4, 24]),
)
def test_masked_window_partial_matches_brute_force(world, admitted, tile_hours):
    """The shared builder over the files that mention admitted places ==
    a place-masked tile cache == direct synthesis of the admitted places'
    records == the brute-force oracle over them, inline and on threads."""
    per_rank, t0, t1 = world
    mask = np.zeros(MASKABLE_PLACES[-1] + 1, dtype=bool)
    mask[np.array(MASKABLE_PLACES)[admitted]] = True
    kept = [rec[mask[rec["place"]]] for rec in per_rank]
    rec = np.concatenate(kept)
    truth = brute_force_adjacency(
        rec["person"], rec["place"], rec["start"], rec["stop"], N_PERSONS, t0, t1
    )
    with tempfile.TemporaryDirectory() as tmp:
        logs, kept_logs = Path(tmp, "all"), Path(tmp, "admitted")
        write_rank_logs(logs, per_rank)
        write_rank_logs(kept_logs, kept)
        files = [rank_log_path(logs, r) for r in range(len(kept)) if len(kept[r])]
        for impl in IMPLS:
            with use_impl(impl):
                partial, n_records, _walks = window_partial(
                    files, t0, t1, N_PERSONS, mask
                )
                assert csr_identical(partial, truth), impl
                in_window = (rec["start"] < t1) & (rec["stop"] > t0)
                assert n_records == int(in_window.sum())
                for workers in (1, 2, 3):
                    with TaskPool(workers) as pool:
                        with TileCache(
                            logs, N_PERSONS, tile_hours=tile_hours,
                            pool=pool, place_mask=mask,
                        ) as cache:
                            tiled = cache.query_window(t0, t1)
                        direct, _ = synthesize_from_logs(
                            kept_logs, N_PERSONS, t0, t1, pool=pool
                        )
                    assert csr_identical(tiled.adjacency, truth), (impl, workers)
                    assert csr_identical(direct.adjacency, truth), (impl, workers)


@settings(deadline=None, max_examples=40)
@given(worlds(split_places=True), st.integers(1, 8))
def test_from_logs_is_one_fold_per_batch(world, batch_size):
    """``synthesize_from_logs`` inline == on 2 / 3 threads == the shared
    window builder over each batch's files, summed == the brute-force
    oracle over each batch's records, summed — for places split across the
    files of a batch (union-merged by the fold) and across batch
    boundaries (batches are independent by contract: what a split place's
    persons share across the boundary is nobody's)."""
    per_rank, t0, t1 = world
    with tempfile.TemporaryDirectory() as logs:
        write_rank_logs(logs, per_rank)
        batches = list(LogSet(logs).batches(batch_size))
        truth = None
        for batch in batches:
            rec = np.concatenate(
                [per_rank[int(path.stem.split("_")[1])] for path in batch]
            )
            part = brute_force_adjacency(
                rec["person"], rec["place"], rec["start"], rec["stop"],
                N_PERSONS, t0, t1,
            )
            truth = part if truth is None else truth + part
        for impl in IMPLS:
            with use_impl(impl):
                folded = None
                for batch in batches:
                    part, _n, _walks = window_partial(batch, t0, t1, N_PERSONS)
                    folded = part if folded is None else folded + part
                assert csr_identical(folded, truth), impl
                for workers in (1, 2, 3):
                    with TaskPool(workers) as pool:
                        net, report = synthesize_from_logs(
                            logs, N_PERSONS, t0, t1,
                            batch_size=batch_size, pool=pool,
                        )
                    assert csr_identical(net.adjacency, truth), (impl, workers)
                    assert report.batches == len(batches)
