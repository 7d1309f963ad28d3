"""Equivalence contract between the oracle and production, and between
the production record path and the by-value reference it replaced.

The oracle is ``reference.synthesize_*(kernel="dense-hours")``: struct
records → ``records_by_place`` → ``collocation_matrix_for_place`` → scipy
``x·xᵀ`` — the paper's per-hour formulation, no interval pack, no C.
Production (interval packs, the C kernels or their numpy/scipy twins —
the ``impl`` axis) must produce **bit-identical** upper-triangular CSR
adjacencies — same ``data``, ``indices`` and ``indptr`` — on any input,
including the awkward ones: overlapping spells, re-entries, duplicate
person/hour records, single-person places, and empty slices.  Likewise
the per-file walk (production, "zero-copy") and the pre-change by-value
body (``_reference_value_dispatch``, "value") must be indistinguishable
in output, including through checkpoint/resume and quarantine paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import synthesize_from_logs, synthesize_network
from repro.core.adjacency import sum_adjacency_list
from repro.core.colloc import build_collocation_matrices, merge_collocations
from repro.core.intervals import (
    build_interval_pack,
    merge_packs,
    select_pack_places,
    sum_pack_adjacency,
)
from repro.core.slicing import slice_records
from repro.distrib import TaskPool
from repro.errors import LogCorruptError
from repro.evlog import LogSet, make_records, write_rank_logs
from repro.evlog.multifile import rank_log_path
from tests._faults import FlakyPool, WorkerCrash
from tests.core import _reference_value_dispatch as reference


def oracle_from_logs(*args, **kwargs):
    return reference.synthesize_from_logs(*args, kernel="dense-hours", **kwargs)


#: every way to run a from-logs synthesis, by (kernel, record path): the
#: oracle, the pre-change by-value body of the interval arithmetic, and
#: the one production path
RUNS = {
    ("dense-hours", "value"): oracle_from_logs,
    ("intervals", "value"): reference.synthesize_from_logs,
    ("intervals", "zero-copy"): synthesize_from_logs,
}

N_PERSONS = 150
N_PLACES = 50
T0, T1 = 0, 96


def csr_identical(a, b):
    """Bit-for-bit CSR equality — the contract, not mere closeness."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a.data, b.data)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


def tricky_records(rng, n_records=600, t_max=120):
    """Random logs deliberately exercising kernel edge cases.

    Includes overlapping spells (same person/place, overlapping windows),
    re-entries (leave and come back), verbatim duplicate records, and a
    guaranteed single-person place.
    """
    start = rng.integers(0, t_max - 1, n_records).astype(np.uint32)
    stop = start + rng.integers(1, 12, n_records).astype(np.uint32)
    person = rng.integers(0, N_PERSONS, n_records).astype(np.uint32)
    place = rng.integers(0, N_PLACES - 1, n_records).astype(np.uint32)

    # verbatim duplicates: same (person, place, hours) recorded twice
    dup = rng.integers(0, n_records, max(1, n_records // 5))
    # overlapping spell for the duplicated rows, shifted to intersect
    ov_start = np.maximum(start[dup].astype(np.int64) - 2, 0).astype(np.uint32)
    ov_stop = (stop[dup] + np.uint32(3)).astype(np.uint32)
    # re-entry: same person/place again after a gap
    re_start = (stop[dup] + np.uint32(5)).astype(np.uint32)
    re_stop = re_start + np.uint32(2)

    start = np.concatenate([start, start[dup], ov_start, re_start])
    stop = np.concatenate([stop, stop[dup], ov_stop, re_stop])
    person = np.concatenate([person] + [person[dup]] * 3)
    place = np.concatenate([place] + [place[dup]] * 3)

    # single-person place: one lonely visitor at the last place id
    start = np.append(start, np.uint32(3))
    stop = np.append(stop, np.uint32(40))
    person = np.append(person, np.uint32(0))
    place = np.append(place, np.uint32(N_PLACES - 1))

    activity = rng.integers(0, 6, len(start)).astype(np.uint32)
    return make_records(start, stop, person, activity, place)


def write_tricky_logs(directory, seed, n_ranks=6):
    rng = np.random.default_rng(seed)
    # disjoint place ranges per rank keep batch processing exact, matching
    # the locality contract of the distributed model's rank logs
    per_rank = []
    for r in range(n_ranks):
        rec = tricky_records(rng, n_records=200)
        rec["place"] = rec["place"] % (N_PLACES // n_ranks) + r * (
            N_PLACES // n_ranks
        )
        per_rank.append(rec)
    write_rank_logs(directory, per_rank)
    return directory


#: the matrix of ``TestOracleVsProduction``; tricky records reach hour ~135
HORIZON = 140
WINDOWS = {
    "aligned": (0, 48),
    "unaligned": (7, 61),
    "one-hour": (13, 14),
    "whole-horizon": (0, HORIZON),
    "past-the-horizon": (HORIZON + 5, HORIZON + 50),
}
COUNTS = ("n_records", "n_sliced_records", "n_places", "colloc_nnz_total")


@pytest.fixture(scope="module")
def matrix_logs(tmp_path_factory):
    return write_tricky_logs(tmp_path_factory.mktemp("matrix") / "logs", seed=41)


@pytest.fixture(scope="module")
def oracle_runs(matrix_logs):
    return {
        name: oracle_from_logs(matrix_logs, N_PERSONS, t0, t1)
        for name, (t0, t1) in WINDOWS.items()
    }


class TestOracleVsProduction:
    """What is left of the kernel × backend product: the oracle against
    the one production path, under each implementation, for every window
    shape, pool kind and batch size."""

    @pytest.mark.parametrize("batch_size", [1, 2, 16])
    @pytest.mark.parametrize("pool_kind", ["serial", "thread"])
    def test_every_window(
        self, matrix_logs, oracle_runs, impl, pool_kind, batch_size
    ):
        with TaskPool({"serial": 1, "thread": 2}[pool_kind]) as pool:
            for name, (t0, t1) in WINDOWS.items():
                net, report = synthesize_from_logs(
                    matrix_logs, N_PERSONS, t0, t1,
                    batch_size=batch_size, pool=pool,
                )
                oracle_net, oracle_report = oracle_runs[name]
                assert csr_identical(net.adjacency, oracle_net.adjacency), name
                for count in COUNTS:
                    assert getattr(report, count) == getattr(
                        oracle_report, count
                    ), (name, count)
                if report.n_records:
                    assert report.impl == impl


class TestKernelBitIdentity:
    """Same records, oracle and production, identical CSR triple."""

    @pytest.mark.parametrize("seed", range(8))
    def test_pipeline_identity_random_logs(self, seed):
        rec = tricky_records(np.random.default_rng(seed))
        dense, _ = reference.synthesize_network(
            rec, N_PERSONS, T0, T1, kernel="dense-hours"
        )
        ivals, _ = synthesize_network(rec, N_PERSONS, T0, T1)
        assert csr_identical(dense.adjacency, ivals.adjacency)

    @pytest.mark.parametrize("seed", range(8))
    def test_unit_identity(self, seed):
        """Kernel primitives agree before any pipeline orchestration."""
        rng = np.random.default_rng(100 + seed)
        rec = slice_records(tricky_records(rng), T0, T1)
        mats = build_collocation_matrices(rec, T0, T1)
        pack = build_interval_pack(rec, T0, T1)
        a = sum_adjacency_list(mats, N_PERSONS)
        b = sum_pack_adjacency([pack], N_PERSONS)
        assert csr_identical(a, b)
        # interval work is the true pairwise flop count; segments coalesce
        # hours, so it never exceeds the dense model's
        assert 0 < pack.work <= sum(m.work for m in mats)
        assert pack.person_hours == sum(m.nnz for m in mats)

    @pytest.mark.parametrize("seed", range(4))
    def test_split_merge_roundtrip(self, seed):
        """select_pack_places / merge_packs preserve the adjacency exactly
        for any partition of the place set."""
        rng = np.random.default_rng(200 + seed)
        rec = slice_records(tricky_records(rng), T0, T1)
        pack = build_interval_pack(rec, T0, T1)
        places = pack.places
        cut = rng.permutation(len(places))
        half = len(places) // 2
        left = select_pack_places(pack, places[np.sort(cut[:half])])
        right = select_pack_places(pack, places[np.sort(cut[half:])])
        parts = [p for p in (left, right) if p is not None]
        whole = sum_pack_adjacency([pack], N_PERSONS)
        split = sum_pack_adjacency(parts, N_PERSONS)
        assert csr_identical(whole, split)
        merged = merge_packs(parts)
        assert csr_identical(whole, sum_pack_adjacency([merged], N_PERSONS))

    def test_select_empty_returns_none(self):
        rec = slice_records(tricky_records(np.random.default_rng(0)), T0, T1)
        pack = build_interval_pack(rec, T0, T1)
        assert select_pack_places(pack, np.array([10**6])) is None

    def test_merge_collocations_matches_single_build(self):
        """Per-file dense matrices for a shared place merge to exactly the
        matrix a single concatenated build would produce."""
        rng = np.random.default_rng(7)
        rec = slice_records(tricky_records(rng), T0, T1)
        split = len(rec) // 2
        a = build_collocation_matrices(rec[:split], T0, T1)
        b = build_collocation_matrices(rec[split:], T0, T1)
        whole = build_collocation_matrices(rec, T0, T1)
        by_place: dict = {}
        for m in a + b:
            by_place.setdefault(m.place, []).append(m)
        merged = {
            p: (ms[0] if len(ms) == 1 else merge_collocations(ms))
            for p, ms in by_place.items()
        }
        assert set(merged) == {m.place for m in whole}
        for m in whole:
            got = merged[m.place]
            assert np.array_equal(got.persons, m.persons)
            assert csr_identical(got.matrix, m.matrix)

    def test_empty_slice_window(self):
        """A window with no overlapping records yields the empty network
        from the oracle and from production."""
        rec = tricky_records(np.random.default_rng(3))
        for run in (
            lambda: reference.synthesize_network(
                rec, N_PERSONS, 500, 600, kernel="dense-hours"
            ),
            lambda: synthesize_network(rec, N_PERSONS, 500, 600),
        ):
            net, report = run()
            assert net.adjacency.nnz == 0
            assert report.n_sliced_records == 0


class TestShardIdentity:
    """The place-sharded path joins the bit-identity matrix: for any
    single-process run, the sharded reduce of the same logs yields the
    same CSR triple (adjacency is additive over places; canonical CSRs
    sum canonically)."""

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(("dense-hours", "value"), id="value-dense-hours"),
            pytest.param(("intervals", "value"), id="value-intervals"),
            pytest.param(("intervals", "zero-copy"), id="zero-copy-intervals"),
        ],
    )
    def test_sharded_vs_single_process(self, tmp_path, run):
        from repro.distrib.shardsynth import shard_synthesize

        logs = write_tricky_logs(tmp_path / "logs", seed=21)
        single, _ = RUNS[run](logs, N_PERSONS, T0, T1, batch_size=2)
        sharded, _ = shard_synthesize(logs, N_PERSONS, T0, T1, n_shards=3)
        assert csr_identical(single.adjacency, sharded.adjacency)


class TestDispatchIdentity:
    """The by-value reference and the production walk are
    output-indistinguishable."""

    @pytest.mark.parametrize("kernel", ["dense-hours", "intervals"])
    def test_value_vs_zero_copy(self, tmp_path, kernel):
        logs = write_tricky_logs(tmp_path / "logs", seed=11)
        val, rep_v = reference.synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2, kernel=kernel
        )
        zc, rep_z = synthesize_from_logs(logs, N_PERSONS, T0, T1, batch_size=2)
        assert csr_identical(val.adjacency, zc.adjacency)
        assert rep_v.n_records == rep_z.n_records
        assert rep_v.n_places == rep_z.n_places
        assert rep_v.colloc_nnz_total == rep_z.colloc_nnz_total

    def test_zero_copy_threadpool(self, tmp_path):
        logs = write_tricky_logs(tmp_path / "logs", seed=12)
        base, _ = synthesize_from_logs(logs, N_PERSONS, T0, T1, batch_size=2)
        with TaskPool(3) as pool:
            zc, _ = synthesize_from_logs(
                logs, N_PERSONS, T0, T1, batch_size=2, pool=pool
            )
        assert csr_identical(base.adjacency, zc.adjacency)


class TestCrossConfigResume:
    """A checkpoint written by one way of running is valid under any
    other — the oracle's (the in-tree stand-in for one the parent's
    ``--kernel dense-hours --backend scipy`` left behind) resumes on the
    production path, and production's under the oracle — because the
    digest records neither: outputs are bit-identical."""

    @pytest.mark.parametrize(
        "first,second",
        [
            (("dense-hours", "value"), ("intervals", "zero-copy")),
            (("intervals", "value"), ("intervals", "zero-copy")),
            (("intervals", "zero-copy"), ("dense-hours", "value")),
        ],
    )
    def test_resume_across_configs(self, tmp_path, first, second):
        logs = write_tricky_logs(tmp_path / "logs", seed=21)
        baseline, base_report = synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2
        )

        ckpt = tmp_path / "ckpt"
        # die inside batch 2 (after one committed batch): production maps
        # once per batch (the file tasks), the references twice (unit
        # build + adjacency)
        die_call = 1 if RUNS[first] is synthesize_from_logs else 2
        pool = FlakyPool(TaskPool(), die_on_calls={die_call})
        with pytest.raises(WorkerCrash):
            RUNS[first](
                logs, N_PERSONS, T0, T1, batch_size=2,
                pool=pool, checkpoint=ckpt,
            )
        pool.inner.close()

        resumed, report = RUNS[second](
            logs, N_PERSONS, T0, T1, batch_size=2, resume=ckpt
        )
        assert report.resumed_batches == 1
        assert report.batches == 3
        assert csr_identical(baseline.adjacency, resumed.adjacency)
        for count in COUNTS:
            assert getattr(report, count) == getattr(base_report, count), count


class TestQuarantineParity:
    """The walk's one-CRC-per-byte verdict quarantines exactly the files
    the by-value reference's verify-then-read quarantined, and the
    surviving network is identical."""

    def _corrupt(self, path):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_same_quarantine_same_network(self, tmp_path):
        logs = write_tricky_logs(tmp_path / "logs", seed=31)
        bad = rank_log_path(logs, 2)
        self._corrupt(bad)
        val, rep_v = reference.synthesize_from_logs(
            logs, N_PERSONS, T0, T1, batch_size=2
        )
        zc, rep_z = synthesize_from_logs(logs, N_PERSONS, T0, T1, batch_size=2)
        assert rep_v.quarantined == [str(bad)]
        assert rep_z.quarantined == [str(bad)]
        assert csr_identical(val.adjacency, zc.adjacency)

    @pytest.mark.parametrize("dispatch", ["value", "zero-copy"])
    def test_strict_raises(self, tmp_path, dispatch):
        logs = write_tricky_logs(tmp_path / "logs", seed=32)
        self._corrupt(rank_log_path(logs, 1))
        with pytest.raises(LogCorruptError):
            RUNS["intervals", dispatch](
                logs, N_PERSONS, T0, T1, batch_size=2, strict=True
            )
