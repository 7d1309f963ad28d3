"""Place-sharded synthesis: the bit-identity property suite.

The whole sharding design rests on one algebraic fact: every log record
belongs to exactly one place, so the adjacency is additive over any
place partition — ``A = Σ_s A_s`` — and the canonical upper-triangular
CSR of a sum is unique.  The plan hands out whole groups of files that
share a window place, so no shard ever gets part of a place.  These tests
assert the strong form of that contract: for every shard count, on
place-local rank logs and on records scattered over files at random, the
sharded pipeline's CSR triple (``data``/``indices``/``indptr``) is
**exactly** the single-process kernel's and the brute-force oracle's,
including on both kernel implementations and through quarantine paths.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synthesize_from_logs
from repro.core.balance import lpt_partition
from repro.core.intervals import file_pack
from repro.distrib.shardsynth import (
    ShardPlan,
    plan_shards,
    shard_synthesize,
)
from repro.errors import LogCorruptError, LogTruncatedError, SynthesisError
from repro.evlog import LogReader, write_rank_logs
from repro.evlog.multifile import rank_log_path
from repro.obs import MetricsRegistry, set_default_registry
from tests._oracle import brute_force_adjacency
from tests.core.conftest import IMPLS, use_impl
from tests.core.test_kernel_equivalence import (
    N_PERSONS,
    T0,
    T1,
    csr_identical,
    tricky_records,
    write_tricky_logs,
)

SHARD_COUNTS = (1, 2, 4, 7)


@pytest.fixture(scope="module")
def shard_logs(tmp_path_factory):
    """Six rank files with disjoint place ranges — shardable locality."""
    return write_tricky_logs(tmp_path_factory.mktemp("shard-logs"), seed=77)


@pytest.fixture(scope="module")
def reference(shard_logs):
    net, _ = synthesize_from_logs(shard_logs, N_PERSONS, T0, T1)
    return net


def window_places(path, t0, t1) -> set[int]:
    """The places a log file has records for inside ``[t0, t1)``."""
    with LogReader(path) as reader:
        rec = reader.read_all()
    live = (rec["start"] < t1) & (rec["stop"] > t0)
    return set(rec["place"][live].tolist())


def assert_whole_places(plan: ShardPlan) -> None:
    """Every intact file is walked by exactly one shard, and files that
    share a window place share that shard."""
    owner = {}
    for shard, files in enumerate(plan.shard_files):
        for path in files:
            assert path not in owner, path
            owner[path] = shard
    assert sorted(owner) == sorted(plan.paths)
    place_owner = {}
    for path, shard in owner.items():
        for place in window_places(path, plan.t0, plan.t1):
            assert place_owner.setdefault(place, shard) == shard, place


class TestShardBitIdentity:
    """The tentpole contract: any shard count, same CSR."""

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_matches_single_process(self, shard_logs, reference, n_shards):
        net, report = shard_synthesize(
            shard_logs, N_PERSONS, T0, T1, n_shards=n_shards
        )
        assert csr_identical(net.adjacency, reference.adjacency)
        assert report.n_shards == n_shards
        assert len(report.shard_records) == n_shards
        assert report.imbalance >= 1.0

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_masked_backend_identity(self, shard_logs, reference, n_shards):
        """The shard leg is bit-identical on the C kernels and on their
        twins (the forked shards inherit the pinned implementation)."""
        for impl in IMPLS:
            with use_impl(impl):
                net, _ = shard_synthesize(
                    shard_logs, N_PERSONS, T0, T1, n_shards=n_shards
                )
            assert csr_identical(net.adjacency, reference.adjacency)

    def test_reduce_is_order_independent(self, shard_logs, reference):
        """The same files handed to the shards in reverse order: the
        canonical reduce erases the difference completely."""
        plan = plan_shards(shard_logs, 4, T0, T1)
        reversed_plan = replace(plan, shard_files=plan.shard_files[::-1])
        a, _ = shard_synthesize(shard_logs, N_PERSONS, T0, T1, shard_plan=plan)
        b, _ = shard_synthesize(
            shard_logs, N_PERSONS, T0, T1, shard_plan=reversed_plan
        )
        assert csr_identical(a.adjacency, b.adjacency)
        assert csr_identical(a.adjacency, reference.adjacency)


@st.composite
def scattered_logs(draw):
    """Records dealt over 1–6 files at random, so places span files; some
    draws leave files empty, and one more empty file may follow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rec = tricky_records(rng, n_records=draw(st.sampled_from([20, 80, 200])))
    n_files = draw(st.integers(1, 6))
    home = rng.integers(0, n_files, len(rec))
    per_file = [rec[home == f] for f in range(n_files)]
    if draw(st.booleans()):
        per_file.append(rec[:0])
    t0 = draw(st.sampled_from([T0, 13, 40]))
    t1 = draw(st.sampled_from([T1, t0 + 1, t0 + 30]))
    return per_file, t0, t1


@settings(deadline=None, max_examples=30)
@given(scattered_logs(), st.integers(1, 5))
def test_scattered_logs_match_single_process_and_oracle(world, n_shards):
    """Logs that are not place-local: the plan groups the files that share
    a window place, so the sharded sum still equals direct synthesis and
    the brute-force reading of the paper's definition."""
    per_file, t0, t1 = world
    rec = np.concatenate(per_file)
    truth = brute_force_adjacency(
        rec["person"], rec["place"], rec["start"], rec["stop"], N_PERSONS, t0, t1
    )
    with tempfile.TemporaryDirectory() as logs:
        write_rank_logs(logs, per_file)
        plan = plan_shards(logs, n_shards, t0, t1)
        assert plan.n_shards == n_shards
        assert_whole_places(plan)
        single, _ = synthesize_from_logs(logs, N_PERSONS, t0, t1)
        sharded, report = shard_synthesize(
            logs, N_PERSONS, t0, t1, shard_plan=plan
        )
    assert csr_identical(single.adjacency, truth)
    assert csr_identical(sharded.adjacency, truth)
    assert report.n_records == sum(
        int(((r["start"] < t1) & (r["stop"] > t0)).sum()) for r in per_file
    )


class TestShardPlan:
    def test_plan_reuse_and_subwindow(self, shard_logs, reference):
        plan = plan_shards(shard_logs, 4, T0, T1)
        assert plan.n_shards == 4
        # full window through the precomputed plan
        net, _ = shard_synthesize(
            shard_logs, N_PERSONS, T0, T1, shard_plan=plan
        )
        assert csr_identical(net.adjacency, reference.adjacency)
        # a sub-window reuses the file assignment
        sub, _ = shard_synthesize(
            shard_logs, N_PERSONS, T0 + 24, T1 - 24, shard_plan=plan
        )
        direct, _ = synthesize_from_logs(
            shard_logs, N_PERSONS, T0 + 24, T1 - 24
        )
        assert csr_identical(sub.adjacency, direct.adjacency)

    def test_plan_rejects_wider_window(self, shard_logs):
        plan = plan_shards(shard_logs, 2, T0 + 24, T1 - 24)
        with pytest.raises(SynthesisError, match="cannot serve"):
            shard_synthesize(shard_logs, N_PERSONS, T0, T1, shard_plan=plan)

    def test_partition_covers_every_place_once(self, shard_logs):
        plan = plan_shards(shard_logs, 4, T0, T1)
        assert_whole_places(plan)
        assert plan.imbalance >= 1.0
        # six similar rank files over four shards: LPT keeps it under 2x
        assert plan.imbalance < 2.0

    def test_file_skipping_uses_place_locality(self, shard_logs):
        """Rank logs are place-disjoint, so each rank file is its own
        group: every shard gets whole files, LPT-balanced by their work,
        and no file is read twice."""
        plan = plan_shards(shard_logs, 4, T0, T1)
        per_shard = [len(files) for files in plan.shard_files]
        assert sum(per_shard) == len(plan.paths) == 6
        assert all(n >= 1 for n in per_shard)
        work = [file_pack(path, T0, T1)[0].work for path in plan.paths]
        buckets, balance = lpt_partition(work, 4)
        assert np.array_equal(plan.balance.loads, balance.loads)
        assert [sorted(plan.paths[i] for i in b) for b in buckets] == [
            sorted(files) for files in plan.shard_files
        ]

    def test_more_shards_than_files_leaves_shards_idle(self, shard_logs, reference):
        net, report = shard_synthesize(
            shard_logs, N_PERSONS, T0, T1, n_shards=8
        )
        assert csr_identical(net.adjacency, reference.adjacency)
        assert report.shard_records.count(0) == 2
        assert report.imbalance > 1.0


class TestShardQuarantine:
    def _corrupt(self, path):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_quarantine_matches_single_process(self, tmp_path):
        logs = write_tricky_logs(tmp_path / "logs", seed=41)
        bad = rank_log_path(logs, 2)
        self._corrupt(bad)
        single, rep_s = synthesize_from_logs(logs, N_PERSONS, T0, T1)
        sharded, rep = shard_synthesize(logs, N_PERSONS, T0, T1, n_shards=3)
        assert rep_s.quarantined == [str(bad)]
        assert rep.quarantined == [str(bad)]
        assert csr_identical(single.adjacency, sharded.adjacency)

    def test_plan_quarantines_what_direct_synthesis_quarantines(self, tmp_path):
        """One per-file unit, one verdict: a flipped byte and a cut trailer
        are skipped whole by the plan scan and by the pipeline alike, for
        every window — also one the damage sits outside of."""
        logs = write_tricky_logs(tmp_path / "logs", seed=43)
        flipped, torn = rank_log_path(logs, 1), rank_log_path(logs, 4)
        self._corrupt(flipped)
        torn.write_bytes(torn.read_bytes()[:-7])
        for t0, t1 in [(T0, T1), (13, 14), (900, 950)]:
            _, report = synthesize_from_logs(logs, N_PERSONS, t0, t1)
            plan = plan_shards(logs, 2, t0, t1)
            assert plan.quarantined == report.quarantined == [
                str(flipped), str(torn)
            ]
            assert [Path(p).name for p in plan.paths] == [
                f"rank_{r:04d}.evl" for r in (0, 2, 3, 5)
            ]

    def test_strict_raises(self, tmp_path):
        """The file's own error class and message, not re-wrapped, from
        the pipeline, the plan scan and the sharded run alike."""
        for damage, error in (("flip", LogCorruptError), ("cut", LogTruncatedError)):
            logs = write_tricky_logs(tmp_path / damage, seed=42)
            bad = rank_log_path(logs, 1)
            if damage == "flip":
                self._corrupt(bad)
            else:
                bad.write_bytes(bad.read_bytes()[:-7])
            raised = []
            for run in (
                lambda: synthesize_from_logs(logs, N_PERSONS, T0, T1, strict=True),
                lambda: plan_shards(logs, 2, T0, T1, strict=True),
                lambda: shard_synthesize(
                    logs, N_PERSONS, T0, T1, n_shards=2, strict=True
                ),
            ):
                with pytest.raises(error) as err:
                    run()
                assert type(err.value) is error
                raised.append(str(err.value))
            assert len(set(raised)) == 1 and raised[0].startswith(f"{bad}: ")


class TestShardMetrics:
    def test_registry_gets_shard_series(self, shard_logs):
        mine = MetricsRegistry()
        prev = set_default_registry(mine)
        try:
            _, report = shard_synthesize(
                shard_logs, N_PERSONS, T0, T1, n_shards=3
            )
        finally:
            set_default_registry(prev)
        snap = mine.snapshot()
        assert snap["counters"]["shard.records"] == report.n_records
        assert snap["counters"]["shard.nnz"] == sum(report.shard_nnz)
        assert snap["counters"]["shard.reduce_seconds"] >= 0.0
        assert snap["gauges"]["shard.count"] == 3
        assert snap["gauges"]["shard.imbalance"] == pytest.approx(
            report.imbalance
        )
        for s in range(3):
            assert snap["gauges"][f"shard.{s}.records"] == (
                report.shard_records[s]
            )

    def test_report_summary_mentions_every_shard(self, shard_logs):
        _, report = shard_synthesize(shard_logs, N_PERSONS, T0, T1, n_shards=2)
        text = report.summary()
        assert "shard 0" in text and "shard 1" in text
        assert f"{report.n_records:,}" in text
