"""Place-sharded synthesis: the bit-identity property suite.

The whole sharding design rests on one algebraic fact: every log record
belongs to exactly one place, so the adjacency is additive over any
place partition — ``A = Σ_s A_s`` — and the canonical upper-triangular
CSR of a sum is unique.  These tests assert the strong form of that
contract: for every shard count × partition strategy, the sharded
pipeline's CSR triple (``data``/``indices``/``indptr``) is **exactly**
the single-process kernel's, including through the compiled masked
backend and quarantine paths.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import synthesize_from_logs
from repro.distrib.shardsynth import (
    STRATEGIES,
    plan_shards,
    shard_synthesize,
)
from repro.errors import LogCorruptError, LogTruncatedError, SynthesisError
from repro.evlog.multifile import rank_log_path
from repro.obs import MetricsRegistry, set_default_registry
from tests.core.conftest import IMPLS, use_impl
from tests.core.test_kernel_equivalence import (
    N_PERSONS,
    N_PLACES,
    T0,
    T1,
    csr_identical,
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


class TestShardBitIdentity:
    """The tentpole contract: any partition, any shard count, same CSR."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_matches_single_process(
        self, shard_logs, reference, n_shards, strategy
    ):
        net, report = shard_synthesize(
            shard_logs, N_PERSONS, T0, T1,
            n_shards=n_shards, strategy=strategy,
        )
        assert csr_identical(net.adjacency, reference.adjacency)
        assert report.n_shards == n_shards
        assert report.strategy == strategy
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
        """Spatial vs round-robin assign places in different orders; the
        canonical reduce erases the difference completely."""
        a, _ = shard_synthesize(
            shard_logs, N_PERSONS, T0, T1, n_shards=4, strategy="spatial"
        )
        b, _ = shard_synthesize(
            shard_logs, N_PERSONS, T0, T1, n_shards=4, strategy="round-robin"
        )
        assert csr_identical(a.adjacency, b.adjacency)


class TestShardPlan:
    def test_plan_reuse_and_subwindow(self, shard_logs, reference):
        plan = plan_shards(shard_logs, 4, T0, T1, strategy="refined")
        assert plan.n_shards == 4
        # full window through the precomputed plan
        net, _ = shard_synthesize(
            shard_logs, N_PERSONS, T0, T1, shard_plan=plan
        )
        assert csr_identical(net.adjacency, reference.adjacency)
        # sub-window reuses the partition, rebuilds descriptors
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
        plan = plan_shards(shard_logs, 4, T0, T1, strategy="refined")
        counts = np.zeros(plan.n_places, dtype=int)
        for s in range(4):
            counts[plan.shard_places(s)] += 1
        assert np.all(counts == 1)
        assert plan.imbalance >= 1.0
        # work-weighted refinement should land well under 2x mean
        assert plan.imbalance < 2.0

    def test_file_skipping_uses_place_locality(self, shard_logs):
        """Rank logs are place-local, so spatial shards read fewer files
        than a broadcast would."""
        plan = plan_shards(shard_logs, 4, T0, T1, strategy="spatial")
        n_files = len(plan.paths)
        per_shard = [len(plan.shard_file_indices(s)) for s in range(4)]
        assert sum(per_shard) < 4 * n_files
        assert all(n >= 1 for n in per_shard)


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
            plan = plan_shards(logs, 2, t0, t1, n_places=N_PLACES)
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
