"""Place-sharded synthesis: the bit-identity property suite.

The whole sharding design rests on one algebraic fact: every log record
belongs to exactly one place, so the adjacency is additive over any
place partition — ``A = Σ_s A_s`` — and the canonical upper-triangular
CSR of a sum is unique.  These tests assert the strong form of that
contract: for every shard count × partition strategy, the sharded
pipeline's CSR triple (``data``/``indices``/``indptr``) is **exactly**
the single-process kernel's, including through the compiled masked
backend, layer masks, the sharded tile cache, and quarantine paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TileCache, synthesize_from_logs
from repro.distrib.shardsynth import (
    STRATEGIES,
    ShardedTileCache,
    log_horizon,
    plan_shards,
    shard_synthesize,
)
from repro.errors import SynthesisError
from repro.evlog import LogSet
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

    def test_digest_tracks_partition(self, shard_logs):
        a = plan_shards(shard_logs, 2, T0, T1, strategy="round-robin")
        b = plan_shards(shard_logs, 2, T0, T1, strategy="round-robin")
        c = plan_shards(shard_logs, 4, T0, T1, strategy="round-robin")
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_log_horizon(self, shard_logs):
        assert log_horizon(LogSet(shard_logs)) >= T1


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

    def test_strict_raises(self, tmp_path):
        logs = write_tricky_logs(tmp_path / "logs", seed=42)
        self._corrupt(rank_log_path(logs, 1))
        with pytest.raises(SynthesisError):
            shard_synthesize(logs, N_PERSONS, T0, T1, n_shards=2, strict=True)


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


class TestShardedTileCache:
    @pytest.fixture(scope="class")
    def cache_plan(self, shard_logs):
        horizon = log_horizon(LogSet(shard_logs))
        return plan_shards(shard_logs, 3, 0, horizon, strategy="refined")

    def test_window_queries_bit_identical(
        self, shard_logs, reference, cache_plan
    ):
        with ShardedTileCache(shard_logs, N_PERSONS, cache_plan) as cache:
            net = cache.query_window(T0, T1)
            assert csr_identical(net.adjacency, reference.adjacency)
            # unaligned window, exercising partial tiles per shard
            got = cache.query_window(T0 + 7, T1 - 5)
            want, _ = synthesize_from_logs(
                shard_logs, N_PERSONS, T0 + 7, T1 - 5
            )
            assert csr_identical(got.adjacency, want.adjacency)
            assert cache.reduce_seconds >= 0.0
            assert cache.stats.queries >= 1

    def test_matches_unsharded_cache(self, shard_logs, cache_plan):
        with ShardedTileCache(shard_logs, N_PERSONS, cache_plan) as sharded, \
                TileCache(shard_logs, N_PERSONS) as single:
            a = sharded.query_window(T0 + 1, T1 - 1)
            b = single.query_window(T0 + 1, T1 - 1)
            assert csr_identical(a.adjacency, b.adjacency)

    def test_place_mask_composes_with_shards(self, shard_logs, cache_plan):
        """A layer mask intersects each shard's mask; the reduced answer
        equals one masked unsharded cache."""
        mask = np.zeros(cache_plan.n_places, dtype=bool)
        mask[: N_PLACES // 2] = True
        with ShardedTileCache(
            shard_logs, N_PERSONS, cache_plan, place_mask=mask
        ) as sharded, TileCache(
            shard_logs, N_PERSONS, place_mask=mask
        ) as single:
            a = sharded.query_window(T0, T1)
            b = single.query_window(T0, T1)
            assert csr_identical(a.adjacency, b.adjacency)

    def test_pipeline_cache_injection(self, shard_logs, reference, cache_plan):
        """synthesize_from_logs(cache=...) accepts the sharded cache."""
        with ShardedTileCache(shard_logs, N_PERSONS, cache_plan) as cache:
            net, _ = synthesize_from_logs(
                shard_logs, N_PERSONS, T0, T1, cache=cache
            )
            assert csr_identical(net.adjacency, reference.adjacency)

    def test_interface_surface(self, shard_logs, cache_plan):
        with ShardedTileCache(shard_logs, N_PERSONS, cache_plan) as cache:
            assert cache.horizon() >= T1
            assert cache.warm(T0, T0 + 48) >= 0
            assert cache.cached_nnz >= 0
            assert cache.quarantined == []
            assert cache.quarantined_tiles == []
            assert len(cache.digest) == 64
            assert cache.pool.n_workers == 3

    def test_keyword_arguments_reach_every_shard(
        self, shard_logs, tmp_path, cache_plan
    ):
        with ShardedTileCache(
            shard_logs, N_PERSONS, cache_plan,
            tile_hours=12, cache_dir=tmp_path / "tiles",
        ) as cache:
            cache.query_window(T0, T0 + 24)
            assert cache.shards[0].tile_hours == 12
        assert (tmp_path / "tiles" / "shard_000").exists()

    def test_misaligned_place_mask_rejected(self, shard_logs, cache_plan):
        with pytest.raises(SynthesisError, match="place_mask"):
            ShardedTileCache(
                shard_logs, N_PERSONS, cache_plan,
                place_mask=np.ones(3, dtype=bool),
            )
