"""Metrics registry unit tests: histogram bucket semantics (underflow /
overflow / exact-edge), snapshot consistency, delta arithmetic, and
thread-safety of concurrent recording and of per-object counters."""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    MirroredStats,
    default_registry,
    set_default_registry,
)

pytestmark = pytest.mark.timeout(60)


class TestHistogramBuckets:
    def test_underflow_lands_in_first_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(0.001)
        h.observe(-5.0)  # pathological, but must not crash or vanish
        assert h.counts == [2, 0, 0, 0]
        assert h.count == 2
        assert h.min == -5.0

    def test_exact_edge_counts_in_that_edges_bucket(self):
        # le-semantics: an observation equal to a bound belongs to the
        # bucket that bound closes, not the next one up
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(4.0)
        assert h.counts == [1, 1, 1, 0]

    def test_just_above_edge_spills_to_next_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0000001)
        assert h.counts == [0, 1, 0, 0]

    def test_overflow_lands_in_implicit_last_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(4.0001)
        h.observe(1e9)
        assert h.counts == [0, 0, 0, 2]
        assert h.max == 1e9

    def test_overflow_quantile_reports_observed_max(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(7.5)
        assert h.quantile(0.5) == 7.5
        assert h.quantile(1.0) == 7.5

    def test_quantile_returns_bucket_upper_edge(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0  # 2nd of 4 -> first bucket's edge
        assert h.quantile(0.75) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_empty_quantile_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_unsorted_bounds_are_sorted(self):
        h = Histogram("h", buckets=(4.0, 1.0, 2.0))
        assert h.bounds == (1.0, 2.0, 4.0)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_default_buckets_cover_latency_range(self):
        h = Histogram("h")
        assert h.bounds == tuple(sorted(LATENCY_BUCKETS))
        h.observe(0.0001)  # exact first edge
        assert h.counts[0] == 1

    def test_sum_count_min_max_bookkeeping(self):
        h = Histogram("h", buckets=(1.0,))
        for v in (0.25, 0.5, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(3.75)
        assert h.min == 0.25
        assert h.max == 3.0


class TestCounterAndGauge:
    def test_counter_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        c.inc(0.5)
        assert c.get() == pytest.approx(5.5)

    def test_gauge_set_and_add(self):
        g = Gauge("g")
        g.set(10.0)
        g.add(2)
        g.add(-4)
        assert g.get() == pytest.approx(8.0)


class TestRegistry:
    def test_same_name_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_name_cannot_change_kind(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_shape_and_empty_histogram_min_max(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0,))
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        h = snap["histograms"]["h"]
        assert h["count"] == 0
        assert h["min"] is None and h["max"] is None
        assert h["counts"] == [0, 0]

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        snap["histograms"]["h"]["counts"][0] = 999
        assert reg.snapshot()["histograms"]["h"]["counts"][0] == 1

    def test_delta_subtracts_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.0)
        h = reg.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        before = reg.snapshot()
        reg.counter("c").inc(5)
        reg.gauge("g").set(9.0)
        h.observe(1.5)
        h.observe(0.25)
        after = reg.snapshot()
        d = MetricsRegistry.delta(before, after)
        assert d["counters"]["c"] == 5
        assert d["gauges"]["g"] == 9.0  # gauges report the later reading
        assert d["histograms"]["h"]["counts"] == [1, 1, 0]
        assert d["histograms"]["h"]["count"] == 2

    def test_delta_treats_new_metrics_as_zero_before(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.counter("fresh").inc(7)
        d = MetricsRegistry.delta(before, reg.snapshot())
        assert d["counters"]["fresh"] == 7

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_default_registry_swap_and_restore(self):
        mine = MetricsRegistry()
        prev = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(prev)
        assert default_registry() is prev


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 2_000

        def work():
            c = reg.counter("c")
            h = reg.histogram("h", buckets=(0.5, 1.0))
            for i in range(per_thread):
                c.inc()
                h.observe((i % 3) * 0.4)  # 0.0, 0.4, 0.8 round-robin

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        snap = reg.snapshot()
        assert snap["counters"]["c"] == total
        h = snap["histograms"]["h"]
        assert h["count"] == total
        assert sum(h["counts"]) == total

    def test_concurrent_bumps_lose_nothing(self, registry):
        @dataclass
        class Stats(MirroredStats):
            scope = "demo"

            hits: int = 0
            misses: int = 0

        stats = Stats()
        n_threads, per_thread = 8, 2_000

        def work():
            for i in range(per_thread):
                stats.bump("hits")
                stats.bump("misses", i % 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = n_threads * per_thread
        assert stats.snapshot(up=1) == {"hits": total, "misses": total // 2, "up": 1}
        counters = registry.snapshot()["counters"]
        assert counters == {"demo.hits": total, "demo.misses": total // 2}

    def test_concurrent_get_or_create_yields_one_object(self):
        reg = MetricsRegistry()
        got = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            got.append(reg.counter("same"))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is got[0] for c in got)
