"""Trace propagation from workers back to the coordinator.

The contract: one ``synthesize_from_logs`` call over pool threads yields
ONE connected span tree — the root ``synthesize`` span, its per-batch
``batch`` spans, and the ``worker.build`` spans that ran on the pool's
threads, re-attached via the captured-spans channel in the task payload.
Across a real fork the same channel carries each shard's ``shard.build``
span back under the root's ``shard_synthesize`` span."""

from __future__ import annotations

import pytest

import repro
from repro.core import synthesize_from_logs
from repro.distrib import DistributedSimulation, TaskPool, spatial_partition
from repro.distrib.shardsynth import shard_synthesize
from repro.obs import get_collector

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def prop_logs(tmp_path_factory, small_pop):
    d = tmp_path_factory.mktemp("prop-logs")
    cfg = repro.SimulationConfig(
        scale=small_pop.scale, duration_hours=48, n_ranks=2
    )
    part = spatial_partition(
        small_pop.places.coords(), small_pop.places.capacity.astype(float), 2
    )
    DistributedSimulation(small_pop, cfg, part).run(log_dir=d)
    return d


def spans_by_trace(spans):
    by_trace: dict[str, list[dict]] = {}
    for s in spans:
        by_trace.setdefault(s["trace_id"], []).append(s)
    return by_trace


def assert_connected_tree(spans):
    """Every span's parent is another span of the same trace (or the
    single root) — no orphans, no cross-links."""
    by_id = {s["span_id"]: s for s in spans}
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1, [s["name"] for s in spans]
    for s in spans:
        if s["parent_id"] is not None:
            assert s["parent_id"] in by_id, (
                f"span {s['name']} has a dangling parent"
            )
    return roots[0]


class TestWorkerSpans:
    def test_thread_workers_yield_one_connected_tree(
        self, prop_logs, small_pop
    ):
        collector = get_collector()
        collector.drain()
        with TaskPool(2) as pool:
            net, report = synthesize_from_logs(
                prop_logs, small_pop.n_persons, 0, 48,
                pool=pool, batch_size=1,
            )
        assert net.n_edges > 0

        spans = collector.drain()
        by_trace = spans_by_trace(spans)
        run_traces = [
            ss for ss in by_trace.values()
            if any(s["name"] == "synthesize" for s in ss)
        ]
        assert len(run_traces) == 1, "one call, one trace"
        tree = run_traces[0]
        root = assert_connected_tree(tree)
        assert root["name"] == "synthesize"

        names = [s["name"] for s in tree]
        batches = [s for s in tree if s["name"] == "batch"]
        builds = [s for s in tree if s["name"] == "worker.build"]
        assert batches, names
        assert builds, "worker spans must come back from the pool's threads"
        # batch_size=1 with 2 rank files -> one batch span per file, and
        # every worker.build hangs off a batch span, never off the root
        assert len(batches) == report.batches == 2
        batch_ids = {s["span_id"] for s in batches}
        assert all(s["parent_id"] in batch_ids for s in builds)
        # a worker span recorded which file it decoded
        assert all(s["attrs"].get("file") for s in builds)

    def test_forked_shards_yield_one_connected_tree(self, prop_logs, small_pop):
        collector = get_collector()
        collector.drain()
        net, report = shard_synthesize(
            prop_logs, small_pop.n_persons, 0, 48, n_shards=2
        )
        assert net.n_edges > 0

        run_traces = [
            ss for ss in spans_by_trace(collector.drain()).values()
            if any(s["name"] == "shard_synthesize" for s in ss)
        ]
        assert len(run_traces) == 1, "one call, one trace"
        tree = run_traces[0]
        root = assert_connected_tree(tree)
        assert root["name"] == "shard_synthesize"
        builds = [s for s in tree if s["name"] == "shard.build"]
        # one span per forked shard process, each hanging off the root
        assert sorted(s["attrs"]["shard"] for s in builds) == [0, 1]
        assert all(s["parent_id"] == root["span_id"] for s in builds)
        assert [s["attrs"]["records"] for s in sorted(
            builds, key=lambda s: s["attrs"]["shard"]
        )] == report.shard_records

    def test_one_batch_also_connects_worker_spans(self, prop_logs, small_pop):
        # default arguments (one batch): pack/adjacency tasks run in
        # workers; whatever spans exist must still form one connected tree
        collector = get_collector()
        collector.drain()
        with TaskPool(2) as pool:
            synthesize_from_logs(
                prop_logs, small_pop.n_persons, 0, 48, pool=pool,
            )
        spans = collector.drain()
        run_traces = [
            ss for ss in spans_by_trace(spans).values()
            if any(s["name"] == "synthesize" for s in ss)
        ]
        assert len(run_traces) == 1
        assert_connected_tree(run_traces[0])

    def test_kernel_timings_survive_the_pool_roundtrip(
        self, prop_logs, small_pop
    ):
        with TaskPool(2) as pool:
            _net, report = synthesize_from_logs(
                prop_logs, small_pop.n_persons, 0, 48, pool=pool,
            )
        # per-stage kernel clocks ticked on the pool's threads and were
        # absorbed at the root
        assert report.kernel_timings
        assert all(v >= 0 for v in report.kernel_timings.values())
