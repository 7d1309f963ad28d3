"""Trace propagation across the service wire protocol.

The contract: a client query produces ONE connected span tree spanning
both halves — the client's ``client.request`` root, the server's
``request`` span parented to it via ``header["trace"]``, and the
server-side children (admission, coalesce, compose, kernel).  Malformed
trace headers must never kill a request, and the ``--trace-log`` sink
must capture the same tree durably."""

from __future__ import annotations

import asyncio

import pytest

import repro.core.network
from repro.obs import (
    default_registry,
    get_collector,
    read_spans_jsonl,
    render_metrics,
)
from repro.service import NetworkQueryService, ServiceClient, ServiceConfig
from repro.service.protocol import read_frame, write_frame

pytestmark = pytest.mark.timeout(120)


def make_service(service_logs, small_pop, **overrides) -> NetworkQueryService:
    config = ServiceConfig(port=0, prefetch_tiles=0, **overrides)
    return NetworkQueryService(
        service_logs,
        small_pop.n_persons,
        places=small_pop.places,
        config=config,
    )


@pytest.fixture(autouse=True)
def clean_collector():
    get_collector().drain()
    yield
    get_collector().drain()


def tree_for(spans, trace_id):
    mine = [s for s in spans if s["trace_id"] == trace_id]
    by_id = {s["span_id"]: s for s in mine}
    for s in mine:
        if s["parent_id"] is not None:
            assert s["parent_id"] in by_id, (
                f"span {s['name']} dangles off the tree"
            )
    roots = [s for s in mine if s["parent_id"] is None]
    assert len(roots) == 1, [s["name"] for s in mine]
    return mine, roots[0]


class TestWirePropagation:
    def test_cold_query_yields_one_connected_tree(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    await client.query_window(0, 24)
                    return client.last_trace_id

        trace_id = asyncio.run(scenario())
        assert trace_id, "response must echo the request's trace id"
        spans = get_collector().drain()
        mine, root = tree_for(spans, trace_id)
        names = {s["name"] for s in mine}
        # both halves of the conversation are in the same tree, from the
        # client socket write down to the kernel that built the tiles
        assert root["name"] == "client.request"
        assert {"request", "admission", "coalesce", "compose",
                "kernel"} <= names
        request = next(s for s in mine if s["name"] == "request")
        assert request["parent_id"] == root["span_id"]
        assert request["attrs"]["op"] == "window"

    def test_write_span_closes_the_request_and_counts_the_frame(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    _header, blob = await client.request(
                        "window", t0=0, t1=24
                    )
                    return client.last_trace_id, len(blob)

        trace_id, blob_len = asyncio.run(scenario())
        mine, _root = tree_for(get_collector().drain(), trace_id)
        request = next(s for s in mine if s["name"] == "request")
        write = next(s for s in mine if s["name"] == "write")
        # a slow socket shows up inside the request, not after it
        assert write["parent_id"] == request["span_id"]
        assert write["attrs"]["bytes"] > blob_len
        assert request["duration"] >= write["duration"]

    def test_degrees_op_never_builds_the_symmetric_matrix(
        self, service_logs, small_pop, monkeypatch
    ):
        calls = []
        real = repro.core.network.triu_symmetrize

        def counting(adj):
            calls.append(adj.shape)
            return real(adj)

        monkeypatch.setattr(repro.core.network, "triu_symmetrize", counting)

        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    summary = await client.degree_summary(0, 24)
                    assert not calls
                    # the seam is live: an ego query does symmetrize
                    await client.query_ego(3, 0, 24)
                    return summary

        summary = asyncio.run(scenario())
        assert summary["n_vertices"] == small_pop.n_persons
        assert calls

    def test_warm_query_tree_connects_without_composition(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    await client.query_window(0, 24)  # cold: builds tiles
                    get_collector().drain()
                    await client.query_window(0, 24)  # warm: tile hit
                    return client.last_trace_id

        trace_id = asyncio.run(scenario())
        mine, root = tree_for(get_collector().drain(), trace_id)
        assert root["name"] == "client.request"
        assert "request" in {s["name"] for s in mine}

    def test_ego_query_tree_shows_the_analysis_kernel(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    await client.query_ego(3, 0, 24)
                    return client.last_trace_id

        trace_id = asyncio.run(scenario())
        mine, root = tree_for(get_collector().drain(), trace_id)
        request = next(s for s in mine if s["name"] == "request")
        kernel = next(s for s in mine if s["name"] == "analysis.induced_subgraph")
        # the executor thread ran it inside this request, not as a root
        assert kernel["parent_id"] == request["span_id"]
        assert kernel["attrs"]["nodes"] >= 1

    def test_distinct_queries_get_distinct_traces(
        self, service_logs, small_pop
    ):
        async def scenario():
            ids = []
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    for _ in range(3):
                        await client.query_window(0, 24)
                        ids.append(client.last_trace_id)
            return ids

        ids = asyncio.run(scenario())
        assert all(ids)
        assert len(set(ids)) == 3

    def test_error_response_flags_request_span(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    with pytest.raises(Exception):
                        await client.query_window(24, 0)  # bad window
                    return client.last_trace_id

        trace_id = asyncio.run(scenario())
        assert trace_id
        mine, _root = tree_for(get_collector().drain(), trace_id)
        request = next(s for s in mine if s["name"] == "request")
        assert request["status"].startswith("error:")


class TestRawHeaders:
    async def _raw(self, port, header):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            write_frame(writer, header)
            await writer.drain()
            resp, _blob = await read_frame(reader)
            return resp
        finally:
            writer.close()
            await writer.wait_closed()

    def test_malformed_trace_header_never_kills_the_request(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                out = []
                for bad in ("garbage", 42, {"trace_id": 9},
                            {"trace_id": "x" * 999, "span_id": "s"}):
                    resp = await self._raw(
                        svc.port,
                        {"op": "degrees", "id": 1, "t0": 0, "t1": 24,
                         "trace": bad},
                    )
                    out.append(resp)
                return out

        for resp in asyncio.run(scenario()):
            assert resp["ok"], resp
            # a fresh server-side trace id is still minted and echoed
            assert resp.get("trace_id")

    def test_control_ops_echo_trace_id_without_spans(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                return await self._raw(
                    svc.port,
                    {"op": "ping", "id": 1,
                     "trace": {"trace_id": "abc123", "span_id": "def456"}},
                )

        resp = asyncio.run(scenario())
        assert resp["ok"]
        assert resp["trace_id"] == "abc123"  # echoed for correlation...
        spans = get_collector().drain()
        # ...but load-balancer probes don't pollute the span stream
        assert not [s for s in spans if s["trace_id"] == "abc123"]


class TestServerSideTelemetry:
    def test_trace_log_sink_captures_the_tree_durably(
        self, service_logs, small_pop, tmp_path
    ):
        trace_log = tmp_path / "spans.jsonl"

        async def scenario():
            async with make_service(
                service_logs, small_pop, trace_log=trace_log
            ) as svc:
                async with ServiceClient(port=svc.port) as client:
                    await client.query_window(0, 24)
                    return client.last_trace_id

        trace_id = asyncio.run(scenario())
        logged = read_spans_jsonl(trace_log)
        names = {s["name"] for s in logged if s["trace_id"] == trace_id}
        assert {"client.request", "request", "compose", "kernel"} <= names

    def test_metrics_op_matches_registry_snapshot(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    await client.query_window(0, 24)
                    resp = await client.metrics()
            return resp

        resp = asyncio.run(scenario())
        assert resp["ok"]
        snap = resp["metrics"]
        assert snap["counters"]["service.queries"] >= 1
        # the op serves the same process-wide registry the CLI reads
        local = default_registry().snapshot()
        assert (
            local["counters"]["service.queries"]
            >= snap["counters"]["service.queries"]
        )

    def test_per_op_latency_and_reply_bytes_reach_the_registry(
        self, service_logs, small_pop
    ):
        before = default_registry().snapshot()

        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    _header, blob = await client.request(
                        "window", t0=0, t1=24
                    )
                    await client.degree_summary(0, 24)
                    await client.ping()
                    with pytest.raises(Exception):
                        await client.request("no-such-op")
                    return len(blob), await client.metrics()

        blob_len, resp = asyncio.run(scenario())
        delta = default_registry().delta(before, resp["metrics"])
        hists = delta["histograms"]
        assert hists["service.op_seconds.window"]["count"] == 1
        assert hists["service.op_seconds.degrees"]["count"] == 1
        assert hists["service.op_seconds.ping"]["count"] == 1
        assert hists["service.op_seconds.window"]["sum"] > 0
        # a made-up op name never mints a metric
        assert "service.op_seconds.no-such-op" not in hists
        assert delta["counters"]["service.reply_bytes"] > blob_len
        # ...and `repro metrics` renders what the op serves
        text = render_metrics(resp["metrics"])
        assert "service.op_seconds.window" in text
        assert "service.reply_bytes" in text

    def test_stats_snapshot_carries_uptime_and_inflight(
        self, service_logs, small_pop
    ):
        async def scenario():
            async with make_service(service_logs, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    return await client.stats()

        stats = asyncio.run(scenario())["stats"]
        assert stats["uptime"] >= 0
        assert stats["inflight"] >= 0
        assert "_lock" not in stats
