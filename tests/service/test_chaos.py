"""Chaos soak: the full resilience stack under combined fault injection.

One scenario, everything at once — the acceptance bar for the
resilience layer:

* one server sits behind a :class:`ChaosProxy` that delays ~10% of its
  response frames and truncates ~5% mid-frame;
* its tile store has one corrupted persisted tile (CRC mismatch on
  load) and it runs with ``budget_nnz=1`` so queries actually read disk;
* a third of the way through the run it is hard-killed and restarted on
  the same tile store and port;
* one :class:`ServiceClient` drives a stream of window queries across a
  handful of distinct windows, reconnecting after every transport fault.

Required outcome: ≥ 99% of queries complete, every completed answer is
bit-identical to a direct synthesis, every failure is a typed error or a
transport fault, the corrupted tile was quarantined, injected faults
actually fired, nothing hangs (pytest-timeout is the hang detector), and
telemetry stays trustworthy: no span is dropped or duplicated — every
completed attempt's trace is a whole tree with exactly one server
request span.

A server that accepts requests but never answers (a black hole) costs a
client with a ``deadline`` one bounded wait and its connection.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.core import TileCache
from repro.errors import DeadlineError, FrameError, ReproError, ServiceError
from repro.obs import get_collector
from repro.service import ServiceClient
from repro.service.client import DEADLINE_GRACE

from ._chaos import ChaosProxy, corrupt_tile, kill_service
from .conftest import assert_bit_identical
from .test_faults import make_service

pytestmark = pytest.mark.timeout(300)

#: distinct windows the soak cycles through (aligned and unaligned)
WINDOWS = [(0, 24), (24, 72), (5, 50), (0, 168), (100, 148), (160, 200)]
N_QUERIES = 150
KILL_AT = N_QUERIES // 3
#: tries per query; a transport fault costs one and a reconnect
ATTEMPTS = 5

#: what a cut, reset or refused connection raises on the client
TRANSPORT_FAULTS = (
    ConnectionError,
    OSError,
    asyncio.IncompleteReadError,
    FrameError,
)


class TestChaosSoak:
    def test_soak_with_proxy_faults_replica_kill_and_corrupt_tile(
        self, service_logs, small_pop, tmp_path, direct_ref
    ):
        # pre-persist the server's tile store, then damage one tile
        store = tmp_path / "tiles"
        with TileCache(
            service_logs, small_pop.n_persons, cache_dir=store / "full"
        ) as cache:
            for t0, t1 in WINDOWS:
                cache.query_window(t0, t1)
        corrupt_tile(store / "full")

        def start_server(port: int = 0):
            svc = make_service(
                service_logs, small_pop,
                cache_dir=store,
                cache_budget_nnz=1,  # force disk reads -> hit the damage
            )
            svc.config.port = port
            return svc

        async def scenario():
            get_collector().drain()  # span integrity is judged on this run
            servers = [start_server()]
            await servers[0].start()
            rng = random.Random(1234)
            proxy = ChaosProxy(
                "127.0.0.1", servers[0].port, rng,
                delay_p=0.10, delay_s=0.05, truncate_p=0.05,
            )
            completed = failed = faults = quarantined = 0

            def tiles_quarantined(svc) -> int:
                handle = svc._handles.get("full")
                return handle.cache.stats.tiles_quarantined if handle else 0
            try:
                async with proxy:
                    client = ServiceClient(port=proxy.port)
                    await client.connect()

                    async def query(t0: int, t1: int):
                        nonlocal faults
                        for attempt in range(ATTEMPTS):
                            try:
                                return await client.query_window(t0, t1)
                            except TRANSPORT_FAULTS:
                                # the client dropped its connection
                                faults += 1
                                if attempt + 1 == ATTEMPTS:
                                    raise
                                await asyncio.sleep(0.02)
                                await client.connect()

                    try:
                        for i in range(N_QUERIES):
                            if i == KILL_AT:
                                port = servers[-1].port
                                # read before the kill clears its caches
                                quarantined += tiles_quarantined(servers[-1])
                                await kill_service(servers[-1])
                                servers.append(start_server(port))
                                await servers[-1].start()
                            t0, t1 = WINDOWS[i % len(WINDOWS)]
                            try:
                                net = await query(t0, t1)
                            except (ReproError, *TRANSPORT_FAULTS):
                                failed += 1
                                continue
                            completed += 1
                            assert_bit_identical(
                                net.adjacency, direct_ref(t0, t1).adjacency
                            )
                    finally:
                        await client.close()
                    # -- acceptance criteria ----------------------------
                    assert completed >= 0.99 * N_QUERIES, (
                        f"only {completed}/{N_QUERIES} queries completed "
                        f"({failed} failed, {faults} transport faults); "
                        f"proxy={proxy.counters}"
                    )
                    # the injected faults actually fired, and the kill
                    # cut the client's connection
                    assert proxy.counters["delayed"] > 0
                    assert proxy.counters["truncated"] > 0
                    assert faults > proxy.counters["truncated"]
                    assert servers[1].stats.queries >= 1
                    # the corrupted tile was quarantined, never served
                    quarantined += tiles_quarantined(servers[-1])
                    assert quarantined >= 1
                    assert list((store / "full").glob("*.quarantined"))
                    return completed
            finally:
                await servers[-1].stop()

        completed = asyncio.run(scenario())

        # -- span integrity under kill + truncation ---------------------
        # both halves of every trace land in this process's collector
        # (client and servers share it), so the soak can assert that
        # chaos never dropped or duplicated spans.
        spans = get_collector().drain()
        span_ids = [s["span_id"] for s in spans]
        assert len(span_ids) == len(set(span_ids)), "duplicated span ids"
        by_trace: dict[str, list[dict]] = {}
        for s in spans:
            by_trace.setdefault(s["trace_id"], []).append(s)
        # a trace whose client.request completed ok is a completed
        # attempt: its tree must be whole — exactly one server request
        # span, every parent link resolving inside the trace
        ok_traces = [
            tid for tid, ss in by_trace.items()
            if any(
                s["name"] == "client.request" and s["status"] == "ok"
                for s in ss
            )
        ]
        assert len(ok_traces) >= completed, (
            f"{completed} queries completed but only {len(ok_traces)} "
            "traces have an ok client span: spans were dropped"
        )
        for tid in ok_traces:
            ss = by_trace[tid]
            requests = [s for s in ss if s["name"] == "request"]
            assert len(requests) == 1, (
                f"trace {tid} has {len(requests)} server request spans"
            )
            ids = {s["span_id"] for s in ss}
            for s in ss:
                assert s["parent_id"] is None or s["parent_id"] in ids, (
                    f"trace {tid}: span {s['name']} dangles"
                )

    def test_blackhole_costs_one_bounded_wait_then_not_connected(
        self, service_logs, small_pop
    ):
        """A server that accepts frames but never answers (100%
        black-hole proxy) costs a client with ``deadline=0.5`` one wait
        of the budget plus the grace, not a hang; the connection is then
        gone, so the next request cannot read the stale reply."""

        async def scenario():
            a = make_service(service_logs, small_pop)
            async with a:
                proxy = ChaosProxy(
                    "127.0.0.1", a.port, random.Random(7), blackhole_p=1.0
                )
                async with proxy:
                    async with ServiceClient(
                        port=proxy.port, deadline=0.5
                    ) as client:
                        start = time.monotonic()
                        with pytest.raises(DeadlineError) as exc_info:
                            # the outer bound only turns a hang into a
                            # failure; the client must give up first
                            await asyncio.wait_for(
                                client.query_window(0, 24), 10.0
                            )
                        elapsed = time.monotonic() - start
                        assert exc_info.value.code == "deadline"
                        assert 0.5 <= elapsed < 0.5 + DEADLINE_GRACE + 1.0
                        assert proxy.counters["blackholed"] == 1
                        with pytest.raises(ServiceError) as exc_info:
                            await client.ping()
                        assert exc_info.value.code == "internal"
                        assert "not connected" in str(exc_info.value)

        asyncio.run(scenario())

    def test_cut_frame_drops_the_connection(self, service_logs, small_pop):
        """A reply cut mid-frame leaves the stream out of phase: the
        client raises the transport fault, then refuses to read on, and
        a fresh ``connect()`` answers again."""

        async def scenario():
            a = make_service(service_logs, small_pop)
            async with a:
                proxy = ChaosProxy(
                    "127.0.0.1", a.port, random.Random(3), truncate_p=1.0
                )
                async with proxy:
                    async with ServiceClient(port=proxy.port) as client:
                        with pytest.raises(TRANSPORT_FAULTS):
                            await client.ping()
                        assert proxy.counters["truncated"] == 1
                        with pytest.raises(ServiceError) as exc_info:
                            await client.ping()
                        assert "not connected" in str(exc_info.value)
                        proxy.truncate_p = 0.0
                        await client.connect()
                        assert (await client.ping())["pong"] is True

        asyncio.run(scenario())

    def test_expired_deadlines_under_chaos_are_rejected_not_queued(
        self, service_logs, small_pop
    ):
        """Even mid-soak the deadline contract holds: a dead-on-arrival
        request is answered with code="expired" and never queued."""

        async def scenario():
            a = make_service(service_logs, small_pop)
            async with a:
                async with ServiceClient(port=a.port) as client:
                    from repro.errors import DeadlineError

                    for _ in range(5):
                        with pytest.raises(DeadlineError) as exc_info:
                            await client.request(
                                "window", t0=0, t1=24, deadline=-1.0
                            )
                        assert exc_info.value.code == "expired"
                assert a.stats.expired == 5
                assert a.stats.compositions == 0

        asyncio.run(scenario())
