"""Chaos soak: the full resilience stack under combined fault injection.

One scenario, everything at once — the acceptance bar for the
resilience layer:

* replica A sits behind a :class:`ChaosProxy` that delays ~10% of its
  response frames and truncates ~5% mid-frame;
* A's tile store has one corrupted persisted tile (CRC mismatch on
  load) and A runs with ``budget_nnz=1`` so queries actually read disk;
* replica B is healthy until it is hard-killed a third of the way
  through the run;
* a :class:`FailoverClient` with per-replica breakers drives a stream
  of window queries across a handful of distinct windows.

Required outcome: ≥ 99% of queries complete (the rest may exhaust the
replica set while both replicas are simultaneously unusable — with B
dead the bar is total), every completed answer is bit-identical to a
direct synthesis, the corrupted tile was quarantined, injected faults
actually fired, nothing hangs (pytest-timeout is the hang detector),
and telemetry stays trustworthy: no span is dropped or duplicated —
every completed attempt's trace is a whole tree with exactly one server
request span.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core import TileCache
from repro.errors import ReplicaSetError
from repro.obs import get_collector
from repro.service import FailoverClient, ServiceClient

from ._chaos import ChaosProxy, corrupt_tile, kill_service
from .conftest import assert_bit_identical
from .test_faults import make_service

pytestmark = pytest.mark.timeout(300)

#: distinct windows the soak cycles through (aligned and unaligned)
WINDOWS = [(0, 24), (24, 72), (5, 50), (0, 168), (100, 148), (160, 200)]
N_QUERIES = 150
KILL_AT = N_QUERIES // 3


class TestChaosSoak:
    def test_soak_with_proxy_faults_replica_kill_and_corrupt_tile(
        self, service_logs, small_pop, tmp_path, direct_ref
    ):
        # pre-persist replica A's tile store, then damage one tile
        store = tmp_path / "replica-a-tiles"
        with TileCache(
            service_logs, small_pop.n_persons, cache_dir=store / "full"
        ) as cache:
            for t0, t1 in WINDOWS:
                cache.query_window(t0, t1)
        corrupt_tile(store / "full")

        async def scenario():
            get_collector().drain()  # span integrity is judged on this run
            a = make_service(
                service_logs, small_pop,
                cache_dir=store,
                cache_budget_nnz=1,  # force disk reads -> hit the damage
            )
            b = make_service(service_logs, small_pop)
            async with a, b:
                rng = random.Random(1234)
                proxy = ChaosProxy(
                    "127.0.0.1", a.port, rng,
                    delay_p=0.10, delay_s=0.05, truncate_p=0.05,
                )
                async with proxy:
                    client = FailoverClient(
                        [("127.0.0.1", proxy.port), ("127.0.0.1", b.port)],
                        retries=8,
                        attempt_timeout=15.0,
                        deadline=60.0,
                        backoff_base=0.02,
                        backoff_cap=0.2,
                        breaker_kwargs={
                            "window": 8,
                            "min_samples": 2,
                            "failure_threshold": 0.5,
                            "reset_timeout": 0.2,
                        },
                        rng=random.Random(99),
                    )
                    completed = 0
                    failed = 0
                    async with client:
                        for i in range(N_QUERIES):
                            if i == KILL_AT:
                                await kill_service(b)
                            t0, t1 = WINDOWS[i % len(WINDOWS)]
                            try:
                                net = await client.query_window(t0, t1)
                            except ReplicaSetError:
                                failed += 1
                                continue
                            completed += 1
                            assert_bit_identical(
                                net.adjacency, direct_ref(t0, t1).adjacency
                            )
                    # -- acceptance criteria ----------------------------
                    assert completed >= 0.99 * N_QUERIES, (
                        f"only {completed}/{N_QUERIES} queries completed "
                        f"({failed} failed); proxy={proxy.counters}, "
                        f"client={client.counters}"
                    )
                    # the injected faults actually fired
                    assert proxy.counters["delayed"] > 0
                    assert proxy.counters["truncated"] > 0
                    assert client.counters["failovers"] >= 1
                    # the corrupted tile was quarantined, never served
                    full = a._handles["full"].cache
                    assert full.stats.tiles_quarantined >= 1
                    quarantined = list(
                        (store / "full").glob("*.quarantined")
                    )
                    assert quarantined
                    return completed

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

    def test_blackhole_replica_is_timed_out_and_failed_over(
        self, service_logs, small_pop, direct_ref
    ):
        """A replica that accepts frames but never answers (100%
        black-hole proxy) must cost one attempt_timeout, not a hang."""

        async def scenario():
            a = make_service(service_logs, small_pop)
            b = make_service(service_logs, small_pop)
            async with a, b:
                proxy = ChaosProxy(
                    "127.0.0.1", a.port, random.Random(7), blackhole_p=1.0
                )
                async with proxy:
                    client = FailoverClient(
                        [("127.0.0.1", proxy.port), ("127.0.0.1", b.port)],
                        retries=2,
                        attempt_timeout=0.5,
                        breaker_kwargs={
                            "window": 4,
                            "min_samples": 1,
                            "failure_threshold": 0.5,
                            "reset_timeout": 5.0,
                        },
                        rng=random.Random(21),
                    )
                    async with client:
                        for t0, t1 in WINDOWS[:3]:
                            net = await client.query_window(t0, t1)
                            assert_bit_identical(
                                net.adjacency, direct_ref(t0, t1).adjacency
                            )
                        assert proxy.counters["blackholed"] >= 1
                        # the black hole tripped its breaker: later
                        # queries stop paying the timeout
                        rep = client.replicas[0]
                        assert rep.breaker.opens >= 1

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
