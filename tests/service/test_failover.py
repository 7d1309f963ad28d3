"""FailoverClient: replica failover, circuit breakers, hedging.

Two real services back each set; failures are injected by hard-killing
one replica (``kill_service``: listener and every connection reset, no
drain) or by parking its executor behind a gate.  The invariant
throughout is the service suite's: whatever the failover client returns
must be bit-identical to a direct synthesis of the same window, no
matter which replica answered.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import ReplicaSetError, ServiceError
from repro.service import FailoverClient
from repro.service.resilience import CircuitBreaker

from ._chaos import kill_service
from .conftest import assert_bit_identical
from .test_faults import _Gate, make_service, wait_for

pytestmark = pytest.mark.timeout(120)

WINDOW = (0, 24)


def fast_breakers() -> dict:
    """Breakers that trip on the first failure and reset quickly."""
    return {
        "window": 2,
        "min_samples": 1,
        "failure_threshold": 0.5,
        "reset_timeout": 0.2,
    }


class TestFailover:
    def test_queries_continue_after_one_replica_is_killed(
        self, service_logs, small_pop, direct_ref
    ):
        async def scenario():
            a = make_service(service_logs, small_pop)
            b = make_service(service_logs, small_pop)
            async with a, b:
                client = FailoverClient(
                    [("127.0.0.1", a.port), ("127.0.0.1", b.port)],
                    retries=3,
                    attempt_timeout=10.0,
                    breaker_kwargs=fast_breakers(),
                    rng=random.Random(11),
                )
                async with client:
                    net = await client.query_window(*WINDOW)
                    assert_bit_identical(
                        net.adjacency, direct_ref(*WINDOW).adjacency
                    )
                    await kill_service(a)
                    # every subsequent query fails over to b
                    for _ in range(4):
                        net = await client.query_window(*WINDOW)
                        assert_bit_identical(
                            net.adjacency, direct_ref(*WINDOW).adjacency
                        )
                    assert client.counters["failovers"] >= 1
                    assert b.stats.queries >= 1

        asyncio.run(scenario())

    def test_breaker_opens_and_dead_set_raises_replica_set_error(
        self, service_logs, small_pop
    ):
        async def scenario():
            a = make_service(service_logs, small_pop)
            async with a:
                client = FailoverClient(
                    [("127.0.0.1", a.port)],
                    retries=1,
                    attempt_timeout=1.0,
                    backoff_base=0.01,
                    backoff_cap=0.02,
                    breaker_kwargs=fast_breakers(),
                    rng=random.Random(5),
                )
                async with client:
                    await client.ping()
                    await kill_service(a)
                    with pytest.raises(ReplicaSetError) as exc_info:
                        await client.query_window(*WINDOW)
                    assert exc_info.value.__cause__ is not None
                    rep = client.replicas[0]
                    assert rep.breaker.state == CircuitBreaker.OPEN

        asyncio.run(scenario())

    def test_open_breaker_skips_replica_then_probe_recovers_it(
        self, service_logs, small_pop, direct_ref
    ):
        async def scenario():
            a = make_service(service_logs, small_pop)
            b = make_service(service_logs, small_pop)
            async with a, b:
                port_a = a.port
                client = FailoverClient(
                    [("127.0.0.1", port_a), ("127.0.0.1", b.port)],
                    retries=2,
                    attempt_timeout=5.0,
                    breaker_kwargs=fast_breakers(),
                    rng=random.Random(3),
                )
                async with client:
                    await kill_service(a)
                    for _ in range(4):
                        await client.query_window(*WINDOW)
                    rep_a = client.replicas[0]
                    assert rep_a.breaker.state == CircuitBreaker.OPEN
                    skips_before = client.counters["breaker_skips"]
                    assert skips_before >= 1
                    # replica a comes back on the same port
                    revived = make_service(service_logs, small_pop)
                    revived.config.port = port_a
                    async with revived:
                        await asyncio.sleep(0.25)  # past reset_timeout
                        for _ in range(6):
                            net = await client.query_window(*WINDOW)
                            assert_bit_identical(
                                net.adjacency, direct_ref(*WINDOW).adjacency
                            )
                        # the half-open probe closed the breaker again
                        assert rep_a.breaker.state == CircuitBreaker.CLOSED
                        assert revived.stats.queries >= 1

        asyncio.run(scenario())

    def test_mutating_ops_are_refused(self, service_logs, small_pop):
        async def scenario():
            a = make_service(service_logs, small_pop)
            async with a:
                client = FailoverClient([("127.0.0.1", a.port)])
                async with client:
                    with pytest.raises(ServiceError) as exc_info:
                        await client.request("shutdown")
                    assert exc_info.value.code == "bad-request"
                assert a.stats.requests == 0

        asyncio.run(scenario())

    def test_hedging_wins_on_a_stalled_primary(
        self, service_logs, small_pop, direct_ref
    ):
        """Replica a's executor is parked behind a gate; with hedging on,
        the client races b after hedge_after and b's answer wins."""

        async def scenario():
            a = make_service(
                service_logs, small_pop, executor_threads=1
            )
            b = make_service(service_logs, small_pop)
            async with a, b:
                gate = _Gate(await a._get_handle("full"))
                client = FailoverClient(
                    [("127.0.0.1", a.port), ("127.0.0.1", b.port)],
                    retries=1,
                    attempt_timeout=30.0,
                    hedge_after=0.2,
                    breaker_kwargs=fast_breakers(),
                    rng=random.Random(2),
                )
                async with client:
                    net = await client.query_window(*WINDOW)
                    assert_bit_identical(
                        net.adjacency, direct_ref(*WINDOW).adjacency
                    )
                    assert client.counters["hedges"] == 1
                    assert client.counters["hedged_wins"] == 1
                    assert b.stats.queries == 1
                    gate.release.set()

        asyncio.run(scenario())

    def test_string_addresses_parse(self, service_logs, small_pop):
        async def scenario():
            a = make_service(service_logs, small_pop)
            async with a:
                client = FailoverClient([f"127.0.0.1:{a.port}"])
                async with client:
                    assert (await client.ping())["pong"] is True

        asyncio.run(scenario())

    def test_deadline_bounds_the_whole_failover_dance(
        self, service_logs, small_pop
    ):
        """With every replica dead, a deadline turns the retry cycle into
        a bounded DeadlineError instead of a long exhaustion."""

        async def scenario():
            a = make_service(service_logs, small_pop)
            async with a:
                port = a.port
                await kill_service(a)
                client = FailoverClient(
                    [("127.0.0.1", port)],
                    retries=50,
                    attempt_timeout=0.2,
                    deadline=1.0,
                    backoff_base=0.05,
                    breaker_kwargs=fast_breakers(),
                    rng=random.Random(9),
                )
                loop = asyncio.get_running_loop()
                start = loop.time()
                async with client:
                    with pytest.raises(Exception) as exc_info:
                        await client.query_window(*WINDOW)
                elapsed = loop.time() - start
                from repro.errors import DeadlineError

                assert isinstance(
                    exc_info.value, (DeadlineError, ReplicaSetError)
                )
                assert elapsed < 10.0

        asyncio.run(scenario())
