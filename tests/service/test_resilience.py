"""Resilience layer: deadlines, load shedding, drain edges.

Unit tests drive :class:`Deadline` and :class:`LoadShedder` on a fake
clock — no sleeping, no server.
Integration tests then pin the server-side behaviors the chaos soak
relies on: dead-on-arrival rejection (never silently queued), mid-flight
deadline timeouts that leave coalesced peers unharmed, overload shedding
with control ops exempt, health probes, and the slow-client write
timeout.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.errors import DeadlineError, OverloadError
from repro.service import ServiceClient
from repro.service.health import HealthMonitor
from repro.service.resilience import (
    PRIORITY_CONTROL,
    PRIORITY_QUERY,
    Deadline,
    LoadShedder,
    jittered_backoff,
)
from repro.service.protocol import read_frame, write_frame

from .conftest import assert_bit_identical
from .test_faults import _Gate, make_service, wait_for

pytestmark = pytest.mark.timeout(120)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestDeadline:
    def test_none_budget_never_expires(self):
        clock = FakeClock()
        dl = Deadline.after(None, time_fn=clock)
        clock.now += 1e9
        assert not dl.expired
        assert dl.remaining() is None
        assert dl.bound(5.0) == 5.0
        assert dl.bound(None) is None

    def test_budget_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        dl = Deadline.after(2.0, time_fn=clock)
        assert not dl.expired
        assert dl.remaining() == pytest.approx(2.0)
        clock.now += 1.5
        assert dl.bound(10.0) == pytest.approx(0.5)
        assert dl.bound(0.2) == pytest.approx(0.2)
        clock.now += 1.0
        assert dl.expired
        assert dl.remaining() < 0

    def test_non_positive_budget_is_born_expired(self):
        clock = FakeClock()
        assert Deadline.after(0.0, time_fn=clock).expired
        assert Deadline.after(-3.0, time_fn=clock).expired


class TestJitteredBackoff:
    def test_capped_exponential_with_bounded_jitter(self):
        import random

        rng = random.Random(7)
        for attempt in range(8):
            for _ in range(20):
                s = jittered_backoff(attempt, base=0.1, cap=0.8, rng=rng)
                full = min(0.8, 0.1 * 2**attempt)
                assert 0.5 * full <= s <= full

    def test_grows_then_saturates_at_cap(self):
        class One:
            def random(self):
                return 1.0

        values = [
            jittered_backoff(a, base=0.1, cap=0.8, rng=One())
            for a in range(6)
        ]
        assert values[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert values[4] == values[5] == pytest.approx(0.8)


class TestLoadShedder:
    def test_depth_limit_sheds_queries_but_never_control(self):
        shed = LoadShedder(limit=2)
        t1 = shed.admit(PRIORITY_QUERY)
        shed.admit(PRIORITY_QUERY)
        with pytest.raises(OverloadError) as exc_info:
            shed.admit(PRIORITY_QUERY)
        assert exc_info.value.retry_after > 0
        # control is exempt even at the limit
        shed.admit(PRIORITY_CONTROL)
        # release frees a slot
        shed.release(t1)
        shed.admit(PRIORITY_QUERY)

    def test_inflight_age_sheds_new_work(self):
        clock = FakeClock()
        shed = LoadShedder(shed_inflight_age=1.0, time_fn=clock)
        token = shed.admit(PRIORITY_QUERY)
        clock.now += 2.0
        assert shed.oldest_age() == pytest.approx(2.0)
        with pytest.raises(OverloadError):
            shed.admit(PRIORITY_QUERY)
        shed.admit(PRIORITY_CONTROL)  # control still exempt
        shed.release(token)
        shed.admit(PRIORITY_QUERY)  # convoy cleared

    def test_release_is_idempotent_and_unknown_tokens_ignored(self):
        shed = LoadShedder(limit=1)
        token = shed.admit(PRIORITY_QUERY)
        shed.release(token)
        shed.release(token)
        shed.release(99999)
        assert shed.depth == 0


class TestHealthMonitor:
    def test_lifecycle_and_shed_grace(self):
        clock = FakeClock()
        mon = HealthMonitor(shed_grace=0.5, time_fn=clock)
        assert mon.liveness()["live"] is True
        assert mon.readiness()["ready"] is False  # still starting
        mon.to_ready()
        assert mon.readiness()["ready"] is True
        mon.note_shed()
        verdict = mon.readiness()
        assert verdict["ready"] is False
        assert any("shed" in r for r in verdict["reasons"])
        clock.now += 0.6
        assert mon.readiness()["ready"] is True
        assert mon.readiness(queue_depth=8, queue_limit=8)["ready"] is False
        mon.to_draining()
        assert mon.readiness()["ready"] is False
        assert mon.liveness()["state"] == "draining"


WINDOW = (0, 24)


class TestServerDeadlines:
    def test_expired_deadline_rejected_never_queued(
        self, service_logs, small_pop
    ):
        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                async with ServiceClient(port=svc.port) as client:
                    with pytest.raises(DeadlineError) as exc_info:
                        await client.request(
                            "window", t0=0, t1=24, deadline=0.0
                        )
                    assert exc_info.value.code == "expired"
                assert svc.stats.expired == 1
                # the work never reached composition or admission
                assert svc.stats.compositions == 0
                assert svc.stats.queries == 0

        asyncio.run(scenario())

    def test_bad_deadline_type_is_bad_request(self, service_logs, small_pop):
        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                async with ServiceClient(port=svc.port) as client:
                    with pytest.raises(Exception) as exc_info:
                        await client.request(
                            "window", t0=0, t1=24, deadline="soon"
                        )
                    assert getattr(exc_info.value, "code", "") == "bad-request"

        asyncio.run(scenario())

    def test_midflight_timeout_leaves_coalesced_peer_unharmed(
        self, service_logs, small_pop, direct_ref
    ):
        """An impatient waiter gets code="deadline"; the patient peer
        sharing the same composition still gets a bit-identical answer."""

        async def scenario():
            svc = make_service(
                service_logs, small_pop,
                executor_threads=1,
            )
            async with svc:
                handle = await svc._get_handle("full")
                gate = _Gate(handle)
                async with ServiceClient(port=svc.port) as impatient:
                    async with ServiceClient(port=svc.port) as patient:
                        slow = asyncio.ensure_future(
                            patient.query_window(*WINDOW)
                        )
                        await wait_for(gate.started.is_set)
                        fast = asyncio.ensure_future(
                            impatient.request(
                                "window", t0=0, t1=24, deadline=0.2
                            )
                        )
                        with pytest.raises(DeadlineError) as exc_info:
                            await fast
                        assert exc_info.value.code == "deadline"
                        assert svc.stats.deadline_timeouts >= 1
                        gate.release.set()
                        net = await slow
                        assert_bit_identical(
                            net.adjacency, direct_ref(*WINDOW).adjacency
                        )
                # one shared composition served the survivor
                assert svc.stats.compositions == 1

        asyncio.run(scenario())

    def test_default_deadline_caps_deadline_less_requests(
        self, service_logs, small_pop
    ):
        async def scenario():
            svc = make_service(
                service_logs, small_pop,
                executor_threads=1,
                default_deadline=0.2,
            )
            async with svc:
                handle = await svc._get_handle("full")
                gate = _Gate(handle)
                async with ServiceClient(port=svc.port) as client:
                    fut = asyncio.ensure_future(client.query_window(*WINDOW))
                    await wait_for(gate.started.is_set)
                    with pytest.raises(DeadlineError):
                        await fut
                    gate.release.set()

        asyncio.run(scenario())


class TestServerLoadShedding:
    def test_queries_shed_at_queue_limit_control_exempt(
        self, service_logs, small_pop
    ):
        async def scenario():
            svc = make_service(
                service_logs, small_pop,
                executor_threads=1, queue_limit=1,
            )
            async with svc:
                handle = await svc._get_handle("full")
                gate = _Gate(handle)
                async with ServiceClient(port=svc.port) as holder:
                    held = asyncio.ensure_future(holder.query_window(*WINDOW))
                    await wait_for(gate.started.is_set)
                    async with ServiceClient(port=svc.port) as probe:
                        with pytest.raises(OverloadError) as exc_info:
                            await probe.request("window", t0=0, t1=48)
                        assert exc_info.value.retry_after > 0
                        # control ops answer while queries are shed
                        assert (await probe.ping())["pong"] is True
                        assert (await probe.liveness())["live"] is True
                        ready = await probe.readiness()
                        assert ready["ready"] is False  # recently shed
                    assert svc.stats.shed == 1
                    gate.release.set()
                    await held
                    # pressure gone: queries admitted again
                    async with ServiceClient(port=svc.port) as after:
                        await after.query_window(*WINDOW)

        asyncio.run(scenario())

    def test_client_retries_overload_with_jittered_backoff(
        self, service_logs, small_pop
    ):
        async def scenario():
            svc = make_service(
                service_logs, small_pop,
                executor_threads=1, queue_limit=1,
            )
            async with svc:
                handle = await svc._get_handle("full")
                gate = _Gate(handle)
                async with ServiceClient(port=svc.port) as holder:
                    held = asyncio.ensure_future(holder.query_window(*WINDOW))
                    await wait_for(gate.started.is_set)
                    async with ServiceClient(
                        port=svc.port, retries=50, max_retry_sleep=0.05
                    ) as retrier:
                        fut = asyncio.ensure_future(
                            retrier.query_window(*WINDOW)
                        )
                        await wait_for(lambda: svc.stats.shed >= 2)
                        gate.release.set()
                        await fut  # retried into an admission slot
                    await held

        asyncio.run(scenario())


class TestSlowClientWriteTimeout:
    def test_stalled_reader_is_aborted_not_waited_on(
        self, service_logs, small_pop
    ):
        """A client that never reads its responses eventually fills the
        socket buffers; the server must abort it within write_timeout
        instead of parking the handler forever."""

        async def scenario():
            svc = make_service(
                service_logs, small_pop,
                write_timeout=0.5,
            )
            async with svc:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", svc.port
                )
                # pipeline many large window responses and read none of
                # them: kernel + transport buffers fill, drain() stalls
                for i in range(64):
                    write_frame(
                        writer,
                        {"op": "window", "id": i, "tenant": "slow",
                         "t0": 0, "t1": 336},
                    )
                await writer.drain()
                await wait_for(lambda: svc.stats.slow_writes >= 1)
                # the server reset us: reads terminate, not hang
                with pytest.raises(
                    (ConnectionError, OSError, asyncio.IncompleteReadError)
                ):
                    while True:
                        await read_frame(reader)
                writer.close()
                # and it still serves everyone else
                async with ServiceClient(port=svc.port) as client:
                    assert (await client.ping())["pong"] is True

        asyncio.run(scenario())
