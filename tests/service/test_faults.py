"""Fault injection: the server must outlive its misbehaving clients.

Scenarios, mirroring the failure taxonomy of ``tests/_faults.py``:

* malformed frames (bad length prefix, non-JSON, non-object header, bad
  ``blob_len``) — answered once with ``code="malformed"``, connection
  closed, server keeps serving everyone else;
* clients that vanish mid-request and mid-response (the latter with an
  RST while their composition is still parked in the executor);
* a rank file rewritten in place under the live cache while a query is
  in flight — every answer comes from the bytes the cache digested or
  fails typed, and only a restarted server serves the new bytes;
* graceful shutdown draining an in-flight query to a complete response
  while refusing new work with ``code="shutting-down"``.

The executor-gate idiom from the concurrency suite keeps every "while in
flight" window deterministic: a query is provably mid-composition when
its wrapped ``query_window`` has signalled ``started``.
"""

from __future__ import annotations

import asyncio
import shutil
import socket
import struct
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import synthesize_from_logs
from repro.errors import FrameError, ServiceError
from repro.evlog import CachedLogWriter, LogReader
from repro.service import NetworkQueryService, ServiceClient, ServiceConfig
from repro.service.protocol import encode_csr, read_frame, write_frame

from .conftest import assert_bit_identical

pytestmark = pytest.mark.timeout(120)


def make_service(service_logs, small_pop, **overrides) -> NetworkQueryService:
    config = ServiceConfig(port=0, **overrides)
    return NetworkQueryService(
        service_logs,
        small_pop.n_persons,
        places=small_pop.places,
        config=config,
    )


async def wait_for(predicate, timeout: float = 30.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("timed out waiting for server state")
        await asyncio.sleep(0.005)


class _Gate:
    """Wrap a handle's ``cache.query_window`` so compositions announce
    themselves and block until the test releases them."""

    def __init__(self, handle) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self._orig = handle.cache.query_window

        def gated(t0, t1):
            self.started.set()
            assert self.release.wait(60)
            return self._orig(t0, t1)

        handle.cache.query_window = gated


MALFORMED_FRAMES = [
    # length prefix far beyond max_frame
    struct.pack(">I", 0xFFFFFFFF),
    # zero-length frame
    struct.pack(">I", 0),
    # header is not JSON
    struct.pack(">I", 7) + b"notjson",
    # header is JSON but not an object
    struct.pack(">I", 5) + b"[1,2]",
    # blob_len is negative
    struct.pack(">I", 29) + b'{"op":"ping","blob_len":-512}',
]


class TestMalformedFrames:
    def test_each_malformed_frame_answered_once_then_closed(
        self, service_logs, small_pop
    ):
        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                for i, frame in enumerate(MALFORMED_FRAMES):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", svc.port
                    )
                    writer.write(frame)
                    await writer.drain()
                    header, blob = await read_frame(reader)
                    assert header["ok"] is False
                    assert header["code"] == "malformed"
                    assert blob == b""
                    # the server closed its side: EOF, not another frame
                    assert await reader.read(1) == b""
                    writer.close()
                    await writer.wait_closed()
                    assert svc.stats.malformed == i + 1
                # everyone else is unaffected
                async with ServiceClient(port=svc.port) as client:
                    assert (await client.ping())["pong"] is True
                assert svc.stats.errors == 0

        asyncio.run(scenario())

    def test_clean_errors_do_not_lose_stream_phase(
        self, service_logs, small_pop, direct_ref
    ):
        """Validation failures are answered in-band; the same connection
        keeps working afterwards."""
        ref = direct_ref(0, 24)

        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                async with ServiceClient(port=svc.port) as client:
                    bad = [
                        ("nope", {}),
                        ("reload", {}),  # an op older servers had
                        ("window", {"t0": 5, "t1": 5}),
                        ("window", {"t0": -1, "t1": 24}),
                        ("window", {"t0": 0, "t1": 24, "tenant": ""}),
                        ("layer", {"kind": "mall", "t0": 0, "t1": 24}),
                        ("ego", {"person": -1, "t0": 0, "t1": 24}),
                        ("ego", {"person": 1, "radius": 0, "t0": 0, "t1": 24}),
                        ("degrees", {"kind": 42, "t0": 0, "t1": 24}),
                    ]
                    for op, params in bad:
                        with pytest.raises(ServiceError) as err:
                            await client.request(op, **params)
                        assert err.value.code == "bad-request"
                    net = await client.query_window(0, 24)
                assert svc.stats.malformed == 0
                assert svc.stats.errors == 0
                return net

        net = asyncio.run(scenario())
        assert_bit_identical(net.adjacency, ref.adjacency)


class TestDamagedReplies:
    """The client's half of the boundary: a reply whose frame parses but
    whose blob does not decode is a FrameError like any other."""

    @pytest.mark.parametrize(
        "blob",
        [
            b"PK\x03\x04" + bytes(40),  # what a pre-raw-layout server sent
            b"RCSR\x00\x00\x00\x02[]",  # well-formed, but no matrix in it
            # a matrix, but neither a window nor ego extras beside it
            encode_csr(sp.csr_matrix((2, 2), dtype=np.int64)),
        ],
    )
    def test_undecodable_blob_raises_frame_error(self, blob):
        async def answer(reader, writer):
            header, _ = await read_frame(reader)
            write_frame(writer, {"id": header["id"], "ok": True}, blob)
            await writer.drain()
            writer.close()

        async def scenario(query):
            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                async with ServiceClient(port=port) as client:
                    with pytest.raises(FrameError) as caught:
                        await query(client)
            assert caught.value.code == "malformed"

        asyncio.run(scenario(lambda c: c.query_window(0, 24)))
        asyncio.run(scenario(lambda c: c.query_ego(1, 0, 24)))


class TestDisconnects:
    def test_disconnect_mid_request_is_silent(self, service_logs, small_pop):
        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", svc.port
                )
                await wait_for(lambda: svc.stats.connections == 1)
                # half a frame: claim 100 bytes, deliver 10, vanish
                writer.write(struct.pack(">I", 100) + b"x" * 10)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                async with ServiceClient(port=svc.port) as client:
                    assert (await client.ping())["pong"] is True
                assert svc.stats.malformed == 0
                assert svc.stats.errors == 0

        asyncio.run(scenario())

    def test_disconnect_mid_response_counts_and_survives(
        self, service_logs, small_pop, direct_ref
    ):
        ref = direct_ref(0, 168)

        async def scenario():
            svc = make_service(
                service_logs, small_pop, executor_threads=1
            )
            async with svc:
                gate = threading.Event()
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", svc.port
                    )
                    # park the executor so the query is provably
                    # unanswered when the client resets the connection
                    svc._executor.submit(gate.wait)
                    payload = b'{"op":"window","id":1,"t0":0,"t1":168}'
                    writer.write(struct.pack(">I", len(payload)) + payload)
                    await writer.drain()
                    await wait_for(lambda: svc.stats.queries == 1)
                    # SO_LINGER(on, 0): close sends RST, not FIN
                    sock = writer.get_extra_info("socket")
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    writer.close()
                    gate.set()
                    await wait_for(lambda: svc.stats.disconnects == 1)
                finally:
                    gate.set()
                # the tenant's admission charge was still released
                assert (
                    svc.admission.tenants["anon"].in_flight_queries == 0
                )
                async with ServiceClient(port=svc.port) as client:
                    net = await client.query_window(0, 168)
                assert svc.stats.errors == 0
                return net

        net = asyncio.run(scenario())
        assert_bit_identical(net.adjacency, ref.adjacency)


class TestReloadInFlight:
    """The logs change on disk under a running server.  Its caches live
    as long as it does, so it never re-reads them: picking up new log
    bytes takes a restart."""

    def test_rank_file_rewritten_in_place_while_query_in_flight(
        self, service_logs, small_pop, tmp_path
    ):
        """Same path, same inode, same size, other records — a held
        mapping shows the new bytes and, chunk offsets being equal, they
        would pass every CRC.  The live cache must answer from the bytes
        it digested or fail typed; it must never serve a tile of the new
        bytes under the old digest."""
        log_dir = tmp_path / "logs"
        shutil.copytree(service_logs, log_dir)
        n = small_pop.n_persons
        ref_old, _ = synthesize_from_logs(log_dir, n, 24, 192)
        ref_warm, _ = synthesize_from_logs(log_dir, n, 24, 96)
        victim = log_dir / "rank_0001.evl"
        with LogReader(victim) as reader:
            rec = reader.read_all()
            chunk = reader.chunks[0].n_records
        rec["person"] = (rec["person"] + 1) % n
        rewritten = tmp_path / "rewritten.evl"
        with CachedLogWriter(rewritten, rank=1, cache_records=chunk) as w:
            w.log_batch(rec)
        new_bytes = rewritten.read_bytes()
        assert len(new_bytes) == victim.stat().st_size

        async def answer(client, t0, t1):
            try:
                return await client.query_window(t0, t1)
            except ServiceError as exc:
                return exc

        async def scenario():
            svc = make_service(log_dir, small_pop, executor_threads=2)
            async with svc:
                gate_handle = svc._handles["full"]
                async with ServiceClient(port=svc.port) as a:
                    async with ServiceClient(port=svc.port) as b:
                        # tiles 1..3 built from the digested bytes
                        await b.query_window(24, 96)
                        gate = _Gate(gate_handle)
                        inflight = asyncio.create_task(answer(a, 24, 192))
                        await wait_for(gate.started.is_set)
                        with victim.open("r+b") as fh:  # no truncate: the
                            fh.write(new_bytes)  # mapping stays backed
                        gate.release.set()
                        replies = [await inflight, await answer(b, 24, 192)]
                        warm = await b.query_window(24, 96)
                assert svc._handles["full"] is gate_handle
                assert svc.stats.errors == 0
            return replies, warm

        async def restarted():
            async with make_service(log_dir, small_pop) as svc:
                async with ServiceClient(port=svc.port) as client:
                    return await client.query_window(24, 192)

        replies, warm = asyncio.run(scenario())
        for reply in replies:
            if isinstance(reply, ServiceError):
                assert reply.code == "bad-request"
                assert "rewritten under a live tile cache" in str(reply)
            else:
                assert_bit_identical(reply.adjacency, ref_old.adjacency)
        # the window cached before the rewrite is still the old answer
        assert_bit_identical(warm.adjacency, ref_warm.adjacency)
        # a restarted server digests the new bytes
        ref_new, _ = synthesize_from_logs(log_dir, n, 24, 192)
        assert (ref_new.adjacency != ref_old.adjacency).nnz  # really changed
        assert_bit_identical(
            asyncio.run(restarted()).adjacency, ref_new.adjacency
        )


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_query(
        self, service_logs, small_pop, direct_ref
    ):
        ref = direct_ref(0, 24)

        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                gate = _Gate(svc._handles["full"])
                a = await ServiceClient(port=svc.port).connect()
                b = await ServiceClient(port=svc.port).connect()
                inflight = asyncio.create_task(a.query_window(0, 24))
                await wait_for(gate.started.is_set)
                resp = await b.shutdown()
                assert resp["stopping"] is True
                await wait_for(lambda: svc._draining)
                # draining: pings answer (and say so), queries refused
                assert (await b.ping())["draining"] is True
                with pytest.raises(ServiceError) as err:
                    await b.query_window(0, 24)
                assert err.value.code == "shutting-down"
                gate.release.set()
                net = await inflight
                await svc.wait_stopped()
                assert svc.stats.errors == 0
                assert svc.stats.disconnects == 0
                await a.close()
                await b.close()
                return net

        net = asyncio.run(scenario())
        # the drained query's response arrived complete and correct
        assert_bit_identical(net.adjacency, ref.adjacency)

    def test_new_connection_mid_drain_is_answered_not_hung(
        self, service_logs, small_pop
    ):
        """The listener stays open while the drain waits, so a client
        racing the shutdown gets a fast ``shutting-down`` answer instead
        of a connection refusal or a hang on half-sent bytes."""

        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                gate = _Gate(svc._handles["full"])
                holder = await ServiceClient(port=svc.port).connect()
                inflight = asyncio.create_task(holder.query_window(0, 24))
                await wait_for(gate.started.is_set)
                stop_task = asyncio.create_task(svc.stop())
                await wait_for(lambda: svc._draining)
                # a brand-new connection mid-drain: accepted and answered
                late = await ServiceClient(port=svc.port).connect()
                with pytest.raises(ServiceError) as err:
                    await late.query_window(0, 24)
                assert err.value.code == "shutting-down"
                # control ops still answer mid-drain, including probes
                assert (await late.ping())["draining"] is True
                assert (await late.liveness())["state"] == "draining"
                assert (await late.readiness())["ready"] is False
                gate.release.set()
                await inflight
                await stop_task
                await holder.close()
                await late.close()

        asyncio.run(scenario())

    def test_drain_timeout_force_closes_wedged_connection(
        self, service_logs, small_pop
    ):
        """A composition that never finishes must not wedge stop():
        after drain_timeout the writer is force-aborted and stop()
        returns, with the executor torn down without joining the hung
        thread."""

        async def scenario():
            svc = make_service(
                service_logs, small_pop,
                executor_threads=1, drain_timeout=0.3,
            )
            async with svc:
                gate = _Gate(svc._handles["full"])
                client = await ServiceClient(port=svc.port).connect()
                stuck = asyncio.create_task(client.query_window(0, 24))
                await wait_for(gate.started.is_set)
                loop = asyncio.get_running_loop()
                start = loop.time()
                await svc.stop()  # gate never released before this
                assert loop.time() - start < 5.0  # bounded, not hung
                # the wedged client was reset, not waited on
                with pytest.raises(
                    (ServiceError, ConnectionError, OSError,
                     asyncio.IncompleteReadError)
                ):
                    await stuck
                gate.release.set()  # unwedge the executor thread
                await client.close()

        asyncio.run(scenario())

    def test_disconnect_during_response_write_counts_exactly_once(
        self, service_logs, small_pop
    ):
        """A client that vanishes while its response is being written is
        one disconnect — not one per cleanup path."""

        async def scenario():
            svc = make_service(
                service_logs, small_pop, executor_threads=1
            )
            async with svc:
                gate = threading.Event()
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", svc.port
                    )
                    svc._executor.submit(gate.wait)
                    payload = b'{"op":"window","id":1,"t0":0,"t1":336}'
                    writer.write(struct.pack(">I", len(payload)) + payload)
                    await writer.drain()
                    await wait_for(lambda: svc.stats.queries == 1)
                    sock = writer.get_extra_info("socket")
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    writer.close()
                    gate.set()
                    await wait_for(lambda: svc.stats.disconnects >= 1)
                finally:
                    gate.set()
                # settle every cleanup path, then recount
                async with ServiceClient(port=svc.port) as probe:
                    for _ in range(3):
                        await probe.ping()
                assert svc.stats.disconnects == 1
                assert svc.stats.errors == 0

        asyncio.run(scenario())
