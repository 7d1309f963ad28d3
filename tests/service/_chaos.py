"""Fault injectors for the service chaos tests.

Three layers of mischief, each deterministic under a seeded RNG:

* :class:`ChaosProxy` — a TCP proxy in front of one server that rolls a
  fate per *response frame*: deliver, delay, truncate mid-frame (then
  reset both sides), or black-hole (stop forwarding, keep the socket
  open — the nastiest failure, detectable only by timeout).  Requests
  pass through untouched so the server sees well-formed traffic; it is
  the *client's* view that gets corrupted, which is exactly what the
  client must survive.
* :func:`kill_service` — a hard server kill: abort every connection and
  the listener with no drain, as if the process got SIGKILLed.
* :func:`corrupt_tile` — flip bytes in the middle of a persisted tile
  file, as if the disk or a torn write damaged it; the cache must
  quarantine and rebuild, never serve the damage.
"""

from __future__ import annotations

import asyncio
import random
import struct
from pathlib import Path

__all__ = ["ChaosProxy", "kill_service", "corrupt_tile"]


class ChaosProxy:
    """Fault-injecting TCP proxy in front of a single backend.

    Fates are rolled per server->client frame with the seeded ``rng``;
    probabilities are independent and checked in order (delay, truncate,
    blackhole), the remainder delivering cleanly.  Client->server bytes
    are never touched.
    """

    def __init__(
        self,
        backend_host: str,
        backend_port: int,
        rng: random.Random,
        delay_p: float = 0.0,
        delay_s: float = 0.05,
        truncate_p: float = 0.0,
        blackhole_p: float = 0.0,
    ) -> None:
        self.backend_host = backend_host
        self.backend_port = int(backend_port)
        self.rng = rng
        self.delay_p = delay_p
        self.delay_s = delay_s
        self.truncate_p = truncate_p
        self.blackhole_p = blackhole_p
        self.counters = {
            "frames": 0,
            "delivered": 0,
            "delayed": 0,
            "truncated": 0,
            "blackholed": 0,
        }
        self._server: asyncio.base_events.Server | None = None
        self._tasks: set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ChaosProxy":
        self._server = await asyncio.start_server(
            self._handle, host="127.0.0.1", port=0
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()

    async def __aenter__(self) -> "ChaosProxy":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _handle(
        self, creader: asyncio.StreamReader, cwriter: asyncio.StreamWriter
    ) -> None:
        try:
            sreader, swriter = await asyncio.open_connection(
                self.backend_host, self.backend_port
            )
        except (ConnectionError, OSError):
            cwriter.close()
            return
        up = self._spawn(self._pump_up(creader, swriter))
        down = self._spawn(self._pump_down(sreader, cwriter))
        await asyncio.wait({up, down}, return_when=asyncio.FIRST_COMPLETED)
        for w in (cwriter, swriter):
            try:
                w.transport.abort()
            except (AttributeError, RuntimeError):
                w.close()
        up.cancel()
        down.cancel()

    async def _pump_up(self, reader, writer) -> None:
        """client -> server: byte-transparent."""
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass

    async def _read_response_frame(self, reader) -> bytes | None:
        """One whole length-prefixed frame (header + blob) as raw bytes."""
        try:
            prefix = await reader.readexactly(4)
            (hlen,) = struct.unpack(">I", prefix)
            header = await reader.readexactly(hlen)
            blob_len = 0
            try:
                import json

                blob_len = int(json.loads(header).get("blob_len", 0))
            except (ValueError, AttributeError):
                pass
            blob = await reader.readexactly(blob_len) if blob_len > 0 else b""
            return prefix + header + blob
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ):
            return None

    async def _pump_down(self, reader, writer) -> None:
        """server -> client: frame-aware fate roll per response."""
        while True:
            frame = await self._read_response_frame(reader)
            if frame is None:
                break
            self.counters["frames"] += 1
            roll = self.rng.random()
            try:
                if roll < self.blackhole_p:
                    # stop forwarding but keep the socket open: the
                    # client's read must time out, nothing else fires
                    self.counters["blackholed"] += 1
                    await asyncio.sleep(3600)
                roll -= self.blackhole_p
                if roll < self.truncate_p:
                    self.counters["truncated"] += 1
                    writer.write(frame[: max(1, len(frame) // 2)])
                    await writer.drain()
                    break  # connection reset by _handle's cleanup
                roll -= self.truncate_p
                if roll < self.delay_p:
                    self.counters["delayed"] += 1
                    await asyncio.sleep(self.delay_s)
                self.counters["delivered"] += 1
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                break


async def kill_service(svc) -> None:
    """SIGKILL-shaped stop: no drain, every connection reset."""
    if svc._server is not None:
        svc._server.close()
        await svc._server.wait_closed()
        svc._server = None
    for writer in list(svc._writers):
        try:
            writer.transport.abort()
        except (AttributeError, RuntimeError):
            writer.close()
    svc.config.drain_timeout = 0.0
    await svc.stop()


def corrupt_tile(cache_dir: str | Path, which: int = 0) -> Path:
    """Flip bytes in the middle of the ``which``-th persisted tile."""
    tiles = sorted(Path(cache_dir).glob("tile_*.npz"))
    assert tiles, f"no persisted tiles under {cache_dir}"
    path = tiles[which % len(tiles)]
    raw = bytearray(path.read_bytes())
    mid = len(raw) // 2
    for i in range(mid, min(mid + 64, len(raw))):
        raw[i] ^= 0xFF
    path.write_bytes(bytes(raw))
    return path
