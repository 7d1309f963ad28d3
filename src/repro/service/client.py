"""Clients for the network-query service.

:class:`ServiceClient` is the asyncio client used by the concurrency
tests and the load-generator benchmark: one TCP connection, sequential
request/response (pipelining is the protocol's job, concurrency is the
caller's — open several clients for parallel load).  Admission and
overload rejections surface as :class:`~repro.errors.AdmissionError` /
:class:`~repro.errors.OverloadError` carrying the server's
``retry_after``; ``retries`` turns them into bounded retry loops whose
sleeps are jittered and capped (``retry_after · 2^attempt`` up to
``max_retry_sleep``, scaled by a uniform jitter) so a herd of rejected
clients does not stampede back in lockstep.  A client-side ``deadline``
budget is attached to every request header; deadline rejections come
back as :class:`~repro.errors.DeadlineError` (``code="expired"`` when
dead on arrival, ``code="deadline"`` when it ran out mid-flight) and are
never retried here — the budget is already gone.  A reply whose blob
does not decode raises :class:`~repro.errors.FrameError`, exactly as a
reply whose frame does not parse.

:class:`SyncServiceClient` wraps any async client (this one or
:class:`~repro.service.failover.FailoverClient`) in a private event loop
for the CLI and scripts.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..core.network import CollocationNetwork
from ..errors import (
    AdmissionError,
    DeadlineError,
    FrameError,
    OverloadError,
    ServiceError,
)
from ..obs import start_span
from .protocol import (
    DEFAULT_PORT,
    MAX_FRAME,
    decode_csr,
    decode_network,
    read_frame,
    write_frame,
)
from .resilience import jittered_backoff

__all__ = ["ServiceClient", "SyncServiceClient", "EgoResult", "QueryMethods"]


class EgoResult:
    """Decoded ``ego`` response: symmetric CSR + global person ids."""

    def __init__(
        self,
        center: int,
        persons: np.ndarray,
        matrix: sp.csr_matrix,
        radius: int,
        t0: int,
        t1: int,
    ) -> None:
        self.center = center
        self.persons = persons
        self.matrix = matrix
        self.radius = radius
        self.t0 = t0
        self.t1 = t1

    @property
    def n_nodes(self) -> int:
        return len(self.persons)

    @property
    def n_edges(self) -> int:
        return int(self.matrix.nnz // 2)


class QueryMethods:
    """Typed query methods over an abstract ``request(op, **params)``.

    Shared by :class:`ServiceClient` (one connection) and
    :class:`~repro.service.failover.FailoverClient` (a replica set) so
    callers and the CLI can treat either uniformly.
    """

    async def request(self, op: str, **params: Any) -> tuple[dict, bytes]:
        raise NotImplementedError

    async def ping(self) -> dict:
        resp, _ = await self.request("ping")
        return resp

    async def liveness(self) -> dict:
        resp, _ = await self.request("live")
        return resp

    async def readiness(self) -> dict:
        resp, _ = await self.request("ready")
        return resp

    async def query_window(self, t0: int, t1: int) -> CollocationNetwork:
        """The full network of ``[t0, t1)``, bit-identical to a direct
        interval-kernel synthesis of the same window."""
        _resp, blob = await self.request("window", t0=t0, t1=t1)
        return decode_network(blob)

    async def query_layer(
        self, kind: str, t0: int, t1: int
    ) -> CollocationNetwork:
        """One place-kind layer's network of ``[t0, t1)``."""
        _resp, blob = await self.request("layer", kind=kind, t0=t0, t1=t1)
        return decode_network(blob)

    async def query_ego(
        self, person: int, t0: int, t1: int, radius: int | None = None
    ) -> EgoResult:
        """The induced ego subgraph around ``person`` over ``[t0, t1)``."""
        params: dict[str, Any] = {"person": person, "t0": t0, "t1": t1}
        if radius is not None:
            params["radius"] = radius
        resp, blob = await self.request("ego", **params)
        matrix, extra = decode_csr(blob)
        try:
            return EgoResult(
                center=int(extra["center"][0]),
                persons=extra["persons"],
                matrix=matrix,
                radius=int(extra["radius"][0]),
                t0=resp["t0"],
                t1=resp["t1"],
            )
        except (KeyError, IndexError) as exc:
            raise FrameError(f"ego reply lacks {exc}") from exc

    async def degree_summary(
        self, t0: int, t1: int, kind: str | None = None
    ) -> dict:
        """Degree summary + histogram of ``[t0, t1)`` (optionally one
        layer)."""
        params: dict[str, Any] = {"t0": t0, "t1": t1}
        if kind is not None:
            params["kind"] = kind
        resp, _ = await self.request("degrees", **params)
        return resp

    async def stats(self) -> dict:
        resp, _ = await self.request("stats")
        return resp

    async def metrics(self) -> dict:
        """The server's process-wide metrics registry snapshot."""
        resp, _ = await self.request("metrics")
        return resp


class ServiceClient(QueryMethods):
    """One connection to a :class:`NetworkQueryService`.

    Parameters
    ----------
    host, port:
        Server address.
    tenant:
        Admission-control identity sent with every query.
    retries:
        Extra attempts after an admission/overload rejection; each
        sleeps a jittered, capped back-off first.  0 surfaces the first
        rejection.
    deadline:
        Per-request budget (seconds) attached to every request header;
        the server rejects rather than serves work it cannot finish in
        time.  ``None`` sends no budget.  A per-call ``deadline=``
        keyword on :meth:`request` overrides it.
    max_retry_sleep:
        Cap on any single retry sleep, seconds.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        tenant: str = "anon",
        retries: int = 0,
        deadline: float | None = None,
        max_retry_sleep: float = 1.0,
        max_frame: int = MAX_FRAME,
        rng: random.Random | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.retries = int(retries)
        self.deadline = deadline
        self.max_retry_sleep = float(max_retry_sleep)
        self.max_frame = max_frame
        self._rng = rng
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0
        #: trace id echoed by the server for the most recent response —
        #: the key to pull that request's span tree out of a trace log
        self.last_trace_id: str | None = None

    async def connect(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- request core ---------------------------------------------------------

    async def request(self, op: str, **params: Any) -> tuple[dict, bytes]:
        """One raw request/response; raises mapped service errors."""
        if self._writer is None or self._reader is None:
            raise ServiceError("client is not connected", code="internal")
        if self.deadline is not None and "deadline" not in params:
            params["deadline"] = self.deadline
        attempts = self.retries + 1
        for attempt in range(attempts):
            self._next_id += 1
            header = {
                "op": op,
                "id": self._next_id,
                "tenant": self.tenant,
                **params,
            }
            # each attempt is its own span; the server parents its
            # request span to the context shipped in header["trace"]
            with start_span("client.request", attrs={"op": op}) as span:
                ctx = span.context()
                if ctx is not None:
                    header["trace"] = ctx.to_wire()
                write_frame(self._writer, header)
                await self._writer.drain()
                resp, blob = await read_frame(self._reader, self.max_frame)
                tid = resp.get("trace_id")
                if isinstance(tid, str) and tid:
                    self.last_trace_id = tid
                if not resp.get("ok"):
                    span.set_status(f"error:{resp.get('code')}")
            if resp.get("ok"):
                if resp.get("id") != header["id"]:
                    raise ServiceError(
                        f"response id {resp.get('id')!r} != request id "
                        f"{header['id']!r}",
                        code="internal",
                    )
                return resp, blob
            code = resp.get("code", "internal")
            message = resp.get("error", "service error")
            if code in ("admission", "overload"):
                retry_after = float(resp.get("retry_after", 0.05))
                if attempt + 1 < attempts:
                    # jittered + capped: rejected herds must de-correlate
                    await asyncio.sleep(
                        jittered_backoff(
                            attempt,
                            base=retry_after,
                            cap=self.max_retry_sleep,
                            rng=self._rng,
                        )
                    )
                    continue
                if code == "admission":
                    raise AdmissionError(message, retry_after=retry_after)
                raise OverloadError(message, retry_after=retry_after)
            if code in ("expired", "deadline"):
                raise DeadlineError(message, code=code)
            raise ServiceError(message, code=code)
        raise AssertionError("unreachable")

    # -- single-connection control ops ---------------------------------------

    async def reload(self) -> dict:
        resp, _ = await self.request("reload")
        return resp

    async def shutdown(self) -> dict:
        resp, _ = await self.request("shutdown")
        return resp


class SyncServiceClient:
    """Blocking facade over an async client (CLI / scripts).

    Owns a private event loop; every call connects lazily and runs one
    request to completion.  ``cls`` selects the wrapped client —
    :class:`ServiceClient` by default, or
    :class:`~repro.service.failover.FailoverClient` for a replica set.
    Not for concurrent use — open real async connections for load.
    """

    def __init__(self, cls: type | None = None, **kwargs: Any) -> None:
        self._cls = cls or ServiceClient
        self._kwargs = kwargs
        self._loop = asyncio.new_event_loop()
        self._client: Any = None

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def _ensure(self):
        if self._client is None:
            client = self._cls(**self._kwargs)
            self._run(client.connect())
            self._client = client
        return self._client

    def close(self) -> None:
        if self._client is not None:
            self._run(self._client.close())
            self._client = None
        if not self._loop.is_closed():
            self._loop.close()

    def __enter__(self) -> "SyncServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __getattr__(self, name: str):
        """Expose every async query method synchronously."""
        target = getattr(self._cls, name, None)
        if target is None or name.startswith("_"):
            raise AttributeError(name)

        def call(*args: Any, **kwargs: Any):
            client = self._ensure()
            return self._run(getattr(client, name)(*args, **kwargs))

        return call
