"""Replica failover client for the network-query service.

:class:`FailoverClient` exposes the same typed query surface as
:class:`~repro.service.client.ServiceClient` but fans a *replica set*:
every request walks the replicas round-robin, skipping those whose
:class:`~repro.service.resilience.CircuitBreaker` is open, retrying
idempotent queries on the next healthy replica after connection
failures, frame corruption, timeouts, or overload rejections, with
jittered exponential backoff between full cycles.

Design points
-------------
* **Only idempotent ops.**  Every query op (``ping``/``live``/``ready``/
  ``stats``/``window``/``layer``/``ego``/``degrees``) is read-only and
  safe to repeat; ``shutdown`` is deliberately *not* exposed —
  retrying a mutation against a different replica is how split-brain
  stories start.
* **Per-replica circuit breakers.**  Connection errors and timeouts trip
  the breaker; an open breaker removes the replica from rotation until
  ``reset_timeout`` grants a half-open probe.  When *every* breaker is
  open the client force-probes the one closest to its reset — a fully
  open set must degrade to probing, not to instant failure.
* **Deadline aware.**  The client-side ``deadline`` bounds the *whole*
  failover dance: each attempt gets ``min(attempt_timeout, remaining)``
  and forwards the remaining budget in the frame header so the server
  sheds work this client will no longer wait for.
* **Tail-request hedging** (optional).  When ``hedge_after`` seconds
  pass without a primary answer, the same request is raced on the next
  healthy replica and the first answer wins — the loser is cancelled
  and its connection reset (the abandoned response would otherwise
  desynchronize the stream).
* **Errors**: deadline and domain errors (``bad-request`` etc.) are
  terminal — another replica would answer the same.  Exhausting every
  replica across ``retries`` cycles raises
  :class:`~repro.errors.ReplicaSetError` with the last failure as
  ``__cause__``.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any

from ..errors import (
    AdmissionError,
    DeadlineError,
    FrameError,
    OverloadError,
    ReplicaSetError,
    ServiceError,
)
from .client import QueryMethods, ServiceClient
from .protocol import MAX_FRAME
from .resilience import CircuitBreaker, Deadline, jittered_backoff

__all__ = ["FailoverClient"]

#: exceptions that mean "this replica (or the path to it) is unhealthy"
_REPLICA_FAULTS = (
    ConnectionError,
    OSError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    FrameError,
)


class _Replica:
    """One replica address, its breaker, and a lazily opened connection."""

    __slots__ = ("host", "port", "breaker", "client")

    def __init__(self, host: str, port: int, breaker: CircuitBreaker) -> None:
        self.host = host
        self.port = int(port)
        self.breaker = breaker
        self.client: ServiceClient | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def ensure(self, tenant: str, max_frame: int) -> ServiceClient:
        if self.client is None:
            client = ServiceClient(
                host=self.host,
                port=self.port,
                tenant=tenant,
                retries=0,
                max_frame=max_frame,
            )
            await client.connect()
            self.client = client
        return self.client

    async def reset(self) -> None:
        """Drop the connection; the next attempt reconnects fresh.  A
        connection that errored (or was abandoned mid-response) has lost
        stream phase and must not be reused."""
        if self.client is not None:
            client, self.client = self.client, None
            try:
                await client.close()
            except (ConnectionError, OSError):
                pass


class FailoverClient(QueryMethods):
    """Query a replica set with circuit breaking, retries, and hedging.

    Parameters
    ----------
    replicas:
        ``(host, port)`` pairs (or ``"host:port"`` strings), tried in
        round-robin order starting after the last replica that answered.
    retries:
        Full cycles over the replica set before giving up.
    attempt_timeout:
        Per-attempt bound, seconds; also trips the breaker of a replica
        that accepts connections but never answers (black hole).
    deadline:
        End-to-end budget per request (seconds), forwarded to servers as
        the remaining budget.  ``None`` relies on ``attempt_timeout``
        and ``retries`` alone.
    hedge_after:
        Race a second replica after this many seconds without a primary
        answer; ``None`` disables hedging.
    breaker_kwargs:
        Overrides for each replica's :class:`CircuitBreaker`.
    """

    def __init__(
        self,
        replicas: list,
        tenant: str = "anon",
        retries: int = 3,
        attempt_timeout: float | None = 5.0,
        deadline: float | None = None,
        hedge_after: float | None = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        breaker_kwargs: dict | None = None,
        max_frame: int = MAX_FRAME,
        rng: random.Random | None = None,
    ) -> None:
        if not replicas:
            raise ServiceError(
                "a failover client needs at least one replica",
                code="bad-request",
            )
        self.tenant = tenant
        self.retries = int(retries)
        self.attempt_timeout = attempt_timeout
        self.deadline = deadline
        self.hedge_after = hedge_after
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.max_frame = max_frame
        self._rng = rng
        bk = breaker_kwargs or {}
        self.replicas: list[_Replica] = []
        for rep in replicas:
            if isinstance(rep, str):
                host, _, port = rep.rpartition(":")
                rep = (host or "127.0.0.1", int(port))
            host, port = rep
            self.replicas.append(
                _Replica(host, port, CircuitBreaker(**bk))
            )
        self._rr = 0
        self.counters = {
            "attempts": 0,
            "failovers": 0,
            "hedges": 0,
            "hedged_wins": 0,
            "breaker_skips": 0,
        }

    # connect() is a no-op so SyncServiceClient can wrap either client
    # class; connections open lazily per replica on first use.
    async def connect(self) -> "FailoverClient":
        return self

    async def close(self) -> None:
        for rep in self.replicas:
            await rep.reset()

    async def __aenter__(self) -> "FailoverClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- one attempt ----------------------------------------------------------

    async def _attempt_on(
        self, rep: _Replica, op: str, params: dict, dl: Deadline
    ) -> tuple[dict, bytes]:
        """One bounded request on one replica; faults trip its breaker."""
        self.counters["attempts"] += 1
        loop = asyncio.get_running_loop()
        started = loop.time()
        timeout = dl.bound(self.attempt_timeout)
        send = dict(params)
        rem = dl.remaining()
        if rem is not None and "deadline" not in send:
            # forward the remaining budget so the server sheds work this
            # client will no longer wait for
            send["deadline"] = max(rem, 0.001)
        try:
            client = await rep.ensure(self.tenant, self.max_frame)
            result = await asyncio.wait_for(
                client.request(op, **send), timeout
            )
        except _REPLICA_FAULTS:
            await rep.reset()
            rep.breaker.record_failure()
            raise
        except asyncio.CancelledError:
            # a hedged loser: its response (if any) is still in flight
            # on this connection — drop the connection, keep the breaker
            await rep.reset()
            raise
        except (AdmissionError, OverloadError):
            # the replica is healthy, just busy — that is not a breaker
            # failure, or a shed burst would open every breaker at once
            rep.breaker.record_success(loop.time() - started)
            raise
        rep.breaker.record_success(loop.time() - started)
        return result

    def _next_healthy(self, exclude: "_Replica | None" = None):
        """The next breaker-approved replica in round-robin order."""
        n = len(self.replicas)
        for i in range(n):
            rep = self.replicas[(self._rr + i) % n]
            if rep is exclude:
                continue
            if rep.breaker.allow():
                self._rr = (self._rr + i + 1) % n
                return rep
            self.counters["breaker_skips"] += 1
        return None

    def _force_probe(self):
        """Every breaker is open: probe the one closest to reset."""
        return min(self.replicas, key=lambda r: r.breaker.reopen_in())

    # -- request with failover ------------------------------------------------

    async def request(self, op: str, **params: Any) -> tuple[dict, bytes]:
        if op == "shutdown":
            raise ServiceError(
                f"op {op!r} is not idempotent; send it to one replica "
                "with ServiceClient",
                code="bad-request",
            )
        dl = Deadline.after(
            params.pop("deadline", None) or self.deadline
        )
        last_fault: BaseException | None = None
        cycles = self.retries + 1
        for cycle in range(cycles):
            if dl.expired:
                raise DeadlineError(
                    f"deadline exhausted after {self.counters['attempts']} "
                    f"attempt(s) on {op!r}",
                    code="expired",
                )
            tried = 0
            while tried < len(self.replicas):
                rep = self._next_healthy()
                if rep is None:
                    rep = self._force_probe()
                tried += 1
                try:
                    return await self._hedged_attempt(rep, op, params, dl)
                except _REPLICA_FAULTS as exc:
                    last_fault = exc
                    self.counters["failovers"] += 1
                    continue  # next replica, same cycle
                except (AdmissionError, OverloadError) as exc:
                    last_fault = exc
                    break  # back off, then a fresh cycle
                # DeadlineError and other ServiceErrors propagate: every
                # replica would answer a bad request the same way
            if cycle + 1 < cycles:
                sleep = jittered_backoff(
                    cycle,
                    base=self.backoff_base,
                    cap=self.backoff_cap,
                    rng=self._rng,
                )
                bounded = dl.bound(sleep)
                if bounded is not None and bounded <= 0:
                    break
                await asyncio.sleep(bounded if bounded is not None else sleep)
        raise ReplicaSetError(
            f"all {len(self.replicas)} replica(s) failed {op!r} after "
            f"{self.counters['attempts']} attempt(s)"
        ) from last_fault

    async def _hedged_attempt(
        self, rep: _Replica, op: str, params: dict, dl: Deadline
    ) -> tuple[dict, bytes]:
        """One attempt, optionally racing a second replica on a slow tail."""
        if self.hedge_after is None or len(self.replicas) < 2:
            return await self._attempt_on(rep, op, params, dl)
        primary = asyncio.ensure_future(
            self._attempt_on(rep, op, params, dl)
        )
        try:
            wait = dl.bound(self.hedge_after)
            return await asyncio.wait_for(asyncio.shield(primary), wait)
        except asyncio.TimeoutError:
            pass  # slow tail: hedge below
        except BaseException:
            primary.cancel()
            raise
        backup_rep = self._next_healthy(exclude=rep)
        if backup_rep is None:
            return await primary
        self.counters["hedges"] += 1
        backup = asyncio.ensure_future(
            self._attempt_on(backup_rep, op, params, dl)
        )
        done, pending = await asyncio.wait(
            {primary, backup}, return_when=asyncio.FIRST_COMPLETED
        )
        # prefer a successful winner; a failed first-finisher falls
        # through to whichever is still running
        winner = None
        for fut in done:
            if fut.exception() is None:
                winner = fut
                break
        if winner is None and pending:
            winner = next(iter(pending))
            pending = set()
            try:
                await asyncio.shield(winner)
            except BaseException:
                pass
        for fut in {primary, backup} - {winner}:
            fut.cancel()
            try:
                await fut
            except BaseException:
                pass
        if winner is backup and winner.exception() is None:
            self.counters["hedged_wins"] += 1
        if winner is None:
            return primary.result()  # both failed: surface the primary
        return winner.result()
