"""In-process simulated cluster of lock-stepped thread ranks.

Runs an SPMD function on *n* ranks, each a Python thread with its own
:class:`~repro.distrib.comm.Communicator`.  Because rank functions only
interact at collectives (which are barrier-synchronized) and otherwise
touch only rank-private state, results are deterministic regardless of OS
thread scheduling.

This is the generic SPMD cluster: any ``rank_fn(comm, ...)`` runs on it,
and a rank blocked in a collective waits for its siblings as an MPI rank
would.  The distributed model does not build one by default any more: its
ranks are generators stepped in lockstep on one thread
(:class:`~repro.distrib.lockstep.LockstepCluster`), because under the
interpreter lock thread ranks only take turns, and every rank-hour paid a
barrier wake-up and a lock hand-off for it.  Passing ``cluster=SimCluster(n)``
runs the same model body here (``repro.distrib.lockstep.spmd``), with
logs, traffic and migrations equal to the default's (tested).  What the
model's ranks cost on top of the serial engine is measured
(``distrib.overhead_ratio`` of a traced ``benchmarks/e2e`` ``simlog-month``
run: about 1.1x at 10 k persons × 4 weeks on 4 lockstep ranks without
logs, one pinned cpu — ≈ 0.055 s against the serial engine's ≈ 0.047 s;
it was about 1.8x on thread ranks).  Real
process-parallel speedup lives in
:func:`~repro.distrib.shardsynth.shard_synthesize`.

Failure semantics mirror a real MPI job: a rank raising an ordinary
exception aborts the barrier so siblings fail fast with the root cause; a
rank raising :class:`~repro.errors.RankDeadError` (via
``Communicator.die``) exits *silently*, and detection is left to the
heartbeat deadline (``heartbeat_timeout``) — surviving ranks then raise
:class:`~repro.errors.RankFailureError` naming the suspects.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import CommError, RankDeadError, RankFailureError
from .comm import Communicator, TrafficStats, _SharedBoard

__all__ = ["SimCluster", "ClusterRunResult"]


@dataclass
class ClusterRunResult:
    """Return values and traffic from one SPMD run."""

    returns: list[Any]
    traffic: list[TrafficStats]

    @property
    def total_traffic(self) -> TrafficStats:
        if not self.traffic:
            return TrafficStats()
        return self.traffic[0].merged(self.traffic[1:])


class SimCluster:
    """A simulated cluster of ``n_ranks`` lock-stepped ranks.

    ``heartbeat_timeout`` (seconds) arms a liveness deadline on every
    collective: a rank that stops participating breaks the barrier for its
    siblings within the deadline instead of stalling the run until the
    overall ``timeout``.

    Example
    -------
    >>> cluster = SimCluster(4)
    >>> def rank_fn(comm):
    ...     return comm.allreduce_sum(comm.rank)
    >>> cluster.run(rank_fn).returns
    [6, 6, 6, 6]
    """

    def __init__(
        self, n_ranks: int, heartbeat_timeout: float | None = None
    ) -> None:
        if n_ranks < 1:
            raise CommError(f"cluster needs at least one rank, got {n_ranks}")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise CommError("heartbeat_timeout must be positive")
        self.n_ranks = n_ranks
        self.heartbeat_timeout = heartbeat_timeout

    def run(
        self,
        rank_fn: Callable[..., Any],
        rank_args: Sequence[tuple] | None = None,
        timeout: float | None = 600.0,
    ) -> ClusterRunResult:
        """Execute ``rank_fn(comm, *rank_args[rank])`` on every rank.

        Any rank raising propagates the first exception to the caller after
        breaking the barrier so sibling ranks do not deadlock.  ``timeout``
        bounds the whole run: it is one shared deadline for joining every
        rank thread, not a per-thread allowance (n slow ranks cannot
        stretch the wait to n × timeout).
        """
        if rank_args is not None and len(rank_args) != self.n_ranks:
            raise CommError(
                f"rank_args must have {self.n_ranks} entries, got {len(rank_args)}"
            )
        board = _SharedBoard(self.n_ranks, heartbeat_timeout=self.heartbeat_timeout)
        comms = [Communicator(r, board) for r in range(self.n_ranks)]
        returns: list[Any] = [None] * self.n_ranks
        errors: list[tuple[int, BaseException]] = []
        dead_ranks: list[int] = []
        lock = threading.Lock()

        def runner(rank: int) -> None:
            args = rank_args[rank] if rank_args is not None else ()
            try:
                returns[rank] = rank_fn(comms[rank], *args)
            except RankDeadError:
                # simulated hard kill: exit silently, leave the barrier
                # intact — siblings must detect the death via the
                # heartbeat deadline, as with a real SIGKILLed process
                with lock:
                    dead_ranks.append(rank)
            except BaseException as exc:  # noqa: BLE001 - rethrown below
                with lock:
                    errors.append((rank, exc))
                board.abort()

        if self.n_ranks == 1:
            # fast path, also keeps single-rank runs on the caller's stack
            runner(0)
        else:
            threads = [
                threading.Thread(
                    target=runner, args=(rank,), name=f"simrank-{rank}", daemon=True
                )
                for rank in range(self.n_ranks)
            ]
            for t in threads:
                t.start()
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            for t in threads:
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                t.join(timeout=remaining)
                if t.is_alive():
                    board.abort()
                    raise CommError(
                        f"rank thread {t.name} still running at the shared "
                        f"{timeout}s deadline"
                    )

        if errors:
            errors.sort(key=lambda e: e[0])
            rank, exc = errors[0]
            if isinstance(exc, CommError) and len(errors) > 1:
                # prefer the root-cause error over secondary broken barriers
                for r, e in errors:
                    if not isinstance(e, CommError):
                        rank, exc = r, e
                        break
            if isinstance(exc, RankFailureError):
                suspects = sorted(set(exc.suspects) | set(dead_ranks))
                raise RankFailureError(
                    f"rank {rank} detected a failed rank "
                    f"(suspects: {suspects}): {exc}",
                    suspects=suspects,
                ) from exc
            raise CommError(f"rank {rank} failed: {exc!r}") from exc
        if dead_ranks:
            # every surviving rank returned before noticing (or n_ranks == 1)
            suspects = sorted(dead_ranks)
            raise RankFailureError(
                f"rank(s) {suspects} died during the run", suspects=suspects
            )
        return ClusterRunResult(
            returns=returns, traffic=[c.stats for c in comms]
        )
