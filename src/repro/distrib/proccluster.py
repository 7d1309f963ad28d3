"""Real-process BSP cluster (fork + queues).

In process the distributed model steps every rank in one loop, with no
collective at all.  :class:`ProcessBspCluster` runs SPMD rank functions
as genuine OS processes, the closest a pure-Python stack gets to the
paper's MPI deployment:

* ranks are forked children (closures work without pickling, like an
  ``mpiexec`` launch inheriting the binary image);
* each rank owns an inbox (``multiprocessing.Queue``); collectives are
  sequence-tagged messages so consecutive collectives never interleave;
* barriers are ``multiprocessing.Barrier``;
* return values, traffic stats, the spans a rank finished and what it
  wrote to its metrics registry (its collector and registry die with it)
  ship back over a result queue; the parent absorbs both.

The communicator performs the three collectives the distributed model
needs — ``alltoall``, ``gather`` and ``barrier`` — and meters them as the
in-process hour kernel meters what its ranks send each other, so the
model's loop runs here for one rank a process and writes the same bytes
(verified by comparing rank logs, snapshots and per-rank traffic
byte-for-byte).

Failure semantics: ``timeout`` is one deadline for the whole run; a rank
that raises fails the run at once as a :class:`~repro.errors.CommError`
naming it; a rank that exits without reporting (``SIGKILL``, the OOM
killer) fails it as :class:`~repro.errors.RankFailureError` naming it
as soon as its exit code is seen.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import time
from typing import Any, Callable, Sequence

from ..errors import CommError, RankFailureError
from ..obs import MetricsRegistry, capture_spans, default_registry, get_collector
from .comm import ClusterRunResult, TrafficStats, payload_nbytes

__all__ = ["ProcessBspCluster", "ProcessCommunicator"]

#: how often the parent looks at its ranks' exit codes while it waits
_POLL_SECONDS = 0.05


class ProcessCommunicator:
    """MPI-like collectives over per-rank inbox queues.

    Message framing: ``(seq, src, payload)``.  Each collective increments
    ``seq``; receivers buffer out-of-order arrivals per sequence number,
    so back-to-back collectives cannot cross-contaminate.
    """

    def __init__(
        self,
        rank: int,
        inboxes: list[mp.Queue],
        barrier: mp.Barrier,  # type: ignore[valid-type]
    ) -> None:
        self.rank = rank
        self._inboxes = inboxes
        self._barrier = barrier
        self._seq = 0
        self._pending: dict[tuple[int, int], Any] = {}
        self.stats = TrafficStats()

    @property
    def size(self) -> int:
        return len(self._inboxes)

    # -- plumbing ---------------------------------------------------------

    def _send(self, dest: int, seq: int, payload: Any) -> None:
        self._inboxes[dest].put((seq, self.rank, payload))

    def _recv(self, src: int, seq: int, timeout: float = 300.0) -> Any:
        key = (seq, src)
        while key not in self._pending:
            try:
                got_seq, got_src, payload = self._inboxes[self.rank].get(
                    timeout=timeout
                )
            except Exception as exc:  # queue.Empty and friends
                raise CommError(
                    f"rank {self.rank} timed out waiting for "
                    f"(seq={seq}, src={src})"
                ) from exc
            self._pending[(got_seq, got_src)] = payload
        return self._pending.pop(key)

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        """Synchronize all ranks."""
        try:
            self._barrier.wait()
        except Exception as exc:
            raise CommError("process barrier broken") from exc
        self.stats.record("barrier", 0, 0)

    def alltoall(self, payloads: Sequence[Any]) -> list[Any]:
        """``payloads[j]`` delivered to rank *j*; returns by source."""
        if len(payloads) != self.size:
            raise CommError(
                f"alltoall needs {self.size} payloads, got {len(payloads)}"
            )
        seq = self._seq
        self._seq += 1
        sent_bytes = 0
        n_msg = 0
        for dest, payload in enumerate(payloads):
            if dest == self.rank:
                continue
            self._send(dest, seq, payload)
            nbytes = payload_nbytes(payload)
            sent_bytes += nbytes
            if nbytes:
                n_msg += 1
        received: list[Any] = [None] * self.size
        received[self.rank] = payloads[self.rank]
        for src in range(self.size):
            if src != self.rank:
                received[src] = self._recv(src, seq)
        self.stats.record("alltoall", n_msg, sent_bytes)
        return received

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Collect one object per rank at *root* (None elsewhere)."""
        seq = self._seq
        self._seq += 1
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self._recv(src, seq)
            self.stats.record("gather", 0, 0)
            return out
        self._send(root, seq, obj)
        self.stats.record("gather", 1, payload_nbytes(obj))
        return None


class ProcessBspCluster:
    """Run an SPMD rank function on real forked processes.

    Requires a fork-capable platform (POSIX).  Rank functions, their
    closures, and the world they capture are inherited by fork; results
    must be picklable to ship back.
    """

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise CommError("cluster needs at least one rank")
        if not hasattr(os, "fork"):
            raise CommError("ProcessBspCluster requires a fork platform")
        self.n_ranks = n_ranks

    def run(
        self,
        rank_fn: Callable[..., Any],
        rank_args: Sequence[tuple] | None = None,
        timeout: float = 600.0,
    ) -> ClusterRunResult:
        """Execute ``rank_fn(comm, *args)`` on every rank; gather results.

        ``timeout`` bounds the whole run: one shared deadline, not a
        per-rank allowance.  A rank that raises fails the run at once with
        a :class:`~repro.errors.CommError` naming it (on one rank, which
        runs in this process, the cause is chained); a rank that exits
        without reporting fails it with
        :class:`~repro.errors.RankFailureError` naming it.
        """
        if rank_args is not None and len(rank_args) != self.n_ranks:
            raise CommError("rank_args must match n_ranks")
        ctx = mp.get_context("fork")
        inboxes = [ctx.Queue() for _ in range(self.n_ranks)]
        barrier = ctx.Barrier(self.n_ranks)

        def args(rank: int) -> tuple:
            return rank_args[rank] if rank_args is not None else ()

        if self.n_ranks == 1:
            comm = ProcessCommunicator(0, inboxes, barrier)
            try:
                value = rank_fn(comm, *args(0))
            except Exception as exc:
                raise CommError(f"rank 0 failed: {exc!r}") from exc
            return ClusterRunResult(returns=[value], traffic=[comm.stats])

        results = ctx.Queue()

        def child(rank: int) -> None:
            comm = ProcessCommunicator(rank, inboxes, barrier)
            # the forked registry starts as the parent's: ship the change
            before = default_registry().snapshot()
            with capture_spans() as spans:
                try:
                    value = rank_fn(comm, *args(rank))
                    status = "ok"
                except BaseException as exc:  # noqa: BLE001 - shipped to parent
                    value, status = repr(exc), "error"
            metrics = MetricsRegistry.delta(before, default_registry().snapshot())
            metrics["gauges"] = {
                name: v
                for name, v in metrics["gauges"].items()
                if before["gauges"].get(name) != v
            }
            results.put((rank, status, value, comm.stats, spans, metrics))

        procs = [
            ctx.Process(target=child, args=(rank,), daemon=True)
            for rank in range(self.n_ranks)
        ]
        deadline = time.monotonic() + timeout
        for p in procs:
            p.start()
        returns: list[Any] = [None] * self.n_ranks
        traffic: list[TrafficStats] = [TrafficStats()] * self.n_ranks
        waiting = set(range(self.n_ranks))

        def take(report: tuple) -> None:
            rank, status, value, stats, spans, metrics = report
            waiting.discard(rank)
            traffic[rank] = stats
            get_collector().absorb(spans)
            default_registry().absorb(metrics)
            if status != "ok":
                raise CommError(f"rank {rank} failed: {value}")
            returns[rank] = value

        try:
            while waiting:
                left = deadline - time.monotonic()
                try:
                    take(results.get(timeout=min(_POLL_SECONDS, max(left, 0.0))))
                    continue
                except queue.Empty:
                    pass
                # a rank flushes its report before it exits: drain what
                # the exited ones sent, so a rank that reported is never
                # a suspect
                exited = {r for r in waiting if procs[r].exitcode is not None}
                while exited & waiting:
                    try:
                        take(results.get_nowait())
                    except queue.Empty:
                        break
                dead = sorted(exited & waiting)
                if dead:
                    codes = ", ".join(str(procs[r].exitcode) for r in dead)
                    raise RankFailureError(
                        f"rank(s) {dead} exited without reporting "
                        f"(exit code(s) {codes})",
                        suspects=dead,
                    )
                if left <= 0:
                    raise CommError(
                        f"rank(s) {sorted(waiting)} still running at the "
                        f"shared {timeout}s deadline"
                    )
        finally:
            for p in procs:
                if waiting:  # the run failed: nobody waits on a sibling
                    p.terminate()
                p.join(timeout=10.0)
                if p.is_alive():
                    p.terminate()
        return ClusterRunResult(returns=returns, traffic=traffic)
