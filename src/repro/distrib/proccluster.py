"""Real-process BSP cluster (fork + queues).

:class:`~repro.distrib.simcluster.SimCluster` runs ranks as lock-stepped
threads and :class:`~repro.distrib.lockstep.LockstepCluster` as generators
on one thread — perfect for determinism and traffic metering, irrelevant
for wall-clock speed.  :class:`ProcessBspCluster` runs the *same SPMD rank
functions* as genuine OS processes, the closest a pure-Python stack gets
to the paper's MPI deployment:

* ranks are forked children (closures work without pickling, like an
  ``mpiexec`` launch inheriting the binary image);
* each rank owns an inbox (``multiprocessing.Queue``); collectives are
  sequence-tagged messages so consecutive collectives never interleave;
* barriers are ``multiprocessing.Barrier``;
* return values, traffic stats and the spans a rank finished (its
  collector dies with it) ship back over a result queue.

The communicator satisfies the same protocol as
:class:`~repro.distrib.comm.Communicator`, so any rank function written
for the simulated cluster runs here unchanged — verified by running the
full distributed model on both and comparing event streams bit-for-bit.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Any, Callable, Sequence

from ..errors import CommError
from ..obs import capture_spans, get_collector
from .comm import TrafficStats, payload_nbytes
from .simcluster import ClusterRunResult

__all__ = ["ProcessBspCluster", "ProcessCommunicator"]


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

    def allgather(self, obj: Any) -> list[Any]:
        """Everyone contributes one object; everyone gets the full list."""
        return self.alltoall([obj] * self.size)

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

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast *obj* from *root* to every rank."""
        seq = self._seq
        self._seq += 1
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._send(dest, seq, obj)
            self.stats.record(
                "bcast", self.size - 1, payload_nbytes(obj) * (self.size - 1)
            )
            return obj
        out = self._recv(root, seq)
        self.stats.record("bcast", 0, 0)
        return out

    def allreduce_sum(self, value: Any) -> Any:
        """Sum across ranks (numbers or numpy arrays)."""
        import numpy as np

        gathered = self.allgather(value)
        total = gathered[0]
        if isinstance(total, np.ndarray):
            total = total.copy()
            for v in gathered[1:]:
                total += v
            return total
        return sum(gathered[1:], start=total)

    def reduce_with(
        self, value: Any, fn: Callable[[Any, Any], Any], root: int = 0
    ) -> Any:
        """Gather at *root* and fold with *fn*."""
        gathered = self.gather(value, root=root)
        if gathered is None:
            return None
        acc = gathered[0]
        for v in gathered[1:]:
            acc = fn(acc, v)
        return acc


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
        """Execute ``rank_fn(comm, *args)`` on every rank; gather results."""
        if rank_args is not None and len(rank_args) != self.n_ranks:
            raise CommError("rank_args must match n_ranks")
        ctx = mp.get_context("fork")
        inboxes = [ctx.Queue() for _ in range(self.n_ranks)]
        barrier = ctx.Barrier(self.n_ranks)
        results = ctx.Queue()

        def child(rank: int) -> None:
            comm = ProcessCommunicator(rank, inboxes, barrier)
            with capture_spans() as spans:
                try:
                    value = rank_fn(
                        comm, *(rank_args[rank] if rank_args is not None else ())
                    )
                    status = "ok"
                except BaseException as exc:  # noqa: BLE001 - shipped to parent
                    value, status = repr(exc), "error"
            results.put((rank, status, value, comm.stats, spans))

        if self.n_ranks == 1:
            comm = ProcessCommunicator(0, inboxes, barrier)
            value = rank_fn(
                comm, *(rank_args[0] if rank_args is not None else ())
            )
            return ClusterRunResult(returns=[value], traffic=[comm.stats])

        procs = [
            ctx.Process(target=child, args=(rank,), daemon=True)
            for rank in range(self.n_ranks)
        ]
        for p in procs:
            p.start()
        returns: list[Any] = [None] * self.n_ranks
        traffic: list[TrafficStats] = [TrafficStats()] * self.n_ranks
        errors: list[tuple[int, str]] = []
        for _ in range(self.n_ranks):
            try:
                rank, status, value, stats, spans = results.get(timeout=timeout)
            except Exception as exc:
                for p in procs:
                    p.terminate()
                raise CommError("rank process died or timed out") from exc
            traffic[rank] = stats
            get_collector().absorb(spans)
            if status == "ok":
                returns[rank] = value
            else:
                errors.append((rank, value))
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()
        if errors:
            errors.sort()
            rank, message = errors[0]
            raise CommError(f"rank {rank} failed: {message}")
        return ClusterRunResult(returns=returns, traffic=traffic)
