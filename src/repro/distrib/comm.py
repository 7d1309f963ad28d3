"""BSP communicator: MPI-style collectives over lock-stepped ranks.

The interface is a deliberately small subset of MPI — the collectives the
distributed model actually needs — with one addition MPI lacks natively:
every call is metered into :class:`TrafficStats`, because "minimizing
person agent movement between processes" is a headline objective of the
paper's partitioning and must be observable.

Payload size accounting favours numpy buffers (``nbytes``); arbitrary
objects fall back to their pickled size.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import CommError, RankDeadError, RankFailureError

__all__ = ["TrafficStats", "Communicator", "payload_nbytes"]


def payload_nbytes(obj: Any) -> int:
    """Approximate wire size of a payload in bytes."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # unpicklable: count nothing rather than crash metering
        return 0


@dataclass
class TrafficStats:
    """Per-rank communication accounting."""

    messages_sent: int = 0
    bytes_sent: int = 0
    collectives: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, n_messages: int, n_bytes: int) -> None:
        self.messages_sent += n_messages
        self.bytes_sent += n_bytes
        self.collectives += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + n_bytes

    def merged(self, others: Sequence["TrafficStats"]) -> "TrafficStats":
        total = TrafficStats(
            messages_sent=self.messages_sent,
            bytes_sent=self.bytes_sent,
            collectives=self.collectives,
            by_kind=dict(self.by_kind),
        )
        for o in others:
            total.messages_sent += o.messages_sent
            total.bytes_sent += o.bytes_sent
            total.collectives += o.collectives
            for k, v in o.by_kind.items():
                total.by_kind[k] = total.by_kind.get(k, 0) + v
        return total


class _SharedBoard:
    """Shared slots + a reusable barrier for one cluster.

    The barrier is an arrival counter under one lock plus one gate lock
    per rank, held shut while its rank is not passing: an arrival that
    is not the last waits on its own gate, and the last arrival opens
    every other gate and walks on.  A phase therefore costs each rank one
    lock hand-off, where ``threading.Barrier`` wakes every waiter through
    a shared condition.

    ``heartbeat_timeout`` arms a liveness deadline on every barrier phase:
    a rank that stops arriving (killed, hung) breaks the barrier for its
    siblings within the deadline instead of deadlocking them.  Per-rank
    arrival counts double as the failure detector — the ranks with the
    fewest arrivals at detection time are the suspects.  Once broken
    (a deadline passed, or :meth:`abort`), every ``sync`` raises at once.
    """

    def __init__(self, size: int, heartbeat_timeout: float | None = None) -> None:
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise CommError("heartbeat_timeout must be positive")
        self.size = size
        self.heartbeat_timeout = heartbeat_timeout
        self.slots: list[Any] = [None] * size
        # two alltoall exchange matrices, used alternately by call parity
        self.matrices: list[list[list[Any]]] = [
            [[None] * size for _ in range(size)] for _ in range(2)
        ]
        self._lock = threading.Lock()
        self._arrived = 0
        #: completed phases; a woken rank that sees it unchanged was
        #: woken by :meth:`abort`
        self._phase = 0
        self._broken = False
        self._gates = [threading.Lock() for _ in range(size)]
        for gate in self._gates:
            gate.acquire()
        # arrivals per rank; each rank writes only its own slot
        self.sync_counts: list[int] = [0] * size

    def suspects(self) -> list[int]:
        """Ranks that have fallen behind the barrier (likely dead)."""
        most = max(self.sync_counts)
        return [r for r, c in enumerate(self.sync_counts) if c < most]

    def _failure(self) -> RankFailureError:
        return RankFailureError(
            "cluster barrier broken (a rank failed or missed its "
            "heartbeat deadline)",
            suspects=self.suspects(),
        )

    def abort(self) -> None:
        """Break the barrier: every waiting and every later ``sync``
        raises :class:`~repro.errors.RankFailureError`."""
        with self._lock:
            self._broken = True
            # under the lock only a gate's owner can change it, and an
            # owner can only shut an open gate: a shut gate is safe to open
            for gate in self._gates:
                if gate.locked():
                    gate.release()

    def sync(self, rank: int) -> None:
        self.sync_counts[rank] += 1
        with self._lock:
            if self._broken:
                raise self._failure()
            phase = self._phase
            self._arrived += 1
            if self._arrived == self.size:
                self._arrived = 0
                self._phase += 1
                for other, gate in enumerate(self._gates):
                    if other != rank:
                        gate.release()
                return
        timeout = -1 if self.heartbeat_timeout is None else self.heartbeat_timeout
        if not self._gates[rank].acquire(timeout=timeout):
            self.abort()  # a rank died mid-collective
            raise self._failure()
        if self._phase == phase:
            raise self._failure()


class Communicator:
    """One rank's endpoint into the cluster.

    All collectives must be called by **every** rank in the same order —
    standard SPMD discipline; a rank raising an exception breaks the
    barrier and surfaces a :class:`~repro.errors.CommError` on the others
    rather than deadlocking.
    """

    def __init__(self, rank: int, board: _SharedBoard) -> None:
        if not 0 <= rank < board.size:
            raise CommError(f"rank {rank} outside cluster of {board.size}")
        self.rank = rank
        self._board = board
        self.stats = TrafficStats()
        self._alltoalls = 0  # calls made; its parity picks the matrix
        #: set by :meth:`die` — lets tests assert which rank was killed
        self.dead = False

    @property
    def size(self) -> int:
        return self._board.size

    # -- fault injection -------------------------------------------------------

    def die(self) -> None:
        """Simulate this rank being hard-killed mid-step.

        Raises :class:`~repro.errors.RankDeadError`, which the cluster
        runner treats as a silent exit: no barrier abort, no cleanup —
        siblings only learn of the death when the heartbeat deadline
        breaks the next barrier, exactly like a SIGKILLed MPI process.
        """
        self.dead = True
        raise RankDeadError(f"rank {self.rank} killed by fault injection")

    def barrier(self) -> None:
        self._board.sync(self.rank)
        self.stats.record("barrier", 0, 0)

    def alltoall(self, payloads: Sequence[Any]) -> list[Any]:
        """``payloads[j]`` is delivered to rank *j*; returns what every rank
        sent to me, indexed by source rank."""
        if len(payloads) != self.size:
            raise CommError(
                f"alltoall needs {self.size} payloads, got {len(payloads)}"
            )
        # One barrier per call: consecutive calls alternate between two
        # matrices, so a rank that runs ahead into call k+1 writes the matrix
        # nobody is reading; it cannot reach call k+2 (same matrix as k)
        # before barrier k+1, which every rank enters only after reading k.
        matrix = self._board.matrices[self._alltoalls & 1]
        self._alltoalls += 1
        row = matrix[self.rank]
        sent = n_msg = 0
        for j, payload in enumerate(payloads):
            row[j] = payload
            if j != self.rank:
                nbytes = payload_nbytes(payload)
                if nbytes > 0:
                    sent += nbytes
                    n_msg += 1
        self._board.sync(self.rank)
        received = [matrix[src][self.rank] for src in range(self.size)]
        self.stats.record("alltoall", n_msg, sent)
        return received

    def allgather(self, obj: Any) -> list[Any]:
        self._board.slots[self.rank] = obj
        self._board.sync(self.rank)
        result = list(self._board.slots)
        self._board.sync(self.rank)
        nbytes = payload_nbytes(obj) * (self.size - 1)
        self.stats.record("allgather", self.size - 1, nbytes)
        return result

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._board.slots[self.rank] = obj
        self._board.sync(self.rank)
        result = list(self._board.slots) if self.rank == root else None
        self._board.sync(self.rank)
        if self.rank != root:
            self.stats.record("gather", 1, payload_nbytes(obj))
        else:
            self.stats.record("gather", 0, 0)
        return result

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if self.rank == root:
            self._board.slots[root] = obj
        self._board.sync(self.rank)
        result = self._board.slots[root]
        self._board.sync(self.rank)
        if self.rank == root:
            self.stats.record("bcast", self.size - 1, payload_nbytes(obj) * (self.size - 1))
        else:
            self.stats.record("bcast", 0, 0)
        return result

    def allreduce_sum(self, value: Any) -> Any:
        """Sum across ranks; supports numbers and numpy arrays."""
        gathered = self.allgather(value)
        total = gathered[0]
        if isinstance(total, np.ndarray):
            total = total.copy()
            for v in gathered[1:]:
                total += v
            return total
        return sum(gathered[1:], start=total)

    def reduce_with(self, value: Any, fn: Callable[[Any, Any], Any], root: int = 0) -> Any:
        """Gather to *root* and fold with *fn* (root only; None elsewhere)."""
        gathered = self.gather(value, root=root)
        if gathered is None:
            return None
        acc = gathered[0]
        for v in gathered[1:]:
            acc = fn(acc, v)
        return acc
