"""What a collective costs: per-rank traffic and payload sizing.

Every collective a rank takes part in is metered into its
:class:`TrafficStats`, because "minimizing person agent movement between
processes" is a headline objective of the paper's partitioning and must be
observable.  The distributed model meters alike wherever its ranks run:
the hour kernel counts what the ranks of one process send each other
(one alltoall an active hour; a snapshot's gather and barrier are
counted beside it), and
:class:`~repro.distrib.proccluster.ProcessCommunicator` meters each
collective a forked rank performs, with :func:`payload_nbytes`'
formula either way.  :class:`~repro.distrib.proccluster.ProcessBspCluster`
returns a :class:`ClusterRunResult`.

Payload size accounting favours numpy buffers (``nbytes``); arbitrary
objects fall back to their pickled size.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = ["TrafficStats", "ClusterRunResult", "payload_nbytes"]


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

    def record(
        self, kind: str, n_messages: int, n_bytes: int, collectives: int = 1
    ) -> None:
        """Count ``collectives`` collectives of ``kind`` that sent
        ``n_messages`` messages of ``n_bytes`` bytes in all."""
        self.messages_sent += n_messages
        self.bytes_sent += n_bytes
        self.collectives += collectives
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
