"""Streaming multi-week synthesis and temporal network series.

The paper builds the complete network by processing log files and time
intervals sequentially: "The process for generating a collocation network
from the simulation log file is applied to the log files sequentially such
that a number of adjacency matrices for each log file and for each time
interval are created.  To generate the complete network across multiple
log files, the adjacency matrices are simply summed."

:class:`StreamingSynthesizer` runs that loop with bounded memory (one
week's records at a time via the chunk index), producing a
:class:`WeeklyNetworkSeries` — per-interval networks plus the temporal
statistics they enable: edge persistence between consecutive weeks and
edge recurrence (how many weeks a pair keeps meeting), which separate the
stable social core (household, school, work) from incidental venue
contacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..config import HOURS_PER_WEEK
from ..errors import SynthesisError
from ..evlog.multifile import LogSet
from ..distrib.taskpool import WorkerPool
from ..obs import start_span
from .adjacency import sum_partials
from .network import CollocationNetwork
from .pipeline import check_batch_size, synthesize_from_logs

__all__ = ["WeeklyNetworkSeries", "StreamingSynthesizer"]


@dataclass
class WeeklyNetworkSeries:
    """Per-interval collocation networks over a simulation."""

    networks: list[CollocationNetwork]
    interval_hours: int

    def __post_init__(self) -> None:
        if not self.networks:
            raise SynthesisError("series needs at least one interval")
        n = self.networks[0].n_persons
        if any(net.n_persons != n for net in self.networks):
            raise SynthesisError("intervals cover different populations")

    @property
    def n_intervals(self) -> int:
        return len(self.networks)

    @property
    def n_persons(self) -> int:
        return self.networks[0].n_persons

    def total(self) -> CollocationNetwork:
        """The complete summed network ("adjacency matrices simply summed"):
        every interval adjacency in one :func:`sum_partials` pass."""
        t0 = min(net.t0 for net in self.networks)
        t1 = max(net.t1 for net in self.networks)
        adjacency = sum_partials(
            [net.adjacency for net in self.networks], self.n_persons
        )
        return CollocationNetwork(adjacency, t0=t0, t1=t1)

    def _binary(self, index: int) -> sp.csr_matrix:
        a = self.networks[index].adjacency.copy()
        a.data = np.ones_like(a.data)
        return a

    def edge_persistence(self) -> np.ndarray:
        """Fraction of interval-w edges that recur in interval w+1.

        High persistence = a stable social core; the venue fringe churns.
        """
        if self.n_intervals < 2:
            return np.empty(0, dtype=np.float64)
        out = np.empty(self.n_intervals - 1, dtype=np.float64)
        prev = self._binary(0)
        for w in range(1, self.n_intervals):
            cur = self._binary(w)
            both = prev.multiply(cur).nnz
            out[w - 1] = both / prev.nnz if prev.nnz else 0.0
            prev = cur
        return out

    def edge_recurrence(self) -> tuple[np.ndarray, np.ndarray]:
        """``(weeks, pair_counts)``: how many pairs met in exactly *w*
        intervals (w ≥ 1)."""
        acc = sum_partials(
            [self._binary(w) for w in range(self.n_intervals)], self.n_persons
        )
        counts = np.bincount(
            acc.data.astype(np.int64), minlength=self.n_intervals + 1
        )[1:]
        weeks = np.arange(1, self.n_intervals + 1)
        keep = counts > 0
        return weeks[keep], counts[keep]

    def interval_edge_counts(self) -> np.ndarray:
        return np.array([net.n_edges for net in self.networks], dtype=np.int64)


class StreamingSynthesizer:
    """Bounded-memory multi-interval synthesis from per-rank logs."""

    def __init__(
        self,
        n_persons: int,
        interval_hours: int = HOURS_PER_WEEK,
        batch_size: int = 16,
        pool: WorkerPool | None = None,
    ) -> None:
        check_batch_size(batch_size)
        if interval_hours <= 0:
            raise SynthesisError("interval_hours must be positive")
        self.n_persons = n_persons
        self.interval_hours = interval_hours
        self.batch_size = batch_size
        self.pool = pool

    def process(
        self, log_set: LogSet | str, n_intervals: int
    ) -> WeeklyNetworkSeries:
        """Synthesize one network per interval ``[w·H, (w+1)·H)``."""
        if n_intervals < 1:
            raise SynthesisError("need at least one interval")
        logs = log_set if isinstance(log_set, LogSet) else LogSet(log_set)
        networks = []
        with start_span("stream", attrs={"intervals": n_intervals}):
            for w in range(n_intervals):
                t0 = w * self.interval_hours
                t1 = t0 + self.interval_hours
                with start_span("interval", attrs={"t0": t0, "t1": t1}):
                    net, _ = synthesize_from_logs(
                        logs,
                        self.n_persons,
                        t0,
                        t1,
                        batch_size=self.batch_size,
                        pool=self.pool,
                    )
                networks.append(net)
        return WeeklyNetworkSeries(
            networks=networks, interval_hours=self.interval_hours
        )
