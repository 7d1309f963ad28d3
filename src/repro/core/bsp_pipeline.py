"""BSP (MPI-style) synthesis — the paper's Rmpi execution mode.

The task-pool pipeline (:mod:`repro.core.pipeline`) mirrors SNOW's
master/worker socket cluster; this module mirrors the other backend the
paper names: "For larger clusters the use of an MPI backend through the
Rmpi library allows for parallelization across a much larger number of
processes."

Here every stage is an explicit collective on a
:class:`~repro.distrib.simcluster.SimCluster`:

1. the root slices and groups records, then **scatters** per-place record
   groups across ranks (record-count balanced);
2. ranks build their per-place interval packs locally;
3. ranks **allgather** per-pack pairwise work, compute the LPT assignment
   redundantly, and **exchange packs all-to-all** so each rank ends up
   with its work-balanced share — the paper's "collocation matrix list
   partitioning" step made visible as real communication;
4. ranks compute and sum their ``x·xᵀ`` share and the root **reduces**
   the partial adjacencies.

The output is bit-identical to the serial pipeline (tested), and the
returned traffic stats expose the communication cost of each stage —
something the paper's wall-clock numbers fold together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..distrib.comm import Communicator, TrafficStats
from ..distrib.simcluster import SimCluster
from ..errors import SynthesisError
from ..evlog.multifile import LogSet, try_read_time_slice
from ..evlog.schema import LogRecordArray
from .adjacency import accumulate_adjacency
from .balance import lpt_partition
from .intervals import interval_pack_for_place, sum_pack_adjacency
from ..obs import get_probe, start_span
from .network import CollocationNetwork
from .pipeline import check_batch_size
from .slicing import records_by_place, slice_records

__all__ = [
    "BspSynthesisResult",
    "synthesize_network_bsp",
    "synthesize_from_logs_bsp",
]


def _chunk_groups(
    groups: list[tuple[int, LogRecordArray]], n_chunks: int
) -> list[list[tuple[int, LogRecordArray]]]:
    """Split place groups into roughly record-balanced chunks, preserving
    a deterministic order."""
    if n_chunks <= 1 or len(groups) <= 1:
        return [groups]
    # simple greedy by record count, stable across runs
    sizes = np.array([len(rec) for _, rec in groups], dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    loads = np.zeros(n_chunks, dtype=np.int64)
    chunks: list[list[tuple[int, LogRecordArray]]] = [[] for _ in range(n_chunks)]
    for i in order:
        b = int(np.argmin(loads))
        chunks[b].append(groups[int(i)])
        loads[b] += sizes[i]
    return [c for c in chunks if c]


@dataclass
class BspSynthesisResult:
    """Network plus the run's communication profile."""

    network: CollocationNetwork
    traffic: TrafficStats
    n_ranks: int
    n_places: int
    matrices_moved: int  # matrices that changed rank during balancing
    #: batches processed (1 for the in-memory entry point)
    batches: int = 1
    #: damaged log files skipped by the from-logs entry point
    quarantined: list[str] = field(default_factory=list)


def synthesize_network_bsp(
    records: LogRecordArray,
    n_persons: int,
    t0: int,
    t1: int,
    n_ranks: int,
) -> BspSynthesisResult:
    """Synthesize the collocation network on a simulated MPI cluster.

    Each rank builds per-place interval packs in stage 2, balanced by
    pairwise work in stage 3.  Output is bit-identical to the task-pool
    pipeline.
    """
    if n_persons <= 0:
        raise SynthesisError("n_persons must be positive")
    if n_ranks < 1:
        raise SynthesisError("need at least one rank")

    def rank_fn(comm: Communicator):
        rank = comm.rank
        # --- stage 1: root slices/groups and scatters place groups -------
        if rank == 0:
            sliced = slice_records(records, t0, t1)
            place_ids, groups = records_by_place(sliced)
            paired = list(zip((int(p) for p in place_ids), groups))
            chunks = _chunk_groups(paired, comm.size)
            # pad to one chunk per rank
            while len(chunks) < comm.size:
                chunks.append([])
            shipment: list = [chunks[r] for r in range(comm.size)]
        else:
            shipment = [None] * comm.size
        # root keeps chunk 0, ships the rest (alltoall from root's row)
        my_groups = comm.alltoall(shipment if rank == 0 else [None] * comm.size)[0]
        if my_groups is None:
            my_groups = []

        # --- stage 2: local interval packs ---------------------------------
        matrices = [
            interval_pack_for_place(place, recs, t0, t1)
            for place, recs in my_groups
        ]

        # --- stage 3: work-balanced redistribution -------------------------
        local_nnz = np.array([m.work for m in matrices], dtype=np.int64)
        all_nnz = comm.allgather(local_nnz)
        owners = np.concatenate(
            [np.full(len(v), r, dtype=np.int64) for r, v in enumerate(all_nnz)]
        ) if any(len(v) for v in all_nnz) else np.empty(0, dtype=np.int64)
        flat_nnz = (
            np.concatenate(all_nnz)
            if any(len(v) for v in all_nnz)
            else np.empty(0, dtype=np.int64)
        )
        buckets, _ = lpt_partition(flat_nnz.tolist(), comm.size)
        dest = np.empty(len(flat_nnz), dtype=np.int64)
        for b, items in enumerate(buckets):
            for i in items:
                dest[i] = b
        # global index range owned by this rank
        offsets = np.concatenate(
            ([0], np.cumsum([len(v) for v in all_nnz]))
        )
        my_lo, my_hi = offsets[rank], offsets[rank + 1]
        moved = int(np.count_nonzero(dest[my_lo:my_hi] != rank))
        payloads: list[list | None] = [None] * comm.size
        for r in range(comm.size):
            ship = [
                matrices[g - my_lo]
                for g in range(my_lo, my_hi)
                if dest[g] == r
            ]
            payloads[r] = ship if ship else None
        received = comm.alltoall(payloads)
        my_share: list = []
        for part in received:
            if part:
                my_share.extend(part)

        # --- stage 4: adjacency + reduction --------------------------------
        partial = sum_pack_adjacency(my_share, n_persons)
        total = comm.reduce_with(partial, lambda a, b: a + b, root=0)
        return total, len(matrices), moved

    with start_span("synthesize_bsp", attrs={"ranks": n_ranks}) as span:
        cluster = SimCluster(n_ranks)
        result = cluster.run(rank_fn)
        span.set_attr("bytes_sent", result.total_traffic.bytes_sent)
    adjacency, n_places, _ = result.returns[0]
    total_moved = sum(r[2] for r in result.returns)
    total_places = sum(r[1] for r in result.returns)
    probe = get_probe()
    probe.count("bsp.runs")
    probe.count("bsp.bytes_sent", result.total_traffic.bytes_sent)
    probe.count("bsp.messages_sent", result.total_traffic.messages_sent)
    probe.count("bsp.matrices_moved", total_moved)
    network = CollocationNetwork(
        accumulate_adjacency([adjacency], n_persons), t0=t0, t1=t1
    )
    return BspSynthesisResult(
        network=network,
        traffic=result.total_traffic,
        n_ranks=n_ranks,
        n_places=total_places,
        matrices_moved=total_moved,
    )


def synthesize_from_logs_bsp(
    log_dir: "str | Path | LogSet",
    n_persons: int,
    t0: int,
    t1: int,
    n_ranks: int,
    batch_size: int = 16,
    strict: bool = False,
    cache=None,
) -> BspSynthesisResult:
    """Batched from-logs synthesis on the simulated MPI cluster.

    Mirrors :func:`~repro.core.pipeline.synthesize_from_logs` — independent
    batches of ``batch_size`` files, per-batch networks summed — but runs
    each batch as a BSP job.  Damaged files are quarantined exactly as in
    the task-pool pipeline unless ``strict=True``.

    With a :class:`~repro.core.tilecache.TileCache`, the window is served
    from cached tiles (bit-identical) and no cluster
    communication happens at all — the zero-traffic result shows what the
    cache saves over a full BSP re-synthesis.
    """
    from ..evlog.reader import LogReader

    check_batch_size(batch_size)
    if cache is not None:
        if cache.n_persons != n_persons:
            raise SynthesisError(
                f"cache population {cache.n_persons} != requested {n_persons}"
            )
        return BspSynthesisResult(
            network=cache.query_window(t0, t1),
            traffic=TrafficStats(),
            n_ranks=n_ranks,
            n_places=0,
            matrices_moved=0,
            batches=0,
            quarantined=list(cache.quarantined),
        )

    log_set = log_dir if isinstance(log_dir, LogSet) else LogSet(log_dir)
    network: CollocationNetwork | None = None
    traffic = TrafficStats()
    quarantined: list[str] = []
    n_places = 0
    moved = 0
    batches = 0
    for batch in log_set.batches(batch_size):
        parts = []
        for path in batch:
            if strict:
                rec = LogReader(path, strict=True).read_time_slice(t0, t1)
            else:
                rec, _reason = try_read_time_slice(path, t0, t1)
                if rec is None:
                    quarantined.append(str(path))
                    continue
            if len(rec):
                parts.append(rec)
        batches += 1
        if not parts:
            continue
        records = np.concatenate(parts) if len(parts) > 1 else parts[0]
        result = synthesize_network_bsp(records, n_persons, t0, t1, n_ranks)
        network = (
            result.network if network is None else network + result.network
        )
        traffic = traffic.merged([result.traffic])
        n_places += result.n_places
        moved += result.matrices_moved
    if network is None:
        network = CollocationNetwork(
            accumulate_adjacency([], n_persons), t0=t0, t1=t1
        )
    return BspSynthesisResult(
        network=network,
        traffic=traffic,
        n_ranks=n_ranks,
        n_places=n_places,
        matrices_moved=moved,
        batches=batches,
        quarantined=quarantined,
    )
