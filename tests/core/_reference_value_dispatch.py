"""Synthesis as it ran before the per-file walk replaced by-value dispatch.

Everything here is the pre-change body verbatim (``dispatch="value"`` was
the default, so this is what every caller ran): the root reads each log
file through ``try_read_time_slice`` — a full ``verify()`` and then a
second decode of the window's chunks — concatenates struct records, and
``synthesize_network`` slices, clips, place-sorts and gathers them into
``n_workers × 4`` slabs before the shared pack / SpGEMM / accumulate
stages; the tile cache's by-value window task built one pack from the
concatenated records of all files.  ``_balance_packs`` and
``_pack_adjacency_task`` are the LPT-by-place stage 3/4 leg production
ran for more than one worker until every batch became one fold (the
report's ``balance`` field went with it and is not kept here).  Only the
``dispatch=`` / ``cache=`` / ``backend=`` / ``plan=`` arguments and the
branches they selected are cut out.

``kernel=`` survives here, and only here, as the test axis:
``kernel="dense-hours"`` is **the oracle** — struct records →
``records_by_place`` → ``collocation_matrix_for_place`` → scipy ``x·xᵀ``
(``sum_adjacency_list``), no interval pack and no C kernel anywhere on
the way — and ``kernel="intervals"`` is the by-value orchestration of the
production pack arithmetic.

Kept only so ``test_value_dispatch_equivalence.py`` and
``test_kernel_equivalence.py`` can require the production path to give
bit-identical networks, report counts, quarantine lists and checkpoints.
Do not import it from ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.adjacency import (
    accumulate_adjacency,
    empty_adjacency,
    sum_adjacency_list,
)
from repro.core.balance import BalanceReport, balance_by_work, lpt_partition
from repro.core.colloc import CollocationMatrix, collocation_matrix_for_place
from repro.core.intervals import (
    IntervalPack,
    build_interval_pack,
    select_pack_places,
    sum_pack_adjacency,
)
from repro.core.kernels import (
    absorb_task_telemetry,
    collect_kernel_timings,
    merge_kernel_timings,
)
from repro.core.network import CollocationNetwork
from repro.core.pipeline import (
    CHECKPOINT_PARTIAL,
    SynthesisReport,
    _pool_retries,
    _recoverable_records,
    _write_checkpoint,
    checkpoint_digest,
    load_checkpoint_manifest,
)
from repro.core.slicing import clip_records, records_by_place, slice_records
from repro.distrib.taskpool import TaskPool, WorkerPool
from repro.errors import CheckpointError, SynthesisError
from repro.evlog.multifile import LogSet, try_read_time_slice
from repro.evlog.reader import LogReader
from repro.evlog.schema import LogRecordArray, empty_records
from repro.obs import start_span


KERNELS = ("dense-hours", "intervals")


def _check_kernel(kernel: str) -> None:
    if kernel not in KERNELS:
        raise SynthesisError(f"unknown kernel {kernel!r}; choose from {KERNELS}")


def _adjacency_task(chunk: tuple[list[CollocationMatrix], int]):
    """Stage-4 worker: sum ``x·xᵀ`` over its balanced matrix share."""
    matrices, n_persons = chunk
    out = sum_adjacency_list(matrices, n_persons)
    return out, collect_kernel_timings()


def _pack_adjacency_task(chunk: "tuple[list[IntervalPack], int]"):
    """Stage-4 worker (interval kernel): stacked weighted product over the
    balanced place share."""
    packs, n_persons = chunk
    out = sum_pack_adjacency(packs, n_persons)
    return out, collect_kernel_timings()


def _matrices_task(
    chunk: tuple[list[tuple[int, LogRecordArray]], int, int],
) -> list[CollocationMatrix]:
    """Stage-2 worker: build collocation matrices for a chunk of places."""
    groups, t0, t1 = chunk
    return [
        collocation_matrix_for_place(place, records, t0, t1)
        for place, records in groups
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


def _pack_task(chunk: tuple[LogRecordArray, int, int]):
    """Stage-2 worker (interval kernel): one pack per place-disjoint slab."""
    records, t0, t1 = chunk
    pack = build_interval_pack(records, t0, t1)
    return pack, collect_kernel_timings()


def _place_slabs(sliced: LogRecordArray, n_chunks: int) -> list[LogRecordArray]:
    """Interval-kernel task chunking: sort records by place and cut the
    sorted array at place boundaries into ~record-balanced contiguous
    slabs.  Cheaper than materializing per-place groups — one argsort,
    no per-place view objects — and each slab is place-disjoint, so slab
    packs never share a place."""
    if len(sliced) == 0:
        return []
    rec = sliced[np.argsort(sliced["place"], kind="stable")]
    if n_chunks <= 1:
        return [rec]
    pl = rec["place"]
    group_starts = np.flatnonzero(np.concatenate(([True], pl[1:] != pl[:-1])))
    targets = (np.arange(1, n_chunks) * len(rec)) // n_chunks
    cut_idx = np.minimum(
        np.searchsorted(group_starts, targets, side="left"),
        len(group_starts) - 1,
    )
    offsets = np.unique(np.concatenate(([0], group_starts[cut_idx], [len(rec)])))
    return [rec[a:b] for a, b in zip(offsets[:-1], offsets[1:]) if b > a]


def _balance_packs(
    packs: list[IntervalPack], n_workers: int
) -> tuple[list[list[IntervalPack]], BalanceReport]:
    """Stage 3 for the interval kernel.

    The balancing unit is the *place* (as in the legacy pipeline), weighted
    by estimated pairwise work; each worker's share is delivered as column
    slices of the source packs, so stage 4 stays one matmul per pack."""
    packs = [p for p in packs if p is not None and p.n_places]
    if not packs:
        _, report = lpt_partition([], n_workers)
        return [[] for _ in range(n_workers)], report
    work = np.concatenate([p.place_work for p in packs])
    pack_of = np.repeat(
        np.arange(len(packs)), [p.n_places for p in packs]
    )
    place_of = np.concatenate([p.places for p in packs])
    buckets, report = lpt_partition(work, n_workers)
    shares: list[list[IntervalPack]] = []
    for bucket in buckets:
        share: list[IntervalPack] = []
        if bucket:
            sel = np.asarray(bucket)
            for i in np.unique(pack_of[sel]):
                sub = select_pack_places(
                    packs[int(i)],
                    np.sort(place_of[sel[pack_of[sel] == i]]),
                )
                if sub is not None:
                    share.append(sub)
        shares.append(share)
    return shares, report


def synthesize_network(
    records: LogRecordArray,
    n_persons: int,
    t0: int,
    t1: int,
    pool: WorkerPool | None = None,
    kernel: str = "intervals",
) -> tuple[CollocationNetwork, SynthesisReport]:
    """Build the collocation network for window ``[t0, t1)`` from records.

    Parameters
    ----------
    records:
        Event-log records (any order, any provenance).
    n_persons:
        Population size (matrix dimension).
    t0, t1:
        Analysis window in absolute simulation hours.
    pool:
        Worker pool; default a one-worker
        :class:`~repro.distrib.taskpool.TaskPool`.
    kernel:
        ``"intervals"`` (default) computes collocated hours from
        ``[start, stop)`` spell overlaps; ``"dense-hours"`` is the paper's
        per-hour presence expansion.  Both produce bit-identical networks
        (equivalence-tested); the interval kernel's cost is independent of
        window length.
    """
    if n_persons <= 0:
        raise SynthesisError("n_persons must be positive")
    _check_kernel(kernel)
    own_pool = pool is None
    pool = pool or TaskPool()
    report = SynthesisReport(n_records=len(records), n_workers=pool.n_workers)
    timings = report.timings
    retries_before = _pool_retries(pool)
    span = start_span(
        "synthesize_network", attrs={"kernel": kernel, "t0": t0, "t1": t1}
    )
    span.__enter__()
    try:
        with timings.time("slice"):
            sliced = slice_records(records, t0, t1)
        report.n_sliced_records = len(sliced)

        if kernel == "intervals":
            with timings.time("group_by_place"):
                slabs = _place_slabs(sliced, pool.n_workers * 4)
            with timings.time("collocation_matrices"):
                built = pool.map(
                    _pack_task, [(slab, t0, t1) for slab in slabs]
                )
                packs = [p for p, _t in built]
                for _p, times in built:
                    absorb_task_telemetry(report.kernel_timings, times)
            report.n_places = sum(p.n_places for p in packs)
            report.colloc_nnz_total = sum(p.person_hours for p in packs)
            with timings.time("balance"):
                shares, _balance = _balance_packs(packs, pool.n_workers)
            with timings.time("adjacency"):
                summed = pool.map(
                    _pack_adjacency_task,
                    [(share, n_persons) for share in shares if share],
                )
        else:
            with timings.time("group_by_place"):
                place_ids, groups = records_by_place(sliced)
                paired = list(zip((int(p) for p in place_ids), groups))
            report.n_places = len(paired)
            with timings.time("collocation_matrices"):
                chunks = _chunk_groups(paired, pool.n_workers * 4)
                results = pool.map(
                    _matrices_task, [(chunk, t0, t1) for chunk in chunks]
                )
                matrices = [m for sub in results for m in sub]
            report.colloc_nnz_total = sum(m.nnz for m in matrices)
            with timings.time("balance"):
                shares, _balance = balance_by_work(matrices, pool.n_workers)
            with timings.time("adjacency"):
                summed = pool.map(
                    _adjacency_task,
                    [(share, n_persons) for share in shares if share],
                )

        partials = [a for a, _t in summed]
        for _a, times in summed:
            absorb_task_telemetry(report.kernel_timings, times)
        with timings.time("reduce"):
            adjacency = accumulate_adjacency(partials, n_persons)
        report.n_retries = _pool_retries(pool) - retries_before
        span.set_attr("n_records", report.n_records)
        span.set_attr("n_places", report.n_places)
    finally:
        if own_pool:
            pool.close()
        span.__exit__(*sys.exc_info())
    return CollocationNetwork(adjacency, t0=t0, t1=t1), report


def synthesize_from_logs(
    log_dir: str | Path | LogSet,
    n_persons: int,
    t0: int,
    t1: int,
    batch_size: int = 16,
    pool: WorkerPool | None = None,
    strict: bool = False,
    checkpoint: str | Path | None = None,
    resume: str | Path | None = None,
    kernel: str = "intervals",
) -> tuple[CollocationNetwork, SynthesisReport]:
    """The pre-change ``synthesize_from_logs`` under ``dispatch="value"``
    (the default every caller ran), minus the ``dispatch=`` and ``cache=``
    arguments: the root reads and window-masks every file's records,
    concatenates them and hands the array to :func:`synthesize_network`."""
    _check_kernel(kernel)
    log_set = log_dir if isinstance(log_dir, LogSet) else LogSet(log_dir)
    own_pool = pool is None
    pool = pool or TaskPool()
    network: CollocationNetwork | None = None
    total_report = SynthesisReport(n_workers=pool.n_workers, batches=0)

    digest = checkpoint_digest(log_set, n_persons, t0, t1, batch_size)
    checkpoint_dir = Path(checkpoint) if checkpoint is not None else None
    resume_dir = Path(resume) if resume is not None else None
    if resume_dir is not None and checkpoint_dir is None:
        checkpoint_dir = resume_dir
    batches_done = 0
    if resume_dir is not None:
        manifest = load_checkpoint_manifest(resume_dir)
        if manifest["digest"] != digest:
            raise CheckpointError(
                f"checkpoint in {resume_dir} was written for a different "
                "configuration (file list, window, population, or batch "
                "size changed); refusing to resume"
            )
        batches_done = int(manifest["batches_done"])
        if manifest["has_partial"]:
            partial = resume_dir / CHECKPOINT_PARTIAL
            if not partial.is_file():
                raise CheckpointError(
                    f"manifest in {resume_dir} references a partial matrix "
                    "but partial.npz is missing"
                )
            network = CollocationNetwork.load(partial)
        saved = manifest["report"]
        total_report.n_records = int(saved["n_records"])
        total_report.n_sliced_records = int(saved["n_sliced_records"])
        total_report.n_places = int(saved["n_places"])
        total_report.colloc_nnz_total = int(saved["colloc_nnz_total"])
        total_report.n_retries = int(saved["n_retries"])
        total_report.quarantined = list(saved["quarantined"])
        total_report.skipped_records = int(saved["skipped_records"])
        total_report.batches = batches_done
        total_report.resumed_batches = batches_done

    run_span = start_span(
        "synthesize", attrs={"kernel": kernel, "t0": t0, "t1": t1}
    )
    run_span.__enter__()
    try:
        for batch_index, batch in enumerate(log_set.batches(batch_size)):
            if batch_index < batches_done:
                continue
            parts = []
            with total_report.timings.time("load"):
                for path in batch:
                    if strict:
                        rec = LogReader(path).read_time_slice(t0, t1)
                    else:
                        rec, _reason = try_read_time_slice(path, t0, t1)
                        if rec is None:
                            total_report.quarantined.append(str(path))
                            total_report.skipped_records += (
                                _recoverable_records(path)
                            )
                            continue
                    if len(rec):
                        parts.append(rec)
            if parts:
                records = (
                    np.concatenate(parts) if len(parts) > 1 else parts[0]
                )
                batch_net, batch_report = synthesize_network(
                    records, n_persons, t0, t1, pool=pool, kernel=kernel
                )
                network = batch_net if network is None else network + batch_net
                total_report.n_records += batch_report.n_records
                total_report.n_sliced_records += batch_report.n_sliced_records
                total_report.n_places += batch_report.n_places
                total_report.colloc_nnz_total += batch_report.colloc_nnz_total
                total_report.n_retries += batch_report.n_retries
                # merge (not add): the batch's stage clocks already
                # emitted through the probe when they were recorded
                total_report.timings.merge(batch_report.timings)
                merge_kernel_timings(
                    total_report.kernel_timings, batch_report.kernel_timings
                )
            total_report.batches += 1
            if checkpoint_dir is not None:
                with total_report.timings.time("checkpoint"):
                    _write_checkpoint(
                        checkpoint_dir,
                        digest,
                        batch_index + 1,
                        network,
                        total_report,
                    )
    finally:
        if own_pool:
            pool.close()
        run_span.set_attr("batches", total_report.batches)
        run_span.__exit__(*sys.exc_info())
    if network is None:
        network = CollocationNetwork(
            accumulate_adjacency([], n_persons), t0=t0, t1=t1
        )
    return network, total_report


def _apply_place_mask(
    records: LogRecordArray, place_mask: np.ndarray
) -> LogRecordArray:
    """Keep records whose place id the boolean mask admits."""
    if not len(records):
        return records
    ids = records["place"].astype(np.int64)
    if int(ids.max()) >= len(place_mask):
        raise SynthesisError("records reference places outside the mask")
    return records[place_mask[ids]]


def _window_value_task(
    args: tuple[LogRecordArray, int, int, int],
) -> sp.csr_matrix:
    """Worker (value dispatch): one window's partial adjacency.

    Receives the window's records (already masked to the window and place
    filter at the root); clips, builds one interval pack, and returns the
    canonical upper-triangular CSR partial.
    """
    records, t0, t1, n_persons = args
    if not len(records):
        return empty_adjacency(n_persons)
    sliced = clip_records(records, t0, t1)
    pack = build_interval_pack(sliced, t0, t1)
    return sum_pack_adjacency([pack], n_persons)


def window_value_args(
    readers: "list[LogReader]",
    t0: int,
    t1: int,
    n_persons: int,
    place_mask: "np.ndarray | None",
):
    """The by-value leg of the pre-change ``TileCache._window_args``: the
    root reads every file's window records (one open reader per file),
    place-masks and concatenates them."""
    parts = []
    for reader in readers:
        rec = reader.read_time_slice(t0, t1)
        if place_mask is not None:
            rec = _apply_place_mask(rec, place_mask)
        if len(rec):
            parts.append(rec)
    records = (
        np.concatenate(parts)
        if len(parts) > 1
        else (parts[0] if parts else empty_records(0))
    )
    return records, t0, t1, n_persons
