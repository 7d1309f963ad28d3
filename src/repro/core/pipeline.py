"""End-to-end synthesis orchestration (paper Section IV.A).

The stages map onto the paper's:

1. *data loading* + 2. *collocation matrices creation* — one pool task
   per log file walks it once (verify, decode the window's chunks into
   clipped columns, build the file's interval pack:
   :func:`~repro.core.intervals.file_pack`); the root ships paths and
   never touches a record;
3. *collocation matrix list partitioning* — not here: a batch's packs are
   multiplied in one call.  Balancing lives where workers are processes
   (:func:`~repro.distrib.shardsynth.plan_shards`' place partition) and
   in :mod:`repro.core.balance` for the ablation;
4. *adjacency matrices creation* — one fold per batch
   (:func:`~repro.core.intervals.fold_packs`): places split across files
   union-merged, one stacked ``x·xᵀ``, one upper-triangular matrix.

Log files are processed in independent batches ("batches of 16 files at a
time"); batch networks are summed.  Batch independence relies on the
distributed model's place ownership: every record for a place lives in
exactly one rank's file, so a place's collocation matrix is never split
across batches.  ``validate_place_locality`` makes that precondition
checkable for logs of unknown provenance.

Fault tolerance (this layer)
----------------------------
Batch independence is also the recovery unit.  After every completed batch
the pipeline can persist a checkpoint — the partial adjacency sum plus a
manifest recording the configuration digest and how many batches are done —
written atomically so a run killed mid-batch resumes from the last
completed batch and produces a bit-identical network.  Damaged log files
(truncated or failing CRC) come back from their task as a result and are
quarantined instead of killing the run (``strict=True`` raises the typed
error instead), and worker-task retries performed by the pool are
surfaced in the :class:`SynthesisReport`.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .._util import StageTimings, atomic_write_bytes
from ..errors import CheckpointError, SynthesisError
from ..evlog.multifile import LogSet
from ..evlog.reader import LogReader, slice_columns
from ..evlog.schema import LogRecordArray
from ..distrib.taskpool import TaskPool, WorkerPool
from .adjacency import empty_adjacency
from .intervals import (
    IntervalPack,
    build_interval_pack_columns,
    file_pack,
    fold_packs,
)
from ..obs import current_context, start_span
from .kernels import (
    KERNEL_STAGES,
    absorb_task_telemetry,
    collect_kernel_timings,
    collect_task_telemetry,
    compiled_impl,
    task_span,
)
from .network import CollocationNetwork

__all__ = [
    "SynthesisReport",
    "synthesize_network",
    "synthesize_from_logs",
    "validate_place_locality",
    "checkpoint_digest",
    "load_checkpoint_manifest",
    "CHECKPOINT_MANIFEST",
    "CHECKPOINT_PARTIAL",
]

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_PARTIAL = "partial.npz"
_CHECKPOINT_VERSION = 1
#: the :class:`SynthesisReport` counts a checkpoint carries across a resume
_CHECKPOINT_COUNTS = (
    "n_records",
    "n_sliced_records",
    "n_places",
    "colloc_nnz_total",
    "n_retries",
    "skipped_records",
)


def check_batch_size(batch_size: int) -> None:
    """Every batched entry point's first line: a bad ``batch_size`` is a
    typed error before any pool is built or span opened."""
    if batch_size < 1:
        raise SynthesisError("batch_size must be >= 1")


def check_window(n_persons: int, t0: int, t1: int) -> None:
    """Every synthesis entry point's first line, root side: an empty
    population or window is a typed error here, not a reader's
    ``ValueError`` re-run by a retrying pool inside a worker."""
    if n_persons <= 0:
        raise SynthesisError("n_persons must be positive")
    if t1 <= t0:
        raise SynthesisError(f"empty time window [{t0}, {t1})")


@dataclass
class SynthesisReport:
    """Observability for one synthesis run."""

    n_records: int = 0
    n_sliced_records: int = 0
    n_places: int = 0
    n_workers: int = 1
    colloc_nnz_total: int = 0
    timings: StageTimings = field(default_factory=StageTimings)
    batches: int = 1
    #: worker-task re-executions performed by the pool's retry policy
    n_retries: int = 0
    #: damaged log files skipped instead of killing the run
    quarantined: list[str] = field(default_factory=list)
    #: best-effort count of intact records inside quarantined files
    skipped_records: int = 0
    #: batches restored from a checkpoint rather than recomputed
    resumed_batches: int = 0
    #: per-stage kernel seconds (pack build / SpGEMM / accumulate),
    #: summed across workers — attributable compute, not wall time —
    #: plus a ``<stage>.twin`` count of calls the C kernel did not take
    kernel_timings: dict = field(default_factory=dict)

    @property
    def impl(self) -> str:
        """What ran the arithmetic: ``"cext"``, or ``"twin"`` when the
        extension is unavailable or any call went to its numpy/scipy twin."""
        ran_twin = any(name.endswith(".twin") for name in self.kernel_timings)
        return "twin" if ran_twin or compiled_impl() is None else "cext"

    def summary(self) -> str:
        lines = [
            f"impl             {self.impl:>12}",
            f"records          {self.n_records:>12,}",
            f"in slice         {self.n_sliced_records:>12,}",
            f"places           {self.n_places:>12,}",
            f"workers          {self.n_workers:>12,}",
            f"person-hours     {self.colloc_nnz_total:>12,}",
            f"batches          {self.batches:>12,}",
        ]
        if self.n_retries:
            lines.append(f"task retries     {self.n_retries:>12,}")
        if self.resumed_batches:
            lines.append(f"resumed batches  {self.resumed_batches:>12,}")
        if self.quarantined:
            lines.append(
                f"quarantined      {len(self.quarantined):>12,} file(s), "
                f"~{self.skipped_records:,} records skipped"
            )
            lines.extend(f"  !! {name}" for name in self.quarantined)
        lines.append("--- timings ---")
        lines.append(self.timings.report())
        if self.kernel_timings:
            lines.append("--- kernel stages (worker compute) ---")
            for name in KERNEL_STAGES:
                if name in self.kernel_timings:
                    lines.append(
                        f"{name:<16} {self.kernel_timings[name]:>11.4f}s"
                    )
        return "\n".join(lines)


def _file_task(args: "tuple[str, int, int, bool, dict | None]"):
    """The pool task: :func:`~repro.core.intervals.file_pack` over one log
    file, under a worker span.

    Receives a path, never records.  Returns ``(pack, n_records,
    telemetry, error)``: telemetry carries the kernel stage times, the
    walk's counters and seconds, and any spans finished in this worker
    (re-parented to the coordinator's trace on absorb); a damaged file
    comes back as ``error`` for the root to quarantine or raise.
    """
    path, t0, t1, whole_file, trace = args
    # the span must close before telemetry is collected, so the captured
    # list already holds it when it ships back with the payload
    with task_span(
        "worker.build", trace, attrs={"file": Path(path).name}
    ) as spans:
        pack, n, walk, error = file_pack(path, t0, t1, whole_file)
    if spans and walk:
        spans[-1]["attrs"]["load_s"] = walk["seconds"]
    return pack, n, collect_task_telemetry(spans, walk), error


def _fold(
    packs: "list[IntervalPack | None]", n_persons: int, report: SynthesisReport
):
    """:func:`~repro.core.intervals.fold_packs` over one batch's packs,
    counted and clocked into *report*."""
    adjacency, merged = fold_packs(packs, n_persons, report.timings)
    report.n_places += sum(p.n_places for p in merged)
    report.colloc_nnz_total += sum(p.person_hours for p in merged)
    absorb_task_telemetry(report.kernel_timings, collect_kernel_timings())
    return adjacency


# -- checkpointing -----------------------------------------------------------


def checkpoint_digest(
    log_set: LogSet, n_persons: int, t0: int, t1: int, batch_size: int
) -> str:
    """Configuration fingerprint a checkpoint is only valid against.

    Covers everything that changes which records land in which batch: the
    ordered file list, the population size, the analysis window, and the
    batch size.  Resuming against a different digest is refused.
    """
    payload = {
        "version": _CHECKPOINT_VERSION,
        "n_persons": int(n_persons),
        "t0": int(t0),
        "t1": int(t1),
        "batch_size": int(batch_size),
        "files": [p.name for p in log_set.paths],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def load_checkpoint_manifest(directory: str | Path) -> dict:
    """Read and structurally validate a checkpoint manifest."""
    path = Path(directory) / CHECKPOINT_MANIFEST
    if not path.is_file():
        raise CheckpointError(f"no checkpoint manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest {path}: {exc}") from exc
    for key in ("version", "digest", "batches_done", "has_partial", "report"):
        if key not in manifest:
            raise CheckpointError(f"checkpoint manifest {path} missing {key!r}")
    if manifest["version"] != _CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {manifest['version']} unsupported "
            f"(expected {_CHECKPOINT_VERSION})"
        )
    return manifest


def _write_checkpoint(
    directory: Path,
    digest: str,
    batches_done: int,
    network: CollocationNetwork | None,
    report: SynthesisReport,
) -> None:
    """Persist the state after a completed batch.

    The partial matrix is written first, the manifest last; both writes are
    atomic, so the manifest is the commit point — a crash between the two
    leaves the previous (still consistent) checkpoint in force.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if network is not None:
        a = network.adjacency
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            data=a.data,
            indices=a.indices,
            indptr=a.indptr,
            shape=np.array(a.shape, dtype=np.int64),
            window=np.array([network.t0, network.t1], dtype=np.int64),
        )
        atomic_write_bytes(directory / CHECKPOINT_PARTIAL, buf.getvalue())
    manifest = {
        "version": _CHECKPOINT_VERSION,
        "digest": digest,
        "batches_done": batches_done,
        "has_partial": network is not None,
        "report": {
            **{name: getattr(report, name) for name in _CHECKPOINT_COUNTS},
            "quarantined": list(report.quarantined),
        },
    }
    atomic_write_bytes(
        directory / CHECKPOINT_MANIFEST,
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )


def _recoverable_records(path: Path) -> int:
    """Best-effort intact-record count inside a damaged file (for the
    report's skipped-records line; 0 when even recovery fails)."""
    try:
        return LogReader(path).n_records
    except Exception:
        return 0


def _pool_retries(pool: WorkerPool) -> int:
    """Cumulative retry count of a pool, 0 for retry-unaware pools."""
    report = getattr(pool, "report", None)
    return getattr(report, "n_retries", 0)


def synthesize_network(
    records: LogRecordArray,
    n_persons: int,
    t0: int,
    t1: int,
) -> tuple[CollocationNetwork, SynthesisReport]:
    """Build the collocation network for window ``[t0, t1)`` from records.

    Collocated hours come from ``[start, stop)`` spell overlaps
    (:mod:`repro.core.intervals`), so the cost is independent of window
    length; ``report.impl`` says whether the C kernels or their
    numpy/scipy twins ran.  The records become one pack and the pack one
    fold, in the calling thread.

    Parameters
    ----------
    records:
        Event-log records (any order, any provenance).
    n_persons:
        Population size (matrix dimension).
    t0, t1:
        Analysis window in absolute simulation hours.
    """
    check_window(n_persons, t0, t1)
    report = SynthesisReport(n_records=len(records))
    timings = report.timings
    with start_span("synthesize_network", attrs={"t0": t0, "t1": t1}) as span:
        with timings.time("slice"):
            columns = slice_columns(records, t0, t1)
        report.n_sliced_records = len(columns[0])
        packs = []
        if report.n_sliced_records:
            with timings.time("collocation_matrices"):
                packs.append(build_interval_pack_columns(*columns, t0, t1))
        adjacency = _fold(packs, n_persons, report)
        span.set_attr("n_records", report.n_records)
        span.set_attr("n_places", report.n_places)
        span.set_attr("impl", report.impl)
    return CollocationNetwork(adjacency, t0=t0, t1=t1), report


def validate_place_locality(
    log_set: LogSet,
    batch_size: int,
    t0: int | None = None,
    t1: int | None = None,
) -> bool:
    """Check that no place's records span more than one batch.

    Returns True when batch-independent processing is exact for this log
    directory (always true for logs written by the distributed model,
    whose ranks own disjoint place sets at any time — and places never
    change owner during a run).

    With a window, only chunks whose time envelope overlaps ``[t0, t1)``
    are decoded (the records a synthesis over that window would see);
    memory stays bounded at one chunk, and only the ``place`` column is
    retained per chunk.
    """
    windowed = t0 is not None and t1 is not None
    seen: dict[int, int] = {}
    for batch_index, batch in enumerate(log_set.batches(batch_size)):
        places: set[int] = set()
        for path in batch:
            with LogReader(path, use_mmap=True) as reader:
                for chunk in reader.chunks:
                    if windowed and not chunk.overlaps(t0, t1):
                        continue
                    rec = reader._decode(chunk)
                    if windowed:
                        rec = rec[(rec["start"] < t1) & (rec["stop"] > t0)]
                    places.update(int(p) for p in np.unique(rec["place"]))
        for p in places:
            if p in seen and seen[p] != batch_index:
                return False
            seen[p] = batch_index
    return True


def _synthesize_batch(
    batch: list[Path],
    n_persons: int,
    t0: int,
    t1: int,
    pool: WorkerPool,
    strict: bool,
    report: SynthesisReport,
) -> CollocationNetwork | None:
    """One batch of files, mutating *report* in place.

    The root never touches a record: it ships one O(1)-size
    :func:`_file_task` per file; workers open, verify, decode and build.
    A damaged file comes back as a result and is quarantined here
    (non-strict) or raised as its typed error (strict); the fold
    union-merges places split across files, so the output is
    bit-identical to one build from the concatenated records.
    """
    timings = report.timings
    retries_before = _pool_retries(pool)
    try:
        with start_span("batch", attrs={"files": len(batch)}) as span:
            with timings.time("collocation_matrices"):
                # ship the batch span's context into the workers: their
                # build spans come back in the task telemetry and
                # re-attach under it
                ctx = current_context()
                wire = ctx.to_wire() if ctx is not None else None
                results = pool.map(
                    _file_task,
                    [(str(path), t0, t1, not strict, wire) for path in batch],
                )
            n_read = 0
            for path, (_pack, n, telemetry, error) in zip(batch, results):
                absorb_task_telemetry(report.kernel_timings, telemetry)
                if telemetry["reader"]:
                    # worker-side seconds, inside the map's wall above
                    timings.add("load", telemetry["reader"]["seconds"])
                if error is not None:
                    if strict:
                        raise error
                    report.quarantined.append(str(path))
                    report.skipped_records += _recoverable_records(path)
                n_read += n
            report.n_records += n_read
            report.n_sliced_records += n_read
            span.set_attr("records", n_read)
            if not n_read:
                return None
            adjacency = _fold([pack for pack, *_ in results], n_persons, report)
            return CollocationNetwork(adjacency, t0=t0, t1=t1)
    finally:
        report.n_retries += _pool_retries(pool) - retries_before


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
) -> tuple[CollocationNetwork, SynthesisReport]:
    """Synthesize the network from a directory of per-rank EVL files.

    Files are processed in independent batches of ``batch_size`` (the
    paper's job unit); per-batch networks are summed into the complete
    network.  Records reach the kernel one way: each worker task gets a
    *path*, walks the file once (verify + decode + pack build, see
    :func:`~repro.evlog.reader.read_window_columns`) and returns the
    file's pack — root→worker traffic is O(1) per task.

    Parameters
    ----------
    batch_size:
        Log files per independent batch; below 1 is a
        :class:`~repro.errors.SynthesisError`.
    strict:
        When False (default), a damaged log file — truncated by a killed
        writer or failing a chunk CRC — is quarantined: the whole file is
        skipped, recorded in ``report.quarantined``, and the run continues.
        The verdict covers the whole file, so it is the same for every
        window.  When True, the first damaged file raises its typed
        :class:`~repro.errors.LogFormatError` (a file without a trailer
        included); only the chunks the window overlaps are checked.
    checkpoint:
        Directory to persist per-batch checkpoints into.  After each
        completed batch the partial adjacency sum and a manifest are
        committed atomically, so a killed run can resume from the last
        completed batch.
    resume:
        Existing checkpoint directory to resume from.  The checkpoint's
        configuration digest (file list, window, population, batch size)
        must match this call, else :class:`~repro.errors.CheckpointError`
        is raised.  Completed batches are skipped and the partial network
        is restored; checkpointing continues into the same directory unless
        a different ``checkpoint`` is given.
    """
    check_batch_size(batch_size)
    check_window(n_persons, t0, t1)
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
        for name in _CHECKPOINT_COUNTS:
            setattr(total_report, name, int(saved[name]))
        total_report.quarantined = list(saved["quarantined"])
        total_report.batches = batches_done
        total_report.resumed_batches = batches_done

    try:
        with start_span(
            "synthesize", attrs={"t0": t0, "t1": t1}
        ) as run_span:
            for batch_index, batch in enumerate(log_set.batches(batch_size)):
                if batch_index < batches_done:
                    continue
                batch_net = _synthesize_batch(
                    batch, n_persons, t0, t1, pool, strict, total_report
                )
                if batch_net is not None:
                    network = batch_net if network is None else network + batch_net
                    # the sum's twin count, if it ran one
                    absorb_task_telemetry(
                        total_report.kernel_timings, collect_kernel_timings()
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
            run_span.set_attr("batches", total_report.batches)
            run_span.set_attr("impl", total_report.impl)
    finally:
        if own_pool:
            pool.close()
    if network is None:
        network = CollocationNetwork(
            empty_adjacency(n_persons), t0=t0, t1=t1
        )
    return network, total_report
