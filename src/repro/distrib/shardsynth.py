"""Place-sharded synthesis: scale the whole path past one process.

The collocation adjacency is additive over places as well as time: every
log record belongs to exactly one place and collocation only happens
within a place, so for any partition of the place set into shards

    ``A = Σ_s A_s``   where ``A_s`` uses only shard *s*'s places,

and the canonical upper-triangular CSR of the sum is unique — summing
per-shard canonical partials is **bit-identical** to single-process
synthesis, whatever the partition.  That makes place sharding a pure
parallelism/memory win: each shard of a
:class:`~repro.distrib.proccluster.ProcessBspCluster` walks its own log
files and builds its own interval packs; a reduce stage folds the
partials.

The partition is the one the log files already carry.  Sharding is
planned once (:func:`plan_shards`): one pass over the window gives every
intact file its place set and its true pairwise-product work (the
``Σ_seg count²`` that ``balance_by_work`` balances with).  Files that
share a place inside the window are grouped, so each place's window
records sit in exactly one group, and whole groups go to shards by LPT
(:func:`~repro.core.balance.lpt_partition`) on their summed work.  A
shard walks only its own files, unmasked.  Places never change owner
during a simulated run, so its rank files are place-disjoint and the
plan is whole rank files balanced by work; logs that are not place-local
merge into larger groups and stay exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ..core.balance import BalanceReport, lpt_partition
from ..errors import SynthesisError
from ..evlog.multifile import LogSet
from ..evlog.reader import publish_walk_stats
from ..obs import (
    default_registry,
    get_collector,
    record_kernel_timings,
    start_span,
)
from ..obs.trace import capture_spans
from .proccluster import ProcessBspCluster

__all__ = [
    "ShardPlan",
    "ShardSynthesisReport",
    "plan_shards",
    "shard_synthesize",
]


# --------------------------------------------------------------------------
# planning


@dataclass
class ShardPlan:
    """Whole log files assigned to shards, balanced by work.

    Built once per (log set, window) by :func:`plan_shards`; reused by
    every :func:`shard_synthesize` call over the same logs and any window
    inside its own.
    """

    #: per shard, the intact log files it walks (in ``paths`` order)
    shard_files: list[list[str]]
    #: the LPT assignment's per-shard work (``balance.loads``)
    balance: BalanceReport
    #: intact log files
    paths: list[str]
    #: damaged files skipped by the plan scan (non-strict mode)
    quarantined: list[str]
    t0: int
    t1: int

    @property
    def n_shards(self) -> int:
        return len(self.shard_files)

    @property
    def imbalance(self) -> float:
        """max/mean shard work ratio (1.0 = perfect, or no work at all)."""
        return self.balance.imbalance


def _file_groups(file_places: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Per file, a group id in ``[0, n_groups)``: files that share a place
    share a group (connected components of the file–place graph)."""
    n_files = len(file_places)
    files = np.repeat(np.arange(n_files), [len(p) for p in file_places])
    places = np.concatenate([np.empty(0, np.int64), *file_places])
    _, place_node = np.unique(places, return_inverse=True)
    n_nodes = n_files + int(place_node.max(initial=-1)) + 1
    graph = sp.coo_matrix(
        (np.ones(len(files)), (files, n_files + place_node.reshape(-1))),
        shape=(n_nodes, n_nodes),
    )
    # every place node hangs off a file, so each component holds a file
    n_groups, labels = connected_components(graph, directed=False)
    return labels[:n_files], n_groups


def plan_shards(
    log_dir: "str | Path | LogSet",
    n_shards: int,
    t0: int,
    t1: int,
    strict: bool = False,
    coords: np.ndarray | None = None,
) -> ShardPlan:
    """Scan the window once and assign whole file groups to ``n_shards``.

    The scan is the synthesis' own per-file unit
    (:func:`~repro.core.intervals.file_pack`, whole-file verified, so a
    damaged file is quarantined whatever the window — or, with
    ``strict=True``, raised as its own
    :class:`~repro.errors.LogFormatError` subclass).  Each intact file's
    pack gives its window place set and its work (``Σ_seg count²``).
    Files sharing a place form one group; groups are LPT-assigned by
    summed work.  With more shards than groups the extra shards get no
    files and return an empty partial.  Planning cost is one synthesis
    pass, amortized over every subsequent sharded query on the same logs.

    ``coords`` is accepted and ignored: the plan needs no geometry.  It
    stays only for callers that still pass it
    (``benchmarks/e2e/workloads/synth_windows.py``).
    """
    from ..core.intervals import file_pack

    if n_shards < 1:
        raise SynthesisError("n_shards must be >= 1")
    log_set = log_dir if isinstance(log_dir, LogSet) else LogSet(log_dir)

    paths: list[str] = []
    quarantined: list[str] = []
    file_places: list[np.ndarray] = []
    file_work: list[int] = []
    for path in log_set.paths:
        pack, _n, walk, error = file_pack(path, t0, t1, whole_file=True)
        if error is not None:
            if strict:
                raise error
            quarantined.append(str(path))
            continue
        publish_walk_stats(walk)
        paths.append(str(path))
        if pack is None:
            file_places.append(np.empty(0, dtype=np.int64))
            file_work.append(0)
        else:
            file_places.append(pack.places.astype(np.int64))
            file_work.append(pack.work)

    group, n_groups = _file_groups(file_places)
    group_work = np.zeros(n_groups, dtype=np.int64)
    np.add.at(group_work, group, file_work)
    buckets, balance = lpt_partition(group_work, n_shards)
    shard_of_group = np.empty(len(group_work), dtype=np.int64)
    for shard, members in enumerate(buckets):
        shard_of_group[members] = shard
    shard_of_file = shard_of_group[group]
    return ShardPlan(
        shard_files=[
            [paths[i] for i in np.flatnonzero(shard_of_file == s)]
            for s in range(n_shards)
        ],
        balance=balance,
        paths=paths,
        quarantined=quarantined,
        t0=int(t0),
        t1=int(t1),
    )


# --------------------------------------------------------------------------
# sharded synthesis


@dataclass
class ShardSynthesisReport:
    """Observability for one sharded synthesis run."""

    n_shards: int
    t0: int
    t1: int
    #: per shard: window records decoded, partial nnz, wall seconds
    shard_records: list[int] = field(default_factory=list)
    shard_nnz: list[int] = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)
    #: wall seconds folding the per-shard partials at the root
    reduce_seconds: float = 0.0
    #: estimated-work imbalance of the executed plan (max/mean)
    imbalance: float = 1.0
    quarantined: list[str] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return int(sum(self.shard_records))

    def summary(self) -> str:
        lines = [
            f"shards           {self.n_shards:>12,}",
            f"records          {self.n_records:>12,}",
            f"work imbalance   {self.imbalance:>12.3f}",
            f"reduce seconds   {self.reduce_seconds:>12.4f}",
        ]
        for s in range(self.n_shards):
            lines.append(
                f"  shard {s:<3} records {self.shard_records[s]:>10,}  "
                f"nnz {self.shard_nnz[s]:>10,}  "
                f"{self.shard_seconds[s]:>8.3f}s"
            )
        if self.quarantined:
            lines.append(f"quarantined      {len(self.quarantined):>12,} file(s)")
        return "\n".join(lines)


def _publish_shard_metrics(report: ShardSynthesisReport) -> None:
    """Mirror one run's shard breakdown into the process metrics registry
    (``repro metrics`` shows these)."""
    reg = default_registry()
    reg.counter("shard.records").inc(report.n_records)
    reg.counter("shard.nnz").inc(int(sum(report.shard_nnz)))
    reg.counter("shard.reduce_seconds").inc(report.reduce_seconds)
    reg.gauge("shard.imbalance").set(report.imbalance)
    reg.gauge("shard.count").set(report.n_shards)
    for s in range(report.n_shards):
        reg.gauge(f"shard.{s}.records").set(report.shard_records[s])
        reg.gauge(f"shard.{s}.nnz").set(report.shard_nnz[s])
        reg.gauge(f"shard.{s}.seconds").set(report.shard_seconds[s])


def _shard_partial(
    shard: int,
    shard_plan: ShardPlan,
    n_persons: int,
    t0: int,
    t1: int,
) -> tuple[sp.csr_matrix, dict, list[dict]]:
    """One shard's work: the shared window builder over its own files
    (the plan verified them whole; the window's chunks are CRC'd again as
    they decode).  Its kernel timings land in the shard's registry, which
    the cluster ships back to the parent's."""
    from ..core.intervals import window_partial
    from ..core.kernels import collect_kernel_timings

    files = shard_plan.shard_files[shard]
    started = time.perf_counter()
    with capture_spans() as spans:
        with start_span(
            "shard.build", attrs={"shard": shard, "files": len(files)}
        ) as span:
            partial, n_records, walks = window_partial(files, t0, t1, n_persons)
            span.set_attr("records", n_records)
            span.set_attr("nnz", int(partial.nnz))
    record_kernel_timings(collect_kernel_timings())
    stats = {
        "records": n_records,
        "nnz": int(partial.nnz),
        "seconds": time.perf_counter() - started,
        "walks": walks,
    }
    return partial, stats, spans


def shard_synthesize(
    log_dir: "str | Path | LogSet",
    n_persons: int,
    t0: int,
    t1: int,
    n_shards: int = 1,
    shard_plan: ShardPlan | None = None,
    strict: bool = False,
    timeout: float = 600.0,
):
    """Synthesize the window across a place-sharded process cluster.

    Each shard of a :class:`~repro.distrib.proccluster.ProcessBspCluster`
    walks only its own log files (columnar decode straight off the mmap),
    builds interval packs, and returns its canonical partial adjacency;
    the root folds the partials — **bit-identical** to single-process
    synthesis for every shard count, place-local logs or not
    (property-tested).

    ``shard_plan`` reuses an existing :func:`plan_shards` result (it must
    cover the same window); otherwise one is computed here, and
    ``strict=True`` makes its scan raise on the first damaged log file
    instead of quarantining it.

    Returns ``(network, report)`` like the single-process pipeline,
    with a :class:`ShardSynthesisReport`.
    """
    from ..core.adjacency import sum_partials
    from ..core.kernels import collect_kernel_timings
    from ..core.network import CollocationNetwork
    from ..core.pipeline import check_window

    check_window(n_persons, t0, t1)
    if shard_plan is None:
        shard_plan = plan_shards(log_dir, n_shards, t0, t1, strict=strict)
    else:
        n_shards = shard_plan.n_shards
    if shard_plan.t0 > t0 or shard_plan.t1 < t1:
        raise SynthesisError(
            f"shard plan covers [{shard_plan.t0}, {shard_plan.t1}), "
            f"cannot serve [{t0}, {t1})"
        )

    def rank_fn(comm, shard: int):
        return _shard_partial(shard, shard_plan, n_persons, t0, t1)

    with start_span(
        "shard_synthesize",
        attrs={"shards": n_shards, "t0": t0, "t1": t1},
    ):
        result = ProcessBspCluster(n_shards).run(
            rank_fn,
            rank_args=[(s,) for s in range(n_shards)],
            timeout=timeout,
        )
        report = ShardSynthesisReport(
            n_shards=n_shards,
            t0=int(t0),
            t1=int(t1),
            imbalance=shard_plan.imbalance,
            quarantined=list(shard_plan.quarantined),
        )
        partials = []
        for partial, stats, spans in result.returns:
            partials.append(partial)
            report.shard_records.append(stats["records"])
            report.shard_nnz.append(stats["nnz"])
            report.shard_seconds.append(stats["seconds"])
            for walk in stats["walks"]:
                publish_walk_stats(walk)
            # per-shard span trees, parent links intact
            get_collector().absorb(spans)
        started = time.perf_counter()
        with start_span("shard.reduce", attrs={"parts": len(partials)}):
            # canonical partials have one canonical sum: order-independent,
            # bit-identical to the single-process fold
            adjacency = sum_partials(partials, n_persons)
            record_kernel_timings(collect_kernel_timings())
        report.reduce_seconds = time.perf_counter() - started
    _publish_shard_metrics(report)
    return CollocationNetwork(adjacency, t0=int(t0), t1=int(t1)), report
