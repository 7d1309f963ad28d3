"""Place-sharded synthesis: scale the whole path past one process.

The collocation adjacency is additive over places as well as time: every
log record belongs to exactly one place and collocation only happens
within a place, so for any partition of the place set into shards

    ``A = Σ_s A_s``   where ``A_s`` uses only shard *s*'s places,

and the canonical upper-triangular CSR of the sum is unique — summing
per-shard canonical partials is **bit-identical** to single-process
synthesis, whatever the partition.  That makes place sharding a pure
parallelism/memory win: each shard of a
:class:`~repro.distrib.proccluster.ProcessBspCluster` owns its own log
slices and interval packs, touching only records at its places; a reduce
stage folds the partials.

Sharding is planned once (:func:`plan_shards`): one pass over the window
estimates each place's true pairwise-product flops (the
``balance_by_work`` weight, ``Σ_seg count²``) and records which log files
mention which places.  Per-rank simulation logs have place locality, so a
spatial shard partition aligned with the simulated ranks means each shard
decodes roughly ``1/N`` of the files — the plan's ``shard_paths`` skips
files that cannot contain a shard's places entirely.

Partition strategies (``STRATEGIES``):

* ``"round-robin"`` — cyclic place assignment; count-balanced, ignores
  both work and locality (the baseline the others must beat);
* ``"spatial"`` — weighted recursive coordinate bisection over place
  coordinates (:func:`~repro.distrib.partition.spatial_partition`),
  weighted by estimated work; place-id order stands in for geometry when
  no coordinates are given (synthetic populations lay places out so that
  nearby ids are nearby in space — and, more importantly, in the same
  rank log);
* ``"refined"`` — spatial, then **file alignment**: rank logs are
  place-local, so whole per-file place groups snap onto the shard
  already holding the plurality of their work, greedy whole-group moves
  close the remaining work gap, and single-place moves run only if the
  aligned partition is still above tolerance.  Alignment keeps every
  file's places on one shard, so each shard decodes only its own files
  instead of masking away most of a shared decode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import SynthesisError
from ..evlog.multifile import LogSet
from ..evlog.reader import publish_walk_stats
from ..obs import default_registry, get_collector, start_span
from ..obs.trace import capture_spans
from .partition import PlacePartition, round_robin_partition, spatial_partition
from .proccluster import ProcessBspCluster

__all__ = [
    "STRATEGIES",
    "ShardPlan",
    "ShardSynthesisReport",
    "plan_shards",
    "shard_synthesize",
]

#: place-partition strategies :func:`plan_shards` accepts
STRATEGIES = ("round-robin", "spatial", "refined")


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise SynthesisError(
            f"unknown shard strategy {strategy!r}; choose from {STRATEGIES}"
        )


# --------------------------------------------------------------------------
# planning


@dataclass
class ShardPlan:
    """A place→shard assignment plus everything needed to execute it.

    Built once per (log set, window) by :func:`plan_shards`; reused by
    every :func:`shard_synthesize` call over the same logs.
    """

    partition: PlacePartition
    #: per place, the window's true-flop work estimate (``Σ_seg count²``)
    place_work: np.ndarray
    #: per intact log file, sorted unique place ids seen in the window
    file_places: list[np.ndarray]
    #: intact log files, aligned with ``file_places``
    paths: list[str]
    #: damaged files skipped by the plan scan (non-strict mode)
    quarantined: list[str]
    t0: int
    t1: int
    strategy: str

    @property
    def n_shards(self) -> int:
        return self.partition.n_ranks

    @property
    def n_places(self) -> int:
        return self.partition.n_places

    def shard_places(self, shard: int) -> np.ndarray:
        return self.partition.places_of_rank(shard)

    def shard_mask(self, shard: int) -> np.ndarray:
        """Boolean place filter for one shard."""
        return self.partition.assignment == shard

    def shard_file_indices(self, shard: int) -> list[int]:
        """Indices into ``paths`` of files that mention this shard's places.

        This is where place locality pays: a file whose place set misses
        the shard entirely is never opened, let alone decoded.
        """
        mask = self.shard_mask(shard)
        return [
            i
            for i, pl in enumerate(self.file_places)
            if len(pl) and mask[pl].any()
        ]

    def shard_work(self) -> np.ndarray:
        """Total estimated work per shard."""
        return self.partition.rank_weights(self.place_work.astype(np.float64))

    @property
    def imbalance(self) -> float:
        """max/mean shard work ratio (1.0 = perfect)."""
        return self.partition.imbalance(self.place_work.astype(np.float64))


def _rebalance_by_work(
    assignment: np.ndarray,
    work: np.ndarray,
    n_shards: int,
    max_moves: int = 256,
) -> np.ndarray:
    """Greedy refinement: move single places max→min shard while the
    worst shard's load keeps dropping.  Terminates: every accepted move
    strictly reduces ``max(loads)`` or the max-loaded shard's load."""
    assignment = assignment.copy()
    loads = np.bincount(assignment, weights=work, minlength=n_shards)
    for _ in range(max_moves):
        src = int(np.argmax(loads))
        dst = int(np.argmin(loads))
        if src == dst:
            break
        gap = loads[src] - loads[dst]
        if gap <= 0:
            break
        members = np.flatnonzero(assignment == src)
        w = work[members]
        # best single move: the largest place that still fits in the gap
        # (moving anything heavier would just swap which shard is worst)
        fits = np.flatnonzero(w * 2 < gap)
        if not len(fits):
            break
        pick = members[fits[np.argmax(w[fits])]]
        delta = float(work[pick])
        if delta <= 0:
            break
        assignment[pick] = dst
        loads[src] -= delta
        loads[dst] += delta
    return assignment


#: refined partitions above this work imbalance fall back to
#: locality-breaking single-place moves
REFINE_TOL = 1.15


def _align_to_files(
    assignment: np.ndarray,
    work: np.ndarray,
    file_places: Sequence[np.ndarray],
    n_shards: int,
    max_moves: int = 64,
) -> np.ndarray:
    """Snap file-exclusive place groups onto single shards.

    Rank logs are place-local, so a whole file's places can live on one
    shard without splitting any decode across shards — each shard then
    reads only the files it owns.  Groups first snap to the shard
    already holding the plurality of their work (preserving the spatial
    seed's character), then greedy whole-group moves max→min close the
    remaining work gap.  Places seen in more than one file keep their
    seed assignment; the caller's place-level fallback handles them.
    """
    assignment = assignment.copy()
    multiplicity = np.zeros(len(work), dtype=np.int64)
    for members in file_places:
        multiplicity[members] += 1

    groups: list[np.ndarray] = []
    group_work: list[float] = []
    for members in file_places:
        members = members[multiplicity[members] == 1]
        if not len(members):
            continue
        per_shard = np.bincount(
            assignment[members],
            weights=work[members].astype(np.float64),
            minlength=n_shards,
        )
        target = int(np.argmax(per_shard))
        assignment[members] = target
        groups.append(members)
        group_work.append(float(work[members].sum()))

    loads = np.bincount(
        assignment, weights=work.astype(np.float64), minlength=n_shards
    )
    owner = [int(assignment[g[0]]) for g in groups]
    for _ in range(max_moves):
        src = int(np.argmax(loads))
        dst = int(np.argmin(loads))
        gap = loads[src] - loads[dst]
        if src == dst or gap <= 0:
            break
        candidates = [
            i
            for i, (o, w) in enumerate(zip(owner, group_work))
            if o == src and 0 < w * 2 < gap
        ]
        if not candidates:
            break
        pick = max(candidates, key=lambda i: group_work[i])
        assignment[groups[pick]] = dst
        owner[pick] = dst
        loads[src] -= group_work[pick]
        loads[dst] += group_work[pick]
    return assignment


def plan_shards(
    log_dir: "str | Path | LogSet",
    n_shards: int,
    t0: int,
    t1: int,
    strategy: str = "spatial",
    coords: np.ndarray | None = None,
    n_places: int | None = None,
    strict: bool = False,
) -> ShardPlan:
    """Scan the window once and partition places into ``n_shards``.

    The scan is the synthesis' own per-file unit
    (:func:`~repro.core.intervals.file_pack`, whole-file verified, so a
    damaged file is quarantined whatever the window — or, with
    ``strict=True``, raised as its own
    :class:`~repro.errors.LogFormatError` subclass): one interval pack per
    intact file gives each place's true pairwise work estimate — the same
    ``Σ_seg count²`` that ``balance_by_work`` balances with — plus the
    per-file place sets that let shards skip irrelevant files.  Planning
    cost is one synthesis pass, amortized over every subsequent sharded
    query on the same logs.

    ``coords`` (``(n_places, d)``) feeds the spatial strategies; without
    them, place id stands in as a 1-D coordinate.  ``n_places`` defaults
    to one past the highest place id seen in the window.

    ``strategy`` defaults to ``"spatial"`` here and to ``"refined"`` on the
    CLI (``--partition``), on purpose: with about as many rank files as
    shards (the e2e world: 4 files, 2 shards) the two time the same and
    refined's file alignment only costs balance (imbalance 1.000 → 1.019),
    so the library keeps the better-balanced seed; alignment pays when
    rank files far outnumber shards, which is what the CLI is run on.
    """
    from ..core.intervals import file_pack

    if n_shards < 1:
        raise SynthesisError("n_shards must be >= 1")
    _check_strategy(strategy)
    log_set = log_dir if isinstance(log_dir, LogSet) else LogSet(log_dir)

    paths: list[str] = []
    quarantined: list[str] = []
    file_places: list[np.ndarray] = []
    works: list[tuple[np.ndarray, np.ndarray]] = []
    max_place = -1
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
            continue
        file_places.append(pack.places.astype(np.int64))
        works.append((file_places[-1], pack.place_work))
        max_place = max(max_place, int(pack.places[-1]))

    if n_places is None:
        n_places = max_place + 1
    if n_places < max_place + 1:
        raise SynthesisError(
            f"n_places={n_places} but the window references place {max_place}"
        )
    if n_places < 1:
        raise SynthesisError("the window contains no records to shard")

    place_work = np.zeros(n_places, dtype=np.int64)
    for ids, w in works:
        # a place split across files double-counts slightly — fine for a
        # balancing weight, exact per-file work is what each shard pays
        np.add.at(place_work, ids, w)

    if coords is not None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or len(coords) != n_places:
            raise SynthesisError("coords must be (n_places, d)")
    if strategy == "round-robin":
        partition = round_robin_partition(n_places, n_shards)
    else:
        geo = (
            coords
            if coords is not None
            else np.arange(n_places, dtype=np.float64).reshape(-1, 1)
        )
        partition = spatial_partition(
            geo, place_work.astype(np.float64), n_shards
        )
        if strategy == "refined":
            aligned = _align_to_files(
                partition.assignment, place_work, file_places, n_shards
            )
            partition = PlacePartition(aligned, n_shards)
            if partition.imbalance(place_work.astype(np.float64)) > REFINE_TOL:
                # balance trumps locality: break file groups with
                # single-place moves only when alignment left a shard
                # meaningfully overloaded
                partition = PlacePartition(
                    _rebalance_by_work(
                        aligned, place_work.astype(np.float64), n_shards
                    ),
                    n_shards,
                )
    return ShardPlan(
        partition=partition,
        place_work=place_work,
        file_places=file_places,
        paths=paths,
        quarantined=quarantined,
        t0=int(t0),
        t1=int(t1),
        strategy=strategy,
    )


# --------------------------------------------------------------------------
# sharded synthesis


@dataclass
class ShardSynthesisReport:
    """Observability for one sharded synthesis run."""

    n_shards: int
    strategy: str
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
            f"strategy         {self.strategy:>12}",
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
    """One shard's work: the shared window builder over the files that
    mention its places (the plan verified them whole; the window's chunks
    are CRC'd again as they decode), masked to its places."""
    from ..core.intervals import window_partial

    files = [shard_plan.paths[i] for i in shard_plan.shard_file_indices(shard)]
    started = time.perf_counter()
    with capture_spans() as spans:
        with start_span(
            "shard.build", attrs={"shard": shard, "files": len(files)}
        ) as span:
            partial, n_records, walks = window_partial(
                files, t0, t1, n_persons, shard_plan.shard_mask(shard)
            )
            span.set_attr("records", n_records)
            span.set_attr("nnz", int(partial.nnz))
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
    strategy: str = "spatial",
    shard_plan: ShardPlan | None = None,
    strict: bool = False,
    coords: np.ndarray | None = None,
    timeout: float = 600.0,
):
    """Synthesize the window across a place-sharded process cluster.

    Each shard of a :class:`~repro.distrib.proccluster.ProcessBspCluster`
    walks only the log files that mention its places (columnar decode
    straight off the mmap), masks the place columns to its shard,
    builds interval packs, and returns its canonical partial adjacency;
    the root folds the partials — **bit-identical** to single-process
    synthesis for every shard count and strategy (property-tested).

    ``shard_plan`` reuses an existing :func:`plan_shards` result (it must
    cover the same window); otherwise one is computed here, and
    ``strict=True`` makes its scan raise on the first damaged log file
    instead of quarantining it.

    Returns ``(network, report)`` like the single-process pipeline,
    with a :class:`ShardSynthesisReport`.
    """
    from ..core.network import CollocationNetwork
    from ..core.pipeline import check_window

    check_window(n_persons, t0, t1)
    if shard_plan is None:
        shard_plan = plan_shards(
            log_dir,
            n_shards,
            t0,
            t1,
            strategy=strategy,
            coords=coords,
            strict=strict,
        )
    else:
        n_shards = shard_plan.n_shards
        strategy = shard_plan.strategy
    if shard_plan.t0 > t0 or shard_plan.t1 < t1:
        raise SynthesisError(
            f"shard plan covers [{shard_plan.t0}, {shard_plan.t1}), "
            f"cannot serve [{t0}, {t1})"
        )

    def rank_fn(comm, shard: int):
        return _shard_partial(shard, shard_plan, n_persons, t0, t1)

    with start_span(
        "shard_synthesize",
        attrs={"shards": n_shards, "strategy": strategy, "t0": t0, "t1": t1},
    ):
        result = ProcessBspCluster(n_shards).run(
            rank_fn,
            rank_args=[(s,) for s in range(n_shards)],
            timeout=timeout,
        )
        report = ShardSynthesisReport(
            n_shards=n_shards,
            strategy=strategy,
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
            adjacency = partials[0]
            for partial in partials[1:]:
                # canonical + canonical -> canonical: order-independent,
                # bit-identical to the single-process accumulate
                adjacency = adjacency + partial
        report.reduce_seconds = time.perf_counter() - started
    _publish_shard_metrics(report)
    return CollocationNetwork(adjacency, t0=int(t0), t1=int(t1)), report
