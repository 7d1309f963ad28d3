"""Distributed model driver.

Runs the chiSIM-like model across ranks the way Repast HPC does: each rank
owns the places a :class:`~repro.distrib.partition.PlacePartition` assigns
to it, hosts the agents currently at its places, and logs activity changes
that occur on it ("each process logger is responsible for logging activity
changes that occur only in that process").  When an agent's next place
belongs to another rank, its open activity spell migrates there through a
metered all-to-all exchange.

This is the one loop that writes event logs and simulation checkpoints,
at any rank count: a serial run is a world of one rank.  It loops over
the ranks a process hosts — every rank in process, one rank in a forked
:class:`~repro.distrib.proccluster.ProcessBspCluster` rank — and an
active hour is one call of the hour kernel
(:class:`~repro.distrib.rankstep.HostedTable`): every hosted rank
stepped, its closed spells appended to its log cache, its migrants handed
to hosted destinations in source-rank order and its traffic metered,
with no Python per rank.  In process that needs no collective at all; a
forked rank performs the hour's ``alltoall`` for its leavers, and a
snapshot's ``gather`` and ``barrier``, on its communicator, writing the
same bytes.  Every rank skips, together, the hours in which nobody
anywhere changes (no step, no exchange); the step reads the week
hour-major as ``rk_week_fill`` wrote it, one week resident; a run that
writes logs keeps per-rank counts and log offsets, never the records it
wrote — its logs hold them — and a run without logs appends the raw rows
to one buffer per rank, made a record array once (at a snapshot, or at
the end).  Each hosting loop sums its hour kernel's clock locally and
records it once at the end (``distrib.step_seconds``, beside
``distrib.rank_loop_seconds``), a forked rank adds its ``alltoall`` wait
and receive (``distrib.exchange_seconds`` / ``receive_seconds``), so
where a month's time went comes from the registry.

Invariant (tested): for the same population/seed the union of all ranks'
event records equals the serial engine's event stream exactly, and one
rank emits that stream in the serial engine's order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .._util import atomic_write_bytes
from ..config import HOURS_PER_WEEK, SimulationConfig
from ..core.kernels.cext import load_cext
from ..errors import (
    CheckpointError,
    CommError,
    RankDeadError,
    RankFailureError,
    SimulationError,
)
from ..evlog.multifile import rank_log_path
from ..evlog.reader import LogReader
from ..evlog.schema import LOG_DTYPE, LOG_FIELDS, LogRecordArray, empty_records
from ..evlog.writer import CachedLogWriter
from ..obs import count, observe, start_span
from ..synthpop.generator import SyntheticPopulation
from ..synthpop.schedule import WeeklyScheduleGenerator
from .comm import TrafficStats, payload_nbytes
from .migration import pack_migrants
from .partition import PlacePartition
from .rankstep import HostedTable, WeekRows

__all__ = [
    "DistributedSimulation",
    "DistributedRunResult",
    "RankHandle",
    "DIST_MANIFEST",
    "DIST_STATE",
]

DIST_MANIFEST = "dist_manifest.json"
DIST_STATE = "dist_state.npz"
CHECKPOINT_VERSION = 1
#: commit point of the per-hour serial engine's snapshots, a format no
#: longer written or read
_SERIAL_MANIFEST = "sim_manifest.json"


def sim_checkpoint_digest(config: Any, with_log: bool) -> str:
    """Fingerprint of everything that determines a run's trajectory.

    Any change to the configuration (population scale/seed, schedules,
    disease parameters, duration, cache size, durability) or to whether a
    log is written makes a snapshot unusable, because replay would diverge
    from the checkpointed prefix.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "with_log": bool(with_log),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(directory: Path, name: str, manifest: dict) -> None:
    """Atomically commit a checkpoint manifest (the commit point)."""
    atomic_write_bytes(
        directory / name,
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )


def read_manifest(
    directory: Path, name: str, expected_digest: str | None = None
) -> dict:
    """Read and validate a checkpoint manifest."""
    path = directory / name
    if not path.is_file():
        raise CheckpointError(f"no checkpoint manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint manifest {path}: {exc}"
        ) from exc
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {manifest.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if expected_digest is not None and manifest.get("digest") != expected_digest:
        raise CheckpointError(
            f"checkpoint in {directory} was written for a different "
            "configuration; refusing to resume"
        )
    return manifest


def _save_dist_checkpoint(
    directory: Path, digest: str, next_hour: int, states: list[dict]
) -> None:
    """Commit one collective snapshot: bulky npz first, manifest last.

    A rank state's ``records`` is None in a run that writes logs: the log
    up to ``writer_offset`` holds them, so the snapshot stores none.
    """
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    offsets: list[int] = []
    for r, st in enumerate(states):
        arrays[f"ids_{r}"] = st["ids"]
        arrays[f"start_{r}"] = st["spell_start"]
        arrays[f"act_{r}"] = st["spell_act"]
        arrays[f"place_{r}"] = st["spell_place"]
        if st["records"] is not None:
            arrays[f"records_{r}"] = st["records"]
        arrays[f"mig_{r}"] = st["migrations_out"]
        offsets.append(int(st["writer_offset"]))
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    atomic_write_bytes(directory / DIST_STATE, buf.getvalue())
    write_manifest(
        directory,
        DIST_MANIFEST,
        {
            "version": CHECKPOINT_VERSION,
            "digest": digest,
            "next_hour": int(next_hour),
            "n_ranks": len(states),
            "writer_offsets": offsets,
        },
    )


def _load_dist_checkpoint(
    directory: Path, digest: str, n_ranks: int, with_records: bool = True
) -> tuple[int, list[dict]]:
    """Load a collective snapshot; returns ``(next_hour, per-rank states)``.

    ``with_records`` loads each rank's ``records_{r}`` (a run without logs
    resumes from them); otherwise a state's ``records`` is None, also when
    the snapshot stores them (as one written before logged runs stopped
    holding records does).  A snapshot that cannot be read — a damaged
    npz, a manifest or npz missing what a rank needs — is a
    :class:`~repro.errors.CheckpointError` naming the file.
    """
    manifest_path = directory / DIST_MANIFEST
    manifest = read_manifest(directory, DIST_MANIFEST, expected_digest=digest)
    if manifest.get("n_ranks") != n_ranks:
        raise CheckpointError(
            f"checkpoint was written for {manifest.get('n_ranks')} ranks, "
            f"this run has {n_ranks}"
        )
    state_path = directory / DIST_STATE
    if not state_path.is_file():
        raise CheckpointError(
            f"manifest in {directory} has no {DIST_STATE} beside it"
        )
    try:
        next_hour = int(manifest["next_hour"])
        offsets = [int(o) for o in manifest["writer_offsets"]]
        if len(offsets) != n_ranks:
            raise ValueError(f"{len(offsets)} writer offsets for {n_ranks} ranks")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} is malformed: {exc!r}"
        ) from exc
    states: list[dict] = []
    try:
        with np.load(state_path) as data:
            for r in range(n_ranks):
                states.append(
                    {
                        "ids": data[f"ids_{r}"],
                        "spell_start": data[f"start_{r}"],
                        "spell_act": data[f"act_{r}"],
                        "spell_place": data[f"place_{r}"],
                        "records": data[f"records_{r}"] if with_records else None,
                        "migrations_out": data[f"mig_{r}"],
                        "writer_offset": offsets[r],
                    }
                )
    except (
        OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error
    ) as exc:
        raise CheckpointError(
            f"checkpoint state {state_path} is unreadable: {exc!r}"
        ) from exc
    return next_hour, states


class _ScheduleCache:
    """Lazy cache of the week the rank step reads, shared by in-process
    ranks (a forked rank reads its own copy).

    Models ranks reading the same deterministic schedule inputs; generating
    a week once and sharing it read-only across in-process ranks avoids
    duplicating the grid per rank.  A week's
    hour-major rows and plane come from one
    :meth:`~repro.synthpop.schedule.WeeklyScheduleGenerator.week_with_changes`
    call, kept as :class:`~repro.distrib.rankstep.WeekRows` (the plane, the
    rows and which hours anybody changes at).  One week is cached: no week
    needs the one before it (its plane's row 0 is all-false, both hours
    being home), so a resume into week *w* builds week *w* alone.  A rank
    still stepping the last hour of the old week holds it until it binds
    the new one, so at most two are resident.
    """

    def __init__(self, generator: WeeklyScheduleGenerator) -> None:
        self._generator = generator
        self._week: WeekRows | None = None

    def rows(self, index: int) -> WeekRows:
        """Week ``index`` as the rank step reads it."""
        if self._week is None or self._week.week_index != index:
            self._week = None  # let the old week go before building
            self._week = WeekRows.of(*self._generator.week_with_changes(index))
        return self._week


class RankHandle:
    """A rank as a ``fault_hook`` sees it: ``rank``, ``size``, ``dead`` and
    :meth:`die`."""

    __slots__ = ("rank", "size", "dead")

    def __init__(self, rank: int, size: int) -> None:
        self.rank = rank
        self.size = size
        #: set by :meth:`die` — lets tests assert which rank was killed
        self.dead = False

    def die(self) -> None:
        """Simulate this rank being hard-killed: raises
        :class:`~repro.errors.RankDeadError`; the run skips this rank's
        cleanup (its log is left torn) and fails naming it."""
        self.dead = True
        raise RankDeadError(f"rank {self.rank} killed by fault injection")


class _HeldRecords:
    """What a rank emitted in a run without logs: raw record rows in one
    growing buffer, the run's only copy of them (a log sink, see
    :class:`~repro.distrib.rankstep.HostedTable`)."""

    def __init__(self, records: LogRecordArray | None) -> None:
        rows = np.empty((0, len(LOG_FIELDS)), np.uint32)
        if records is not None:
            rows = np.ascontiguousarray(records).view(np.uint32).reshape(-1, len(LOG_FIELDS))
        self.cache = np.empty((max(2 * len(rows), 1024), len(LOG_FIELDS)), np.uint32)
        self.cache[: len(rows)] = rows
        self.fill = len(rows)

    def filled_to(self, fill: int) -> None:
        self.fill = fill

    def log_batch(self, rows: np.ndarray) -> None:
        end = self.fill + len(rows)
        if end >= len(self.cache):
            grown = np.empty((max(2 * len(self.cache), end + 1), len(LOG_FIELDS)), np.uint32)
            grown[: self.fill] = self.cache[: self.fill]
            self.cache = grown
        self.cache[self.fill : end] = rows
        self.fill = end

    def records(self) -> LogRecordArray:
        """The rows held so far as records (a view of the buffer)."""
        return self.cache[: self.fill].reshape(-1).view(LOG_DTYPE)


@dataclass
class _RankOutput:
    rank: int
    #: what the rank emitted, when it wrote no log (None when it did)
    records: LogRecordArray | None
    #: how many records the rank emitted over the whole run
    events: int
    migrations_out: np.ndarray  # per-hour counts
    hosted_final: int
    log_path: Path | None
    checkpoints: int = 0
    # this attempt's (a resumed rank counts from its resume hour)
    changes: int = 0
    migrants: int = 0
    #: rank steps the numpy twin took
    twin_steps: int = 0
    #: hours skipped because nobody anywhere changed at them
    quiet_hours: int = 0


@dataclass
class _HostOutput:
    """What the ranks of one process produced, and where its loop's time
    went."""

    ranks: list[_RankOutput]
    #: each rank's traffic, when the process hosts every rank (a forked
    #: rank's is its communicator's)
    traffic: list[TrafficStats] | None
    #: what ran the hour: ``"cext"`` or ``"twin"``
    impl: str
    loop_seconds: float
    #: of which the hour kernel, its sinks' spills included
    step_seconds: float
    #: and, on a forked rank, the ``alltoall`` with its wait and the
    #: receive (None in process: there is no exchange)
    exchange_seconds: float | None
    receive_seconds: float | None


def _hosted_at_start(
    week: WeekRows, assignment: np.ndarray, local: range
) -> list[np.ndarray]:
    """The agents on each of ``local``'s places at hour 0 by person id, as
    hosted rows (a function, so the loop holds no reference to week 0)."""
    owner = assignment[week.place[0]]
    ids = np.flatnonzero((owner >= local.start) & (owner < local.stop))
    ids = ids[np.argsort(owner[ids], kind="stable")]
    counts = np.bincount(owner[ids] - local.start, minlength=len(local))
    rows = pack_migrants(
        ids, np.zeros(len(ids), np.int64), week.activity[0][ids], week.place[0][ids]
    )
    return np.split(rows, np.cumsum(counts)[:-1])


def _read_rank_log(path: Path) -> LogRecordArray:
    with LogReader(path, strict=True) as reader:
        return reader.read_all()


@dataclass
class DistributedRunResult:
    """Everything a distributed run produced.

    A run that wrote logs holds counts, not records: ``per_rank_records``
    reads them back from ``log_paths`` on every access (nothing is
    cached).  A run without logs holds its records in ``held_records``,
    the only place they exist.
    """

    n_ranks: int
    duration_hours: int
    #: records each rank emitted
    rank_events: list[int]
    migrations_per_hour: np.ndarray
    traffic: TrafficStats
    per_rank_traffic: list[TrafficStats] = field(default_factory=list)
    log_paths: list[Path] = field(default_factory=list)
    #: supervised restarts after detected rank failures
    restarts: int = 0
    #: collective snapshots committed (final successful attempt)
    checkpoints_written: int = 0
    #: what ran the rank-hour step: ``"cext"``, or ``"twin"`` when any
    #: rank stepped in numpy (as ``SynthesisReport.impl``)
    impl: str = ""
    #: each rank's records, in memory (None: read them from ``log_paths``)
    held_records: list[LogRecordArray] | None = None

    @property
    def per_rank_records(self) -> list[LogRecordArray]:
        """Each rank's records in the order it emitted them."""
        if self.held_records is not None:
            return self.held_records
        return [_read_rank_log(path) for path in self.log_paths]

    @property
    def total_migrations(self) -> int:
        return int(self.migrations_per_hour.sum())

    @property
    def total_events(self) -> int:
        return sum(self.rank_events)

    def merged_records(self) -> LogRecordArray:
        """All ranks' records, sorted by (person, start) — the canonical
        order for comparison with the serial engine."""
        parts = [r for r in self.per_rank_records if len(r)]
        if not parts:
            return empty_records(0)
        merged = np.concatenate(parts) if len(parts) > 1 else parts[0]
        order = np.lexsort((merged["start"], merged["person"]))
        return merged[order]

    def events_per_rank(self) -> list[int]:
        return list(self.rank_events)


class DistributedSimulation:
    """The distributed chiSIM-like model.

    Parameters
    ----------
    population:
        The synthetic world.
    config:
        ``config.n_ranks`` ranks are simulated; the disease layer is not
        supported distributed (run it on the serial engine).
    partition:
        Place → rank ownership; see :mod:`repro.distrib.partition`.
    """

    def __init__(
        self,
        population: SyntheticPopulation,
        config: SimulationConfig,
        partition: PlacePartition,
    ) -> None:
        if config.disease is not None:
            raise SimulationError(
                "distributed runs do not support the disease layer; "
                "use the serial Simulation"
            )
        if partition.n_places != population.n_places:
            raise SimulationError(
                "partition covers {0} places, population has {1}".format(
                    partition.n_places, population.n_places
                )
            )
        if partition.n_ranks != config.n_ranks:
            raise SimulationError(
                f"partition has {partition.n_ranks} ranks, config wants "
                f"{config.n_ranks}"
            )
        self.population = population
        self.config = config
        self.partition = partition

    def checkpoint_digest(self, with_log: bool) -> str:
        """Configuration + partition fingerprint guarding resume."""
        base = sim_checkpoint_digest(self.config, with_log=with_log)
        h = hashlib.sha256(base.encode())
        h.update(self.partition.assignment.tobytes())
        return h.hexdigest()

    def run(
        self,
        log_dir: str | Path | None = None,
        cluster: Any = None,
        checkpoint_dir: str | Path | None = None,
        fault_hook: "Callable[[Any, int], None] | None" = None,
        max_restarts: int = 0,
    ) -> DistributedRunResult:
        """Execute the run on ``config.n_ranks`` ranks.

        By default every rank runs in this process, stepped together by
        one loop (one hour-kernel call an active hour, no collective).
        ``cluster`` may be any object with a compatible ``run(rank_fn,
        rank_args=...)`` — i.e.
        :class:`~repro.distrib.proccluster.ProcessBspCluster` for real OS
        processes — and runs the same loop for one rank in each, its
        exchange and snapshots on the rank's communicator.

        Fault tolerance
        ---------------
        With ``checkpoint_dir`` set and ``config.checkpoint_every_hours``
        configured, ranks commit a collective snapshot every N hours:
        per-rank hosted agents, open spells, migration counts and log-file
        byte offsets (or, in a run without logs, the emitted records) are
        gathered to rank 0, which writes them atomically (state npz first,
        manifest last).  With ``max_restarts > 0`` and the default
        cluster, a detected rank failure
        (:class:`~repro.errors.RankFailureError`: a rank was killed, or
        its work between two collectives overran
        ``config.heartbeat_timeout``) triggers a supervised restart: a
        fresh attempt restores every rank from the last snapshot —
        truncating each rank's log back to the recorded offset — and
        replays.  ``fault_hook(comm, hour)`` runs at the top of every
        rank-hour, change-free ones included, rank by rank, and exists for
        fault injection: ``comm`` is the rank's :class:`RankHandle`
        (``rank``, ``size``, ``dead``, ``die()``; call ``die()`` to
        simulate a hard kill: that rank's log is left torn, the others'
        writers close); hooks must be stateful so they do not re-kill
        after a restart.  In process, a hook that raises fails the run
        with :class:`~repro.errors.CommError` naming its rank, and a hook
        (or an hour kernel call) that overruns
        ``config.heartbeat_timeout`` with
        :class:`~repro.errors.RankFailureError` naming its rank (every
        hosted rank for the kernel).  A ``checkpoint_dir`` holding the serial
        engine's old snapshot format (``sim_manifest.json``) and no
        collective one is refused with
        :class:`~repro.errors.CheckpointError` before any log is opened.
        """
        ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        if (
            ckpt_dir is not None
            and (ckpt_dir / _SERIAL_MANIFEST).is_file()
            and not (ckpt_dir / DIST_MANIFEST).is_file()
        ):
            # resuming needs the rank tables this format never held, and
            # starting over would silently overwrite the killed run's log
            raise CheckpointError(
                f"{ckpt_dir} holds a serial-engine checkpoint "
                f"({_SERIAL_MANIFEST}), a format no longer read; remove it "
                "or checkpoint into another directory"
            )
        duration = self.config.duration_hours
        n_ranks = self.config.n_ranks
        n_persons = self.population.n_persons
        assignment = self.partition.assignment
        # before any forked rank exists: every rank runs
        # the implementation this process loaded and none builds its own
        load_cext()
        cache = _ScheduleCache(
            self.population.schedule_generator(self.config.schedule)
        )
        log_directory = Path(log_dir) if log_dir is not None else None
        if log_directory is not None:
            log_directory.mkdir(parents=True, exist_ok=True)
        cache_records = self.config.log_cache_records
        durability = self.config.log_durability
        every = self.config.checkpoint_every_hours
        digest = self.checkpoint_digest(with_log=log_directory is not None)

        heartbeat = self.config.heartbeat_timeout or math.inf

        def open_sink(rank: int, state: dict | None) -> Any:
            """Rank ``rank``'s log writer (cut back to the snapshot's offset
            on a resume), or its held records in a run without logs."""
            if log_directory is None:
                return _HeldRecords(None if state is None else state["records"])
            path = rank_log_path(log_directory, rank)
            if state is None:
                return CachedLogWriter(
                    path, rank=rank, cache_records=cache_records, durability=durability
                )
            return CachedLogWriter.open_resume(
                path, cache_records=cache_records, durability=durability, rank=rank,
                at_offset=int(state["writer_offset"]),
            )

        def snapshot_states(
            table: HostedTable, sinks: list[Any], migrations: np.ndarray
        ) -> list[dict]:
            """Each hosted rank's part of a snapshot; a logged rank's log is
            flushed first, so its offset is a chunk boundary."""
            table.settle()
            states = []
            for i, sink in enumerate(sinks):
                live = table.hosted(i)
                if log_directory is not None:
                    sink.flush()
                states.append(
                    {
                        # columns that own their memory: the table is
                        # rewritten in place from the next hour on
                        "ids": live["person"].copy(),
                        "spell_start": live["spell_start"].copy(),
                        "spell_act": live["activity"].copy(),
                        "spell_place": live["place"].copy(),
                        "records": (
                            sink.records().copy() if log_directory is None else None
                        ),
                        "migrations_out": migrations[i].copy(),
                        "writer_offset": -1 if log_directory is None else sink.offset,
                    }
                )
            table.attach(sinks)
            return states

        def host(comm: Any, local: range, resume: list[dict] | None) -> _HostOutput:
            """The hour loop over the ranks ``local`` this process hosts:
            every rank in process (``comm`` None: no collective at all), or
            the one rank of a forked process, which performs the hour's
            ``alltoall`` and a snapshot's ``gather`` and ``barrier`` on
            ``comm``."""
            clock = time.perf_counter
            tic = clock()
            # opened and ended with an explicit parent, never made the
            # current span: the hosted ranks interleave on one thread
            spans = [
                start_span(
                    "distrib.rank", run_span.context(),
                    {"rank": r, "hours": duration - first_hour},
                )
                for r in local
            ]
            sinks: list[Any] = []
            table: HostedTable | None = None
            current = local.start  # the rank whose work runs
            killed: int | None = None
            try:
                if resume is not None:
                    rows = [
                        pack_migrants(
                            st["ids"], st["spell_start"], st["spell_act"], st["spell_place"]
                        )
                        for st in resume
                    ]
                    migrations = np.stack([st["migrations_out"] for st in resume])
                    migrations = migrations.astype(np.int64)
                    start_hour = first_hour
                else:
                    rows = _hosted_at_start(cache.rows(0), assignment, local)
                    migrations = np.zeros((len(local), duration), dtype=np.int64)
                    start_hour = 1
                table = HostedTable(
                    rows, rank=local.start, n_ranks=n_ranks, n_persons=n_persons,
                    assignment=assignment,
                )
                for i, r in enumerate(local):
                    sinks.append(open_sink(r, None if resume is None else resume[i]))
                table.attach(sinks)
                handles = [RankHandle(r, n_ranks) for r in local]
                # what a snapshot's gather and barrier cost each rank in
                # process (a forked rank's communicator meters its own)
                collectives = [TrafficStats() for _ in local]
                checkpoints = quiet_hours = active_hours = 0
                step_seconds = exchange_seconds = receive_seconds = 0.0
                for hour in range(start_hour, duration):
                    if fault_hook is not None:
                        for handle in handles:
                            current = handle.rank
                            t_hook = clock()
                            fault_hook(handle, hour)
                            spent = clock() - t_hook
                            if spent > heartbeat:
                                raise RankFailureError(
                                    f"rank {current} worked {spent:.3f}s between two "
                                    f"collectives, past its {heartbeat}s heartbeat",
                                    suspects=[current],
                                )
                    week_index, hour_of_week = divmod(hour, HOURS_PER_WEEK)
                    if hour_of_week == 0 or hour == start_hour:
                        week = cache.rows(week_index)
                        table.bind_week(week)

                    if not week.active[hour_of_week]:
                        # nobody anywhere changes: every rank skips the
                        # step and the exchange alike
                        quiet_hours += 1
                    else:
                        t_step = clock()
                        _, payloads, n_leavers = table.step(hour)
                        t_exchange = clock()
                        step_seconds += t_exchange - t_step
                        if t_exchange - t_step > heartbeat:
                            raise RankFailureError(
                                f"ranks {list(local)} worked {t_exchange - t_step:.3f}s "
                                f"in hour {hour}, past their {heartbeat}s heartbeat",
                                suspects=list(local),
                            )
                        if n_leavers:
                            migrations[:, hour] = table.left
                        active_hours += 1
                        if comm is not None:
                            arrivals = comm.alltoall(payloads)
                            t_receive = clock()
                            table.receive(arrivals)
                            exchange_seconds += t_receive - t_exchange
                            receive_seconds += clock() - t_receive

                    if (
                        ckpt_dir is not None
                        and every
                        and (hour + 1) % every == 0
                        and (hour + 1) < duration
                    ):
                        states = snapshot_states(table, sinks, migrations)
                        if comm is None:
                            # as if gathered to rank 0: the others send it
                            # their state
                            for r, (stats, state) in enumerate(zip(collectives, states)):
                                stats.record("gather", int(r > 0), payload_nbytes(state) if r else 0)
                            _save_dist_checkpoint(ckpt_dir, digest, hour + 1, states)
                            for stats in collectives:
                                stats.record("barrier", 0, 0)
                        else:
                            gathered = comm.gather(states[0], 0)
                            if gathered is not None:
                                _save_dist_checkpoint(ckpt_dir, digest, hour + 1, gathered)
                            # nobody proceeds until the snapshot is committed
                            comm.barrier()
                        checkpoints += 1

                table.settle()
                outputs = []
                for i, (sink, span) in enumerate(zip(sinks, spans)):
                    current = local[i]
                    if table.counts[i]:
                        sink.log_batch(table.close_all(duration, i))
                    if log_directory is not None:
                        sink.close()
                    out = _RankOutput(
                        rank=current,
                        records=None if log_directory is not None else sink.records(),
                        events=sink.fill if log_directory is None else sink.stats.records,
                        migrations_out=migrations[i],
                        hosted_final=int(table.counts[i]),
                        log_path=None if log_directory is None else sink.path,
                        checkpoints=checkpoints,
                        changes=int(table.changes[i]),
                        migrants=int(migrations[i, start_hour:].sum()),
                        twin_steps=table.twin_steps // len(local),
                        quiet_hours=quiet_hours,
                    )
                    span.set_attr("records", out.events)
                    span.set_attr("migrants", out.migrants)
                    outputs.append(out)
            except BaseException as exc:
                if table is not None:
                    # best effort: the writers closed below flush what the
                    # hours appended
                    with contextlib.suppress(Exception):
                        table.settle()
                failure = exc
                if isinstance(exc, RankDeadError):
                    # a simulated hard kill: the victim's log is left torn,
                    # as a SIGKILL would leave it
                    killed = current
                    if comm is None:
                        failure = RankFailureError(
                            f"rank {current} died during the run", suspects=[current]
                        )
                elif comm is None and type(exc) is not RankFailureError and isinstance(
                    exc, Exception
                ):
                    current = getattr(exc, "rank", current)
                    failure = CommError(f"rank {current} failed: {exc!r}")
                for r, span in zip(local, spans):
                    span.set_status(f"error:{type(exc if r == current else failure).__name__}")
                if log_directory is not None:
                    for r, sink in zip(local, sinks):
                        if r != killed:
                            sink.close()
                if failure is exc:
                    raise
                raise failure from (None if killed is not None else exc)
            finally:
                for span in spans:
                    span.end()

            traffic = None
            if comm is None:
                # one alltoall an active hour, then the snapshots' collectives
                traffic = []
                for (msgs, sent), snapshots in zip(table.sent.tolist(), collectives):
                    stats = TrafficStats()
                    if active_hours:
                        stats.record("alltoall", msgs, sent, collectives=active_hours)
                    traffic.append(stats.merged([snapshots]))
            return _HostOutput(
                ranks=outputs,
                traffic=traffic,
                impl=table.impl,
                loop_seconds=clock() - tic,
                step_seconds=step_seconds,
                exchange_seconds=None if comm is None else exchange_seconds,
                receive_seconds=None if comm is None else receive_seconds,
            )

        def forked(comm: Any, resume_state: dict | None) -> _HostOutput:
            return host(
                comm, range(comm.rank, comm.rank + 1),
                None if resume_state is None else [resume_state],
            )

        restarts = 0
        while True:
            first_hour, resume_states = 1, None
            if ckpt_dir is not None and (ckpt_dir / DIST_MANIFEST).is_file():
                first_hour, resume_states = _load_dist_checkpoint(
                    ckpt_dir, digest, n_ranks, with_records=log_directory is None
                )
            # the first week is built here, once: forked ranks inherit it
            cache.rows(first_hour // HOURS_PER_WEEK)
            try:
                with start_span("distrib.run", attrs={"ranks": n_ranks}) as run_span:
                    if cluster is None:
                        hosts = [host(None, range(n_ranks), resume_states)]
                        traffic = hosts[0].traffic
                    else:
                        result = cluster.run(
                            forked,
                            rank_args=[
                                (None if resume_states is None else resume_states[r],)
                                for r in range(n_ranks)
                            ],
                        )
                        hosts, traffic = result.returns, result.traffic
                break
            except RankFailureError:
                # supervised restart only in process (a caller-provided
                # cluster may not be reusable)
                if cluster is not None or restarts >= max_restarts:
                    raise
                restarts += 1
        outputs = [o for h in hosts for o in h.ranks]

        hosted_total = sum(o.hosted_final for o in outputs)
        if hosted_total != self.population.n_persons:
            raise SimulationError(
                f"agents lost in migration: {hosted_total} hosted at end, "
                f"population is {self.population.n_persons}"
            )
        migrations = np.zeros(duration, dtype=np.int64)
        # once per rank and once per hosting process, after the run:
        # nothing per hour
        for o, stats in zip(outputs, traffic):
            migrations += o.migrations_out
            count("distrib.rank_hours", duration - first_hour)
            count("distrib.quiet_hours", o.quiet_hours)
            count("distrib.changes", o.changes)
            count("distrib.migrants_out", o.migrants)
            count("distrib.alltoall_bytes", stats.by_kind.get("alltoall", 0))
            if o.twin_steps:
                count("kernels.rank_step.twin", o.twin_steps)
        for h in hosts:
            observe("distrib.rank_loop_seconds", h.loop_seconds)
            observe("distrib.step_seconds", h.step_seconds)
            if h.exchange_seconds is not None:
                observe("distrib.exchange_seconds", h.exchange_seconds)
                observe("distrib.receive_seconds", h.receive_seconds)
        return DistributedRunResult(
            n_ranks=n_ranks,
            duration_hours=duration,
            rank_events=[o.events for o in outputs],
            migrations_per_hour=migrations,
            traffic=traffic[0].merged(traffic[1:]),
            per_rank_traffic=traffic,
            log_paths=[o.log_path for o in outputs if o.log_path is not None],
            restarts=restarts,
            checkpoints_written=outputs[0].checkpoints,
            impl="cext" if all(h.impl == "cext" for h in hosts) else "twin",
            held_records=(
                [o.records for o in outputs] if log_directory is None else None
            ),
        )
