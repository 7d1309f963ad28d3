"""Distributed model driver.

Runs the chiSIM-like model across ranks the way Repast HPC does: each rank
owns the places a :class:`~repro.distrib.partition.PlacePartition` assigns
to it, hosts the agents currently at its places, and logs activity changes
that occur on it ("each process logger is responsible for logging activity
changes that occur only in that process").  When an agent's next place
belongs to another rank, its open activity spell migrates there through a
metered all-to-all exchange.

This is the one loop that writes event logs and simulation checkpoints,
at any rank count: a serial run is a world of one rank.  A rank's run is
one generator that yields at each collective (the hour's ``alltoall``, a
snapshot's ``gather`` and ``barrier``); by default every rank is stepped
in lockstep on the calling thread (:mod:`repro.distrib.lockstep`: no
thread, no barrier, no lock hand-off), and the same body runs on forked
process ranks (:mod:`repro.distrib.proccluster`) through
:func:`~repro.distrib.lockstep.spmd`, writing the same bytes.  A
rank-hour costs its work: every rank skips, in lockstep, the hours in
which nobody anywhere changes (no step, no exchange), the step reads the
week hour-major as ``rk_week_fill`` wrote it, one week resident, and
hands its closed spells to the log writer as raw rows; a run that writes
logs keeps per-rank counts and log offsets, never the records it wrote —
its logs hold them, and a run without logs appends the raw rows to one
buffer per rank, made a record array once (at a snapshot, or at the
end).  Each rank sums its step, log-append, exchange and receive clocks
locally and records them once at the end (``distrib.step_seconds`` /
``log_seconds`` / ``exchange_seconds`` / ``receive_seconds``), so where a
month's time went comes from the registry.  ``exchange_seconds`` runs
from handing the hour's payloads over to resuming with the arrivals: on
lockstep ranks that is the other ranks' turns up to the same collective
plus the transpose (the BSP wait, as a process rank's wait at its inbox
is), so the step, log and receive sums over ranks are the work and a
rank's exchange is what it waited for.

Invariant (tested): for the same population/seed the union of all ranks'
event records equals the serial engine's event stream exactly, and one
rank emits that stream in the serial engine's order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
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
from ..errors import CheckpointError, RankDeadError, RankFailureError, SimulationError
from ..evlog.multifile import rank_log_path
from ..evlog.reader import LogReader
from ..evlog.schema import LOG_DTYPE, LogRecordArray, empty_records, records_from_bytes
from ..evlog.writer import CachedLogWriter
from ..obs import count, observe, start_span
from ..synthpop.generator import SyntheticPopulation
from ..synthpop.schedule import WeeklyScheduleGenerator
from .comm import TrafficStats
from .lockstep import LockstepCluster, spmd
from .migration import pack_migrants
from .partition import PlacePartition
from .rankstep import HostedTable, WeekRows

__all__ = [
    "DistributedSimulation",
    "DistributedRunResult",
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
    loop_seconds: float = 0.0
    #: of which the step, the log append (or record keeping), the
    #: ``alltoall`` with its wait for the other ranks and
    #: ``HostedTable.receive``, each summed over the rank's hours
    step_seconds: float = 0.0
    log_seconds: float = 0.0
    exchange_seconds: float = 0.0
    receive_seconds: float = 0.0
    #: what ran the rank-hour scan, and how many steps its twin took
    impl: str = ""
    twin_steps: int = 0
    #: hours skipped because nobody anywhere changed at them
    quiet_hours: int = 0


def _hosted_at_start(
    week: WeekRows, assignment: np.ndarray, rank: int
) -> np.ndarray:
    """The agents on ``rank``'s places at hour 0, as hosted rows (a
    function, so the rank loop holds no reference to week 0)."""
    ids = np.flatnonzero(assignment[week.place[0]] == rank)
    return pack_migrants(
        ids, np.zeros(len(ids), np.int64), week.activity[0][ids], week.place[0][ids]
    )


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

        By default the ranks are generators stepped in lockstep on the
        calling thread (:class:`~repro.distrib.lockstep.LockstepCluster`):
        no thread, no barrier; it is the one in-process cluster.
        ``cluster`` may be any object with a compatible ``run(rank_fn,
        rank_args=...)`` — i.e.
        :class:`~repro.distrib.proccluster.ProcessBspCluster` for real OS
        processes — and runs the same rank body through
        :func:`~repro.distrib.lockstep.spmd`.

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
        fresh cluster restores every rank from the last snapshot —
        truncating each rank's log back to the recorded offset — and
        replays.  ``fault_hook(comm, hour)`` runs at the top of every
        rank-hour, change-free ones included, and exists for fault
        injection: ``comm`` has ``rank``, ``size``, ``dead`` and ``die()``
        (call it to simulate a hard kill: that rank's log is left torn,
        the others' writers close); hooks must be stateful so they do not
        re-kill after a restart.  A ``checkpoint_dir`` holding the serial
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

        def rank_body(comm: Any, resume_state: dict | None):
            """One rank's run, yielding at each collective (see
            :mod:`repro.distrib.lockstep`): the hour's ``alltoall``, a
            snapshot's ``gather`` and ``barrier``."""
            rank = comm.rank
            checkpoints = changes = quiet_hours = 0
            step_seconds = log_seconds = exchange_seconds = receive_seconds = 0.0
            if resume_state is not None:
                rows = pack_migrants(
                    resume_state["ids"],
                    resume_state["spell_start"],
                    resume_state["spell_act"],
                    resume_state["spell_place"],
                )
                migrations_out = (
                    resume_state["migrations_out"].astype(np.int64).copy()
                )
                start_hour = int(resume_state["next_hour"])
            else:
                rows = _hosted_at_start(cache.rows(0), assignment, rank)
                migrations_out = np.zeros(duration, dtype=np.int64)
                start_hour = 1
            hosted = HostedTable(
                rows, rank=rank, n_ranks=comm.size, n_persons=n_persons,
                assignment=assignment,
            )

            writer = None
            path = None
            # what a run without logs emitted, as raw record rows appended
            # to one buffer; a run that logs keeps none of it, its log
            # holds it
            held = bytearray()
            if log_directory is not None:
                path = rank_log_path(log_directory, rank)
                if resume_state is not None:
                    writer = CachedLogWriter.open_resume(
                        path,
                        cache_records=cache_records,
                        durability=durability,
                        rank=rank,
                        at_offset=int(resume_state["writer_offset"]),
                    )
                else:
                    writer = CachedLogWriter(
                        path,
                        rank=rank,
                        cache_records=cache_records,
                        durability=durability,
                    )
                emit = writer.log_batch
            else:
                if resume_state is not None:
                    held += resume_state["records"].tobytes()
                # the step's rows are its scratch: this copies them
                emit = held.extend

            killed = False
            clock = time.perf_counter
            tic = clock()
            try:
                for hour in range(start_hour, duration):
                    if fault_hook is not None:
                        fault_hook(comm, hour)
                    week_index, hour_of_week = divmod(hour, HOURS_PER_WEEK)
                    if hour_of_week == 0 or hour == start_hour:
                        week = cache.rows(week_index)
                        hosted.bind_week(week)

                    if not week.active[hour_of_week]:
                        # nobody anywhere changes: every rank skips the
                        # step and the exchange alike
                        quiet_hours += 1
                    else:
                        t_step = clock()
                        rec, payloads, n_leavers = hosted.step(hour)
                        t_log = clock()
                        if rec is not None:
                            changes += len(rec)
                            emit(rec)
                            if n_leavers:
                                migrations_out[hour] = n_leavers
                        t_exchange = clock()
                        arrivals = yield ("alltoall", payloads)
                        t_receive = clock()
                        hosted.receive(arrivals)
                        t_done = clock()
                        step_seconds += t_log - t_step
                        log_seconds += t_exchange - t_log
                        exchange_seconds += t_receive - t_exchange
                        receive_seconds += t_done - t_receive

                    if (
                        ckpt_dir is not None
                        and every
                        and (hour + 1) % every == 0
                        and (hour + 1) < duration
                    ):
                        if writer is not None:
                            # flush so the offset is a chunk boundary
                            writer.flush()
                        live = hosted.hosted()
                        state = {
                            # columns that own their memory: the table is
                            # rewritten in place from the next hour on
                            "ids": live["person"].copy(),
                            "spell_start": live["spell_start"].copy(),
                            "spell_act": live["activity"].copy(),
                            "spell_place": live["place"].copy(),
                            "records": (
                                None if writer is not None
                                else records_from_bytes(held)
                            ),
                            "migrations_out": migrations_out,
                            "writer_offset": (
                                writer.offset if writer is not None else -1
                            ),
                        }
                        gathered = yield ("gather", state, 0)
                        if gathered is not None:
                            _save_dist_checkpoint(
                                ckpt_dir, digest, hour + 1, gathered
                            )
                        # nobody proceeds until the snapshot is committed
                        yield ("barrier",)
                        checkpoints += 1

                if hosted.count:
                    emit(hosted.close_all(duration))
            except RankDeadError:
                # simulated hard kill: skip all cleanup so the log file is
                # left torn, exactly as a SIGKILL would
                killed = True
                raise
            finally:
                if writer is not None and not killed:
                    writer.close()

            records = None
            if writer is not None:
                events = writer.stats.records
            else:
                # the buffer's own bytes: nothing is appended any more
                records = np.frombuffer(held, dtype=LOG_DTYPE)
                events = len(records)
            return _RankOutput(
                rank=rank,
                records=records,
                events=events,
                migrations_out=migrations_out,
                hosted_final=hosted.count,
                log_path=path,
                checkpoints=checkpoints,
                changes=changes,
                migrants=int(migrations_out[start_hour:].sum()),
                loop_seconds=time.perf_counter() - tic,
                step_seconds=step_seconds,
                log_seconds=log_seconds,
                exchange_seconds=exchange_seconds,
                receive_seconds=receive_seconds,
                impl=hosted.impl,
                twin_steps=hosted.twin_steps,
                quiet_hours=quiet_hours,
            )

        def rank_steps(comm: Any, resume_state: dict | None):
            # opened and ended with an explicit parent, never made the
            # current span: lockstep ranks interleave on one thread
            span = start_span(
                "distrib.rank", run_span.context(),
                {"rank": comm.rank, "hours": duration - first_hour},
            )
            try:
                out = yield from rank_body(comm, resume_state)
                span.set_attr("records", out.events)
                span.set_attr("migrants", out.migrants)
                return out
            except BaseException as exc:
                span.set_status(f"error:{type(exc).__name__}")
                raise
            finally:
                span.end()

        restarts = 0
        while True:
            first_hour, resume_states = 1, None
            if ckpt_dir is not None and (ckpt_dir / DIST_MANIFEST).is_file():
                first_hour, resume_states = _load_dist_checkpoint(
                    ckpt_dir, digest, n_ranks, with_records=log_directory is None
                )
                for st in resume_states:
                    st["next_hour"] = first_hour
            # the first week is built here, once: forked ranks inherit it
            cache.rows(first_hour // HOURS_PER_WEEK)
            rank_args = [
                (resume_states[r] if resume_states is not None else None,)
                for r in range(n_ranks)
            ]
            try:
                with start_span("distrib.run", attrs={"ranks": n_ranks}) as run_span:
                    if cluster is None:
                        result = LockstepCluster(
                            n_ranks, heartbeat_timeout=self.config.heartbeat_timeout
                        ).run(rank_steps, rank_args=rank_args)
                    else:
                        result = cluster.run(spmd(rank_steps), rank_args=rank_args)
                break
            except RankFailureError:
                # supervised restart only with the default in-process
                # cluster (a caller-provided cluster may not be reusable)
                if cluster is not None or restarts >= max_restarts:
                    raise
                restarts += 1
        outputs: list[_RankOutput] = result.returns

        hosted_total = sum(o.hosted_final for o in outputs)
        if hosted_total != self.population.n_persons:
            raise SimulationError(
                f"agents lost in migration: {hosted_total} hosted at end, "
                f"population is {self.population.n_persons}"
            )
        migrations = np.zeros(duration, dtype=np.int64)
        # once per rank, after the run: nothing per hour
        for o, traffic in zip(outputs, result.traffic):
            migrations += o.migrations_out
            count("distrib.rank_hours", duration - first_hour)
            count("distrib.quiet_hours", o.quiet_hours)
            count("distrib.changes", o.changes)
            count("distrib.migrants_out", o.migrants)
            count("distrib.alltoall_bytes", traffic.by_kind.get("alltoall", 0))
            observe("distrib.rank_loop_seconds", o.loop_seconds)
            observe("distrib.step_seconds", o.step_seconds)
            observe("distrib.log_seconds", o.log_seconds)
            observe("distrib.exchange_seconds", o.exchange_seconds)
            observe("distrib.receive_seconds", o.receive_seconds)
            if o.twin_steps:
                count("kernels.rank_step.twin", o.twin_steps)
        return DistributedRunResult(
            n_ranks=n_ranks,
            duration_hours=duration,
            rank_events=[o.events for o in outputs],
            migrations_per_hour=migrations,
            traffic=result.total_traffic,
            per_rank_traffic=result.traffic,
            log_paths=[o.log_path for o in outputs if o.log_path is not None],
            restarts=restarts,
            checkpoints_written=outputs[0].checkpoints,
            impl="cext" if all(o.impl == "cext" for o in outputs) else "twin",
            held_records=(
                [o.records for o in outputs] if log_directory is None else None
            ),
        )
