"""Distributed model driver.

Runs the chiSIM-like model across ranks the way Repast HPC does: each rank
owns the places a :class:`~repro.distrib.partition.PlacePartition` assigns
to it, hosts the agents currently at its places, and logs activity changes
that occur on it ("each process logger is responsible for logging activity
changes that occur only in that process").  When an agent's next place
belongs to another rank, its open activity spell migrates there through a
metered all-to-all exchange.

Invariant (tested): for the same population/seed the union of all ranks'
event records equals the serial engine's event stream exactly.
"""

from __future__ import annotations

import hashlib
import io
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .._util import atomic_write_bytes
from ..config import HOURS_PER_WEEK, SimulationConfig
from ..core.kernels.cext import load_cext
from ..errors import CheckpointError, RankDeadError, RankFailureError, SimulationError
from ..evlog.multifile import rank_log_path
from ..evlog.schema import LogRecordArray, empty_records
from ..evlog.writer import CachedLogWriter
from ..obs import get_probe, start_span
from ..sim.checkpoint import (
    CHECKPOINT_VERSION,
    read_manifest,
    sim_checkpoint_digest,
    write_manifest,
)
from ..synthpop.generator import SyntheticPopulation
from ..synthpop.schedule import WeekGrid, WeeklyScheduleGenerator
from .comm import Communicator, TrafficStats
from .migration import pack_migrants, unpack_migrants
from .partition import PlacePartition
from .rankstep import HostedTable
from .simcluster import SimCluster

__all__ = [
    "DistributedSimulation",
    "DistributedRunResult",
    "DIST_MANIFEST",
    "DIST_STATE",
]

DIST_MANIFEST = "dist_manifest.json"
DIST_STATE = "dist_state.npz"


def _save_dist_checkpoint(
    directory: Path, digest: str, next_hour: int, states: list[dict]
) -> None:
    """Commit one collective snapshot: bulky npz first, manifest last."""
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    offsets: list[int] = []
    for r, st in enumerate(states):
        arrays[f"ids_{r}"] = st["ids"]
        arrays[f"start_{r}"] = st["spell_start"]
        arrays[f"act_{r}"] = st["spell_act"]
        arrays[f"place_{r}"] = st["spell_place"]
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
    directory: Path, digest: str, n_ranks: int
) -> tuple[int, list[dict]]:
    """Load a collective snapshot; returns ``(next_hour, per-rank states)``."""
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
    offsets = manifest["writer_offsets"]
    states: list[dict] = []
    with np.load(state_path) as data:
        for r in range(n_ranks):
            states.append(
                {
                    "ids": data[f"ids_{r}"],
                    "spell_start": data[f"start_{r}"],
                    "spell_act": data[f"act_{r}"],
                    "spell_place": data[f"place_{r}"],
                    "records": data[f"records_{r}"],
                    "migrations_out": data[f"mig_{r}"],
                    "writer_offset": int(offsets[r]),
                }
            )
    return int(manifest["next_hour"]), states


class _ScheduleCache:
    """Thread-shared lazy cache of week grids and their change planes.

    Models ranks reading the same deterministic schedule inputs; generating
    a week once and sharing it read-only across rank threads avoids
    duplicating the grid per rank in this in-process simulation.
    """

    def __init__(self, generator: WeeklyScheduleGenerator) -> None:
        self._generator = generator
        self._lock = threading.Lock()
        self._weeks: dict[int, tuple[WeekGrid, np.ndarray]] = {}

    def _entry(self, index: int) -> tuple[WeekGrid, np.ndarray]:
        with self._lock:
            entry = self._weeks.get(index)
            if entry is None:
                grid = self._generator.week(index)
                previous = None
                if index > 0:  # a resume can start past a week never cached
                    cached = self._weeks.get(index - 1)
                    previous = cached[0] if cached else self._generator.week(index - 1)
                entry = self._weeks[index] = (grid, grid.change_plane(previous))
                # keep at most two weeks resident (current + boundary)
                for old in [k for k in self._weeks if k < index - 1]:
                    del self._weeks[old]
        return entry

    def week(self, index: int) -> WeekGrid:
        return self._entry(index)[0]

    def changes(self, index: int) -> np.ndarray:
        """``WeekGrid.change_plane`` of week ``index``, hour-major."""
        return self._entry(index)[1]


@dataclass
class _RankOutput:
    rank: int
    records: LogRecordArray
    migrations_out: np.ndarray  # per-hour counts
    hosted_final: int
    log_path: Path | None
    checkpoints: int = 0
    # this attempt's (a resumed rank counts from its resume hour)
    changes: int = 0
    migrants: int = 0
    loop_seconds: float = 0.0
    #: what ran the rank-hour scan, and how many steps its twin took
    impl: str = ""
    twin_steps: int = 0


@dataclass
class DistributedRunResult:
    """Everything a distributed run produced."""

    n_ranks: int
    duration_hours: int
    per_rank_records: list[LogRecordArray]
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

    @property
    def total_migrations(self) -> int:
        return int(self.migrations_per_hour.sum())

    @property
    def total_events(self) -> int:
        return sum(len(r) for r in self.per_rank_records)

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
        return [len(r) for r in self.per_rank_records]


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
        cluster: "SimCluster | None" = None,
        checkpoint_dir: str | Path | None = None,
        fault_hook: "Callable[[Communicator, int], None] | None" = None,
        max_restarts: int = 0,
    ) -> DistributedRunResult:
        """Execute the run on ``config.n_ranks`` ranks.

        ``cluster`` may be any object with a compatible ``run(rank_fn)``
        (e.g. :class:`~repro.distrib.proccluster.ProcessBspCluster` for
        real OS processes); defaults to the in-process simulated cluster.

        Fault tolerance
        ---------------
        With ``checkpoint_dir`` set and ``config.checkpoint_every_hours``
        configured, ranks commit a collective snapshot every N hours:
        per-rank hosted agents, open spells, emitted records, and log-file
        byte offsets are gathered to rank 0, which writes them atomically
        (state npz first, manifest last).  With ``max_restarts > 0`` and the
        default in-process cluster, a detected rank failure
        (:class:`~repro.errors.RankFailureError`, raised when a rank misses
        its ``config.heartbeat_timeout`` deadline) triggers a supervised
        restart: a fresh cluster restores every rank from the last
        snapshot — truncating each rank's log back to the recorded offset —
        and replays.  ``fault_hook(comm, hour)`` runs at the top of every
        rank-hour and exists for fault injection (call ``comm.die()`` to
        simulate a hard kill); hooks must be stateful so they do not
        re-kill after a restart.
        """
        duration = self.config.duration_hours
        n_ranks = self.config.n_ranks
        n_persons = self.population.n_persons
        assignment = self.partition.assignment
        # before any rank thread or forked rank exists: every rank runs
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
        ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        digest = self.checkpoint_digest(with_log=log_directory is not None)

        def rank_fn(comm: Communicator, resume_state: dict | None) -> _RankOutput:
            rank = comm.rank
            checkpoints = changes = 0
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
                week = cache.week(0)
                place0 = week.place[:, 0]
                ids = np.flatnonzero(assignment[place0] == rank)
                rows = pack_migrants(
                    ids, np.zeros(len(ids), np.int64), week.activity[ids, 0], place0[ids]
                )
                migrations_out = np.zeros(duration, dtype=np.int64)
                start_hour = 1
            hosted = HostedTable(
                rows, rank=rank, n_ranks=comm.size, n_persons=n_persons,
                assignment=assignment,
            )

            writer = None
            path = None
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
            records: list[LogRecordArray] = []
            if resume_state is not None and len(resume_state["records"]):
                records.append(resume_state["records"])

            def emit(rec: LogRecordArray) -> None:
                records.append(rec)
                if writer is not None:
                    writer.log_batch(rec)

            killed = False
            tic = time.perf_counter()
            try:
                for hour in range(start_hour, duration):
                    if fault_hook is not None:
                        fault_hook(comm, hour)
                    week_index, hour_of_week = divmod(hour, HOURS_PER_WEEK)
                    if hour_of_week == 0 or hour == start_hour:
                        hosted.bind_week(
                            cache.week(week_index), cache.changes(week_index)
                        )

                    rec, payloads, n_leavers = hosted.step(hour)
                    if rec is not None:
                        changes += len(rec)
                        emit(rec)
                        if n_leavers:
                            migrations_out[hour] = n_leavers
                    hosted.arrive(unpack_migrants(comm.alltoall(payloads)))

                    if (
                        ckpt_dir is not None
                        and every
                        and (hour + 1) % every == 0
                        and (hour + 1) < duration
                    ):
                        if writer is not None:
                            # flush so the offset is a chunk boundary
                            writer.flush()
                        merged = (
                            np.concatenate(records)
                            if len(records) > 1
                            else (records[0] if records else empty_records(0))
                        )
                        records = [merged]
                        live = hosted.hosted()
                        state = {
                            # columns that own their memory: the table is
                            # rewritten in place from the next hour on
                            "ids": live["person"].copy(),
                            "spell_start": live["spell_start"].copy(),
                            "spell_act": live["activity"].copy(),
                            "spell_place": live["place"].copy(),
                            "records": merged,
                            "migrations_out": migrations_out,
                            "writer_offset": (
                                writer.offset if writer is not None else -1
                            ),
                        }
                        gathered = comm.gather(state, root=0)
                        if gathered is not None:
                            _save_dist_checkpoint(
                                ckpt_dir, digest, hour + 1, gathered
                            )
                        # nobody proceeds until the snapshot is committed
                        comm.barrier()
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

            merged = (
                np.concatenate(records) if len(records) > 1
                else (records[0] if records else empty_records(0))
            )
            return _RankOutput(
                rank=rank,
                records=merged,
                migrations_out=migrations_out,
                hosted_final=hosted.count,
                log_path=path,
                checkpoints=checkpoints,
                changes=changes,
                migrants=int(migrations_out[start_hour:].sum()),
                loop_seconds=time.perf_counter() - tic,
                impl=hosted.impl,
                twin_steps=hosted.twin_steps,
            )

        def traced_rank_fn(comm: Communicator, resume_state: dict | None):
            attrs = {"rank": comm.rank, "hours": duration - first_hour}
            with start_span("distrib.rank", run_span.context(), attrs) as span:
                out = rank_fn(comm, resume_state)
                span.set_attr("records", len(out.records))
                span.set_attr("migrants", out.migrants)
                return out

        restarts = 0
        while True:
            first_hour, resume_states = 1, None
            if ckpt_dir is not None and (ckpt_dir / DIST_MANIFEST).is_file():
                first_hour, resume_states = _load_dist_checkpoint(
                    ckpt_dir, digest, n_ranks
                )
                for st in resume_states:
                    st["next_hour"] = first_hour
            attempt_cluster = cluster
            if attempt_cluster is None:
                attempt_cluster = SimCluster(
                    n_ranks, heartbeat_timeout=self.config.heartbeat_timeout
                )
            rank_args = [
                (resume_states[r] if resume_states is not None else None,)
                for r in range(n_ranks)
            ]
            try:
                with start_span("distrib.run", attrs={"ranks": n_ranks}) as run_span:
                    result = attempt_cluster.run(traced_rank_fn, rank_args=rank_args)
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
        probe = get_probe()  # once per rank, after the run: nothing per hour
        for o, traffic in zip(outputs, result.traffic):
            migrations += o.migrations_out
            probe.count("distrib.rank_hours", duration - first_hour)
            probe.count("distrib.changes", o.changes)
            probe.count("distrib.migrants_out", o.migrants)
            probe.count("distrib.alltoall_bytes", traffic.by_kind.get("alltoall", 0))
            probe.observe("distrib.rank_loop_seconds", o.loop_seconds)
            if o.twin_steps:
                probe.count("kernels.rank_step.twin", o.twin_steps)
        return DistributedRunResult(
            n_ranks=n_ranks,
            duration_hours=duration,
            per_rank_records=[o.records for o in outputs],
            migrations_per_hour=migrations,
            traffic=result.total_traffic,
            per_rank_traffic=result.traffic,
            log_paths=[o.log_path for o in outputs if o.log_path is not None],
            restarts=restarts,
            checkpoints_written=outputs[0].checkpoints,
            impl="cext" if all(o.impl == "cext" for o in outputs) else "twin",
        )
