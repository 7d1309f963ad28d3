"""The rank-hour step as it was before the change-plane step replaced it.

``ReferenceDistributedSimulation.run`` is the pre-change
``DistributedSimulation.run`` verbatim: every rank-hour gathers both grid
columns for every hosted agent, compares them with the open spells, and
recomputes the owner of every hosted agent's place.  It is kept only so
``test_rank_step_equivalence.py`` can require the production step to give
byte-identical rank logs, records, migration counts, traffic and
checkpoints.  ``reference_step`` is one hour of that body on its own, for
``test_rank_step_property.py``; ``unpack_migrants`` is how it took in what
arrived (the receive path ``HostedTable.receive`` replaced), for
``test_receive_property.py``.  Do not import any of them from ``src/``.

It steps every hour, and holds every rank's records in memory also when
it logs (``held_records``), as the loop did before change-free hours were
skipped and logged runs stopped holding records; only the result and
checkpoint-loading APIs it shares with ``dmodel`` were adapted, and its
three collectives are yielded (``alltoall``, ``gather`` to rank 0,
``barrier``) to :func:`lockstep_run`, which steps the rank generators in
lockstep on one thread as the model's in-process cluster once did.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.config import HOURS_PER_WEEK
from repro.distrib.comm import ClusterRunResult, TrafficStats, payload_nbytes
from repro.distrib.dmodel import (
    DIST_MANIFEST,
    DistributedRunResult,
    DistributedSimulation,
    RankHandle,
    _load_dist_checkpoint,
    _RankOutput,
    _save_dist_checkpoint,
    _ScheduleCache,
)
from repro.distrib.migration import MIGRANT_DTYPE, pack_migrants
from repro.errors import CommError, RankDeadError, RankFailureError, SimulationError
from repro.evlog.multifile import rank_log_path
from repro.evlog.schema import LogRecordArray, empty_records
from repro.evlog.writer import CachedLogWriter


def lockstep_run(
    body_fn: Callable[..., Any],
    n_ranks: int,
    rank_args: list[tuple],
    heartbeat_timeout: float | None = None,
) -> ClusterRunResult:
    """Run generator rank bodies ``body_fn(handle, *rank_args[r])`` in
    lockstep on this thread, performing each collective they yield as a
    list transpose and metering it per rank (every off-diagonal non-empty
    payload one message of its size, a gather one message per non-root, a
    barrier none).  A rank whose handle ``die()``s fails the run with
    :class:`RankFailureError` naming it, one that overruns
    ``heartbeat_timeout`` between two collectives too, and one that raises
    anything else with :class:`CommError`; every other rank is closed
    where it waits."""
    handles = [RankHandle(r, n_ranks) for r in range(n_ranks)]
    stats = [TrafficStats() for _ in range(n_ranks)]
    bodies = [body_fn(handles[r], *rank_args[r]) for r in range(n_ranks)]
    limit = heartbeat_timeout or float("inf")
    returns: list[Any] = [None] * n_ranks
    replies: list[Any] = [None] * n_ranks
    try:
        while True:
            ops, finished = [], 0
            for r, body in enumerate(bodies):
                tic = time.perf_counter()
                try:
                    ops.append(body.send(replies[r]))
                except StopIteration as done:
                    returns[r] = done.value
                    finished += 1
                    continue
                except RankDeadError:
                    raise RankFailureError(
                        f"rank {r} died during the run", suspects=[r]
                    ) from None
                except Exception as exc:
                    raise CommError(f"rank {r} failed: {exc!r}") from exc
                if time.perf_counter() - tic > limit:
                    raise RankFailureError(
                        f"rank {r} overran its {limit}s heartbeat", suspects=[r]
                    )
            if finished == n_ranks:
                return ClusterRunResult(returns=returns, traffic=stats)
            assert not finished and len({op[0] for op in ops}) == 1, ops
            if ops[0][0] == "alltoall":
                for src, op in enumerate(ops):
                    sizes = [
                        payload_nbytes(p) for j, p in enumerate(op[1]) if j != src
                    ]
                    stats[src].record(
                        "alltoall", sum(1 for n in sizes if n), sum(sizes)
                    )
                replies = [list(column) for column in zip(*(op[1] for op in ops))]
            elif ops[0][0] == "gather":
                for r, op in enumerate(ops):
                    stats[r].record("gather", int(r != 0), payload_nbytes(op[1]) if r else 0)
                replies = [[op[1] for op in ops]] + [None] * (n_ranks - 1)
            else:
                for s in stats:
                    s.record("barrier", 0, 0)
                replies = [None] * n_ranks
    finally:
        for body in bodies:
            body.close()


def unpack_migrants(payloads: list[np.ndarray | None]) -> np.ndarray:
    """Concatenate received migrant payloads (skipping empty/None); a
    payload that is not :data:`MIGRANT_DTYPE` is a protocol error, never
    cast."""
    parts = [p for p in payloads if p is not None and len(p)]
    for p in parts:
        if getattr(p, "dtype", None) != MIGRANT_DTYPE:
            raise CommError(
                f"migrant payload has dtype {getattr(p, 'dtype', type(p))}, "
                f"expected {MIGRANT_DTYPE}"
            )
    if not parts:
        return np.empty(0, dtype=MIGRANT_DTYPE)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def reference_step(ids, spell_start, spell_act, spell_place, week, assignment,
                   rank, n_ranks, hour):
    """One rank-hour of the body below, on four parallel columns.

    Returns ``(records, (ids, spell_start, spell_act, spell_place),
    payloads)``; it reads no change plane and validates nothing.
    """
    hour_of_week = hour % HOURS_PER_WEEK
    new_act = week.activity[:, hour_of_week][ids]
    new_place = week.place[:, hour_of_week][ids]
    spell_start, spell_act, spell_place = (
        spell_start.copy(), spell_act.copy(), spell_place.copy()
    )
    idx = np.flatnonzero((new_act != spell_act) | (new_place != spell_place))
    rec = empty_records(len(idx))
    rec["start"] = spell_start[idx]
    rec["stop"] = hour
    rec["person"] = ids[idx]
    rec["activity"] = spell_act[idx]
    rec["place"] = spell_place[idx]
    spell_start[idx] = hour
    spell_act[idx] = new_act[idx]
    spell_place[idx] = new_place[idx]

    dest = assignment[spell_place.astype(np.int64)]
    leaving = dest != rank
    payloads: list[np.ndarray | None] = [None] * n_ranks
    lv = np.flatnonzero(leaving)
    for r in range(n_ranks):
        rows = lv[dest[lv] == r]
        if len(rows):
            payloads[r] = pack_migrants(
                ids[rows], spell_start[rows], spell_act[rows], spell_place[rows]
            )
    keep = ~leaving
    state = ids[keep], spell_start[keep], spell_act[keep], spell_place[keep]
    return rec, state, payloads


class ReferenceDistributedSimulation(DistributedSimulation):
    """``DistributedSimulation`` with the pre-change rank step."""

    def run(
        self,
        log_dir: str | Path | None = None,
        cluster: Any = None,
        checkpoint_dir: str | Path | None = None,
        fault_hook: "Callable[[Any, int], None] | None" = None,
        max_restarts: int = 0,
    ) -> DistributedRunResult:
        """Execute the run on ``config.n_ranks`` ranks, stepped in
        lockstep by :func:`lockstep_run` (``cluster`` is not supported).

        Fault tolerance
        ---------------
        With ``checkpoint_dir`` set and ``config.checkpoint_every_hours``
        configured, ranks commit a collective snapshot every N hours:
        per-rank hosted agents, open spells, emitted records, and log-file
        byte offsets are gathered to rank 0, which writes them atomically
        (state npz first, manifest last).  With ``max_restarts > 0``, a
        detected rank failure
        (:class:`~repro.errors.RankFailureError`, raised when a rank is
        killed or misses its ``config.heartbeat_timeout`` deadline)
        triggers a supervised restart: a fresh run restores every rank
        from the last snapshot — truncating each rank's log back to the
        recorded offset — and replays.  ``fault_hook(comm, hour)`` runs at
        the top of every rank-hour and exists for fault injection (call
        ``comm.die()`` to simulate a hard kill); hooks must be stateful so
        they do not re-kill after a restart.
        """
        duration = self.config.duration_hours
        n_ranks = self.config.n_ranks
        assignment = self.partition.assignment
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

        def rank_fn(comm: Any, resume_state: dict | None):
            rank = comm.rank
            week = cache.rows(0).grid()
            checkpoints = 0
            if resume_state is not None:
                ids = resume_state["ids"].astype(np.uint32).copy()
                spell_start = resume_state["spell_start"].astype(np.int64).copy()
                spell_act = resume_state["spell_act"].astype(np.uint32).copy()
                spell_place = resume_state["spell_place"].astype(np.uint32).copy()
                migrations_out = (
                    resume_state["migrations_out"].astype(np.int64).copy()
                )
                start_hour = int(resume_state["next_hour"])
            else:
                place0 = week.place[:, 0]
                act0 = week.activity[:, 0]
                mine = assignment[place0.astype(np.int64)] == rank
                ids = np.flatnonzero(mine).astype(np.uint32)
                spell_start = np.zeros(len(ids), dtype=np.int64)
                spell_act = act0[ids].astype(np.uint32)
                spell_place = place0[ids].astype(np.uint32)
                migrations_out = np.zeros(duration, dtype=np.int64)
                start_hour = 1

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
                if len(rec):
                    records.append(rec)
                    if writer is not None:
                        writer.log_batch(rec)

            killed = False
            try:
                for hour in range(start_hour, duration):
                    if fault_hook is not None:
                        fault_hook(comm, hour)
                    week_index, hour_of_week = divmod(hour, HOURS_PER_WEEK)
                    if hour_of_week == 0 or hour == start_hour:
                        week = cache.rows(week_index).grid()
                    act_col = week.activity[:, hour_of_week]
                    place_col = week.place[:, hour_of_week]

                    new_act = act_col[ids]
                    new_place = place_col[ids]
                    changed = (new_act != spell_act) | (new_place != spell_place)
                    idx = np.flatnonzero(changed)
                    if len(idx):
                        rec = empty_records(len(idx))
                        rec["start"] = spell_start[idx]
                        rec["stop"] = hour
                        rec["person"] = ids[idx]
                        rec["activity"] = spell_act[idx]
                        rec["place"] = spell_place[idx]
                        emit(rec)
                        spell_start[idx] = hour
                        spell_act[idx] = new_act[idx]
                        spell_place[idx] = new_place[idx]

                    dest = assignment[spell_place.astype(np.int64)]
                    leaving = dest != rank
                    payloads: list[np.ndarray | None] = [None] * comm.size
                    if leaving.any():
                        lv = np.flatnonzero(leaving)
                        migrations_out[hour] = len(lv)
                        dest_lv = dest[lv]
                        order = np.argsort(dest_lv, kind="stable")
                        lv = lv[order]
                        dest_lv = dest_lv[order]
                        bounds = np.searchsorted(
                            dest_lv, np.arange(comm.size + 1)
                        )
                        for r in range(comm.size):
                            lo, hi = bounds[r], bounds[r + 1]
                            if hi > lo:
                                rows = lv[lo:hi]
                                payloads[r] = pack_migrants(
                                    ids[rows],
                                    spell_start[rows],
                                    spell_act[rows],
                                    spell_place[rows],
                                )
                        keep = ~leaving
                        ids = ids[keep]
                        spell_start = spell_start[keep]
                        spell_act = spell_act[keep]
                        spell_place = spell_place[keep]
                    incoming = unpack_migrants((yield ("alltoall", payloads)))
                    if len(incoming):
                        ids = np.concatenate([ids, incoming["person"]])
                        spell_start = np.concatenate(
                            [spell_start, incoming["spell_start"]]
                        )
                        spell_act = np.concatenate(
                            [spell_act, incoming["activity"]]
                        )
                        spell_place = np.concatenate(
                            [spell_place, incoming["place"]]
                        )

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
                        state = {
                            "ids": ids,
                            "spell_start": spell_start,
                            "spell_act": spell_act,
                            "spell_place": spell_place,
                            "records": merged,
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

                # close remaining spells
                if len(ids):
                    rec = empty_records(len(ids))
                    rec["start"] = spell_start
                    rec["stop"] = duration
                    rec["person"] = ids
                    rec["activity"] = spell_act
                    rec["place"] = spell_place
                    emit(rec)
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
                events=len(merged),
                migrations_out=migrations_out,
                hosted_final=len(ids),
                log_path=path,
                checkpoints=checkpoints,
            )

        restarts = 0
        while True:
            resume_states: list[dict] | None = None
            if ckpt_dir is not None and (ckpt_dir / DIST_MANIFEST).is_file():
                next_hour, resume_states = _load_dist_checkpoint(
                    ckpt_dir, digest, n_ranks
                )
                for st in resume_states:
                    st["next_hour"] = next_hour
            rank_args = [
                (resume_states[r] if resume_states is not None else None,)
                for r in range(n_ranks)
            ]
            try:
                result = lockstep_run(
                    rank_fn, n_ranks, rank_args, self.config.heartbeat_timeout
                )
                break
            except RankFailureError:
                if restarts >= max_restarts:
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
        for o in outputs:
            migrations += o.migrations_out
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
            held_records=[o.records for o in outputs],
        )
