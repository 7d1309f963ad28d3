"""One rank's hosted agents and the rank-hour step over them.

A rank hosts the agents currently on its places as **one table**: a
``MIGRANT_DTYPE`` array (person, open spell's start / activity / place)
with a fill count, grown geometrically.  One rank-hour is **one scan** of
that table (DESIGN.md §8a): read the shared change plane row, close the
changers' spells as ``LOG_DTYPE`` records, open their next spells from the
week grids, look the new owner up, compact stayers in place and bucket
leavers by destination.  The scan runs in the C extension
(``rk_rank_step``) when it loaded, else in the numpy twin right below the
call — same records, same table, same payloads, byte for byte.
"""

from __future__ import annotations

import numpy as np

from ..config import HOURS_PER_WEEK
from ..core.kernels.cext import load_cext
from ..errors import CommError, SimulationError
from ..evlog.schema import LOG_DTYPE, LogRecordArray, empty_records
from ..synthpop.schedule import WeekGrid
from .migration import MIGRANT_DTYPE, route_rows

__all__ = ["HostedTable"]

_ROW_BYTES = MIGRANT_DTYPE.itemsize

#: what ``rk_rank_step`` refuses, by return code (the twin raises the same)
_REFUSALS = {
    -1: "a hosted person id is outside the population",
    -2: "a place id (hosted or scheduled) is outside the place table",
    -3: "a place is owned by a rank outside the cluster",
    -4: "an open spell does not start before the hour that closes it",
}


def _closed(rows: np.ndarray, stop: int) -> LogRecordArray:
    """The open spells ``rows`` (``MIGRANT_DTYPE``) as records ending at
    ``stop``."""
    rec = empty_records(len(rows))
    rec["start"] = rows["spell_start"]
    rec["stop"] = stop
    rec["person"] = rows["person"]
    rec["activity"] = rows["activity"]
    rec["place"] = rows["place"]
    return rec


class HostedTable:
    """The agents one rank hosts, and the step that moves them an hour on.

    ``rows`` (``MIGRANT_DTYPE``) are the agents hosted at the start, in
    hosted order; ``assignment`` maps every place to its owning rank.
    ``table[:count]`` is the live state; capacity doubles when arrivals
    need it and never exceeds the population.  Agents enter only through
    :meth:`receive`.
    """

    def __init__(
        self,
        rows: np.ndarray,
        *,
        rank: int,
        n_ranks: int,
        n_persons: int,
        assignment: np.ndarray,
    ) -> None:
        if rows.dtype != MIGRANT_DTYPE or rows.ndim != 1:
            raise SimulationError("hosted rows must be a 1-D MIGRANT_DTYPE array")
        if assignment.dtype != np.int32 or not assignment.flags.c_contiguous:
            raise SimulationError("assignment must be a contiguous int32 array")
        if not 0 <= rank < n_ranks:
            raise SimulationError(f"rank {rank} outside cluster of {n_ranks}")
        self.rank = rank
        self.n_ranks = n_ranks
        self.n_persons = n_persons
        self.n_places = len(assignment)
        self.count = 0
        #: steps the numpy twin ran (0 when the C extension took them all)
        self.twin_steps = 0
        self._assignment = assignment
        self._kernels = load_cext()
        #: the scan's ``out``: rows kept, then the n_ranks + 1 group bounds
        self._bounds = np.zeros(n_ranks + 2, dtype=np.int64)
        self._week: WeekGrid | None = None
        self._plane: np.ndarray | None = None
        self.table = np.empty(0, dtype=MIGRANT_DTYPE)
        self._reserve(len(rows))
        self.receive([rows])

    @property
    def impl(self) -> str:
        """What runs the scan: ``"cext"`` or ``"twin"``."""
        return "twin" if self._kernels is None else "cext"

    # -- storage ---------------------------------------------------------------

    def _reserve(self, need: int) -> None:
        """Capacity for ``need`` rows; scratch follows the table's size."""
        if need > self.n_persons:
            raise SimulationError(
                f"rank {self.rank} would host {need} agents, "
                f"population is {self.n_persons}"
            )
        capacity = min(max(need, 2 * len(self.table)), self.n_persons)
        table = np.empty(capacity, dtype=MIGRANT_DTYPE)
        table[: self.count] = self.table[: self.count]
        self.table = table
        self._raw = table.view(np.uint8)
        if self._kernels is not None:
            # per-step outputs of the scan, held as bytes: what a step
            # keeps is copied out at exact size, and numpy copies bytes
            # several times faster than structured rows
            self._records = np.empty(capacity * LOG_DTYPE.itemsize, dtype=np.uint8)
            self._leavers = np.empty(capacity * _ROW_BYTES, dtype=np.uint8)
            self._moved = np.empty(capacity * _ROW_BYTES, dtype=np.uint8)
            self._dest = np.empty(capacity, dtype=np.int32)
            self._buffers = (
                self._records.ctypes.data,
                self._leavers.ctypes.data,
                self._moved.ctypes.data,
                self._dest.ctypes.data,
                self._bounds.ctypes.data,
            )
            self._table_at = table.ctypes.data

    def receive(self, payloads: list[np.ndarray | None]) -> None:
        """Append what ``payloads`` carry, in list (source-rank) order.

        ``payloads`` is what ``alltoall`` hands a rank: None or a
        ``MIGRANT_DTYPE`` array per source.  Rows are copied as raw 20-byte
        rows, with no structured assignment and no concatenation; a
        payload of any other dtype is a protocol error
        (:class:`~repro.errors.CommError`), never cast, and nothing is
        appended then.
        """
        nbytes = 0
        for payload in payloads:
            if payload is None:
                continue
            dtype = getattr(payload, "dtype", None)
            # identity first: a step's payloads carry the module's dtype
            # object; only one that crossed a pickle merely equals it
            if dtype is not MIGRANT_DTYPE and dtype != MIGRANT_DTYPE:
                raise CommError(
                    f"migrant payload has dtype "
                    f"{type(payload) if dtype is None else dtype}, "
                    f"expected {MIGRANT_DTYPE}"
                )
            nbytes += payload.nbytes
        if not nbytes:
            return
        need = self.count + nbytes // _ROW_BYTES
        if need > len(self.table):
            self._reserve(need)
        at = self.count * _ROW_BYTES
        for payload in payloads:
            if payload is None:
                continue
            if not payload.flags.c_contiguous:
                payload = np.ascontiguousarray(payload)
            end = at + payload.nbytes
            self._raw[at:end] = np.frombuffer(payload, np.uint8)
            at = end
        self.count = need

    def hosted(self) -> np.ndarray:
        """The live rows (a view of the table)."""
        return self.table[: self.count]

    # -- the step --------------------------------------------------------------

    def bind_week(self, week: WeekGrid, plane: np.ndarray) -> None:
        """Point the step at a week's grids and change plane.

        Called when the week turns, not per hour: it validates what the
        scan indexes blindly and resolves the buffer addresses once.
        """
        shape = (self.n_persons, HOURS_PER_WEEK)
        if (
            week.activity.shape != shape
            or week.activity.dtype != np.uint8
            or not week.activity.flags.c_contiguous
            or week.place.shape != shape
            or week.place.dtype != np.uint32
            or not week.place.flags.c_contiguous
        ):
            raise SimulationError("week grids do not fit the population")
        if (
            plane.shape != shape[::-1]
            or plane.dtype != np.bool_
            or not plane.flags.c_contiguous
        ):
            raise SimulationError("change plane does not fit the population")
        self._week, self._plane = week, plane
        if self._kernels is not None:
            self._week_at = (
                plane.ctypes.data,
                week.activity.ctypes.data,
                week.place.ctypes.data,
                self._assignment.ctypes.data,
            )

    def _refusal(self, hour: int, code: int) -> SimulationError:
        return SimulationError(f"rank {self.rank}, hour {hour}: {_REFUSALS[code]}")

    def step(
        self, hour: int
    ) -> tuple[LogRecordArray | None, list[np.ndarray | None], int]:
        """Move the hosted agents from ``hour - 1`` to ``hour``.

        Returns ``(records, payloads, n_leavers)``: the spells that closed
        at ``hour`` (None when nobody changed; an array that owns its
        exact-size memory otherwise), one payload per destination rank
        (slices of one fresh array, None where nobody goes), and how many
        agents left.  Malformed state — a person, place or owner out of
        range, an open spell that starts at or after ``hour`` — raises
        :class:`~repro.errors.SimulationError`.
        """
        week_index, how = divmod(hour, HOURS_PER_WEEK)
        if not 0 < hour < 2**32:
            raise SimulationError(f"hour {hour} outside the log's time range")
        if self._week is None or self._week.week_index != week_index:
            raise SimulationError(f"hour {hour} stepped without its week bound")
        if self._kernels is None:
            self.twin_steps += 1
            return self._step_twin(hour, how)
        plane_at, act_at, place_at, owner_at = self._week_at
        n_records = self._kernels.rank_step(
            self._table_at, self.count, plane_at + how * self.n_persons,
            act_at, place_at, HOURS_PER_WEEK, how, owner_at,
            self.n_persons, self.n_places, self.n_ranks, self.rank, hour,
            *self._buffers,
        )  # fmt: skip
        payloads: list[np.ndarray | None] = [None] * self.n_ranks
        if n_records < 0:
            raise self._refusal(hour, n_records)
        if n_records == 0:
            return None, payloads, 0
        self.count, *bounds = self._bounds.tolist()
        n_leavers = bounds[-1]
        if n_leavers:
            # a fresh array per hour: a sibling may still read last
            # hour's payload while this rank runs one alltoall ahead
            # (frombuffer, not .view: a structured view runs numpy's
            # Python-level field check, a microsecond a call)
            packed = np.frombuffer(
                self._leavers[: n_leavers * _ROW_BYTES].copy(), MIGRANT_DTYPE
            )
            for r in range(self.n_ranks):
                if bounds[r + 1] > bounds[r]:
                    payloads[r] = packed[bounds[r] : bounds[r + 1]]
        # a copy, not a view: a retained view would pin the whole scratch
        rec = np.frombuffer(
            self._records[: n_records * LOG_DTYPE.itemsize].copy(), LOG_DTYPE
        )
        return rec, payloads, n_leavers

    def _step_twin(
        self, hour: int, how: int
    ) -> tuple[LogRecordArray | None, list[np.ndarray | None], int]:
        """The numpy twin of ``rk_rank_step``."""
        week, n_places = self._week, self.n_places
        payloads: list[np.ndarray | None] = [None] * self.n_ranks
        live = self.table[: self.count]
        ids = live["person"]
        if len(ids) and int(ids.max()) >= self.n_persons:
            raise self._refusal(hour, -1)
        # open spells equal the grid at hour-1, so the plane row is the
        # change test; only changers touch the grid
        idx = np.flatnonzero(self._plane[how][ids])
        if not len(idx):
            return None, payloads, 0
        closing = live[idx]
        who, start = closing["person"], closing["spell_start"]
        new_place = week.place[who, how]
        if ((start < 0) | (start >= hour)).any():
            raise self._refusal(hour, -4)
        if max(int(closing["place"].max()), int(new_place.max())) >= n_places:
            raise self._refusal(hour, -2)
        rec = _closed(closing, hour)
        opened = np.empty(len(idx), dtype=MIGRANT_DTYPE)
        opened["person"] = who
        opened["spell_start"] = hour
        opened["activity"] = week.activity[who, how]
        opened["place"] = new_place
        # every hosted agent sits on a place this rank owns, so only a
        # changer can leave
        dest = self._assignment[new_place]
        if int(dest.min()) < 0 or int(dest.max()) >= self.n_ranks:
            raise self._refusal(hour, -3)
        gone = dest != self.rank
        n_leavers = int(gone.sum())
        if not n_leavers:
            live[idx] = opened
            return rec, payloads, 0
        live[idx[~gone]] = opened[~gone]
        order, spans = route_rows(dest[gone], self.n_ranks)
        packed = opened[gone][order]
        for r, lo, hi in spans:
            payloads[r] = packed[lo:hi]
        # stable compaction; rows before the first leaver do not move
        leaving = idx[gone]
        first = int(leaving[0])
        keep = np.ones(self.count - first, dtype=bool)
        keep[leaving - first] = False
        self.count -= n_leavers
        live[first : self.count] = live[first:][keep]
        return rec, payloads, n_leavers

    def close_all(self, stop: int) -> LogRecordArray:
        """The open spells of every hosted agent as records ending at
        ``stop`` (the end of the run); the table is left as it is."""
        live = self.hosted()
        start = live["spell_start"]
        if ((start < 0) | (start >= stop)).any() or not 0 < stop < 2**32:
            raise SimulationError(
                f"rank {self.rank}: an open spell does not start before "
                f"the end of the run ({stop})"
            )
        return _closed(live, stop)
