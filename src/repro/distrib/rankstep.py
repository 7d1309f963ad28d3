"""One rank's hosted agents and the rank-hour step over them.

A rank hosts the agents currently on its places as **one table**: a
``MIGRANT_DTYPE`` array (person, open spell's start / activity / place)
with a fill count, grown geometrically.  One rank-hour is **one scan** of
that table (DESIGN.md §8a): read the shared change plane row, close the
changers' spells as 20-byte log records, open their next spells from the
hour's rows of the week, look the new owner up, compact stayers in place
and bucket leavers by destination.  The scan runs in the C extension
(``rk_rank_step``) when it loaded, else in the numpy twin right below the
call — same records, same table, same payloads, byte for byte.

The step reads a week hour-major (:class:`WeekRows`): a changer's next
spell is one read from the hour's activity row and one from its place row,
each ``n_persons`` long, instead of two strided reads of the
person-major grids.  A generated week already is hour-major
(``rk_week_fill`` writes it so), so the rows are the week's own arrays.

A rank-hour's bookkeeping around the scan is kept to a few Python
operations: the kernel takes one preallocated argument block (only its
``count`` and ``hour`` slots change per call), the closed spells leave as
raw ``(k, 5)`` uint32 rows of the record scratch — what
``CachedLogWriter.log_batch`` copies into its cache in one slice, with
no structured-array round trip — and an arrival is one byte copy.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from ..config import HOURS_PER_WEEK
from ..core.kernels.cext import STEP_OUT, STEP_SLOTS, load_cext
from ..errors import CommError, SimulationError
from ..evlog.schema import LOG_FIELDS
from ..synthpop.schedule import WeekGrid
from .migration import MIGRANT_DTYPE, route_rows

__all__ = ["HostedTable", "WeekRows"]

_ROW_BYTES = MIGRANT_DTYPE.itemsize
#: ``rk_rank_step``'s argument block slots the step reads or rewrites
_COUNT, _HOUR = STEP_SLOTS.index("count"), STEP_SLOTS.index("hour")
_BOUNDS = STEP_OUT + 1

#: what ``rk_rank_step`` refuses, by return code (the twin raises the same)
_REFUSALS = {
    -1: "a hosted person id is outside the population",
    -2: "a place id (hosted or scheduled) is outside the place table",
    -3: "a place is owned by a rank outside the cluster",
    -4: "an open spell does not start before the hour that closes it",
}


@dataclass(frozen=True)
class WeekRows:
    """A week as the rank step reads it: hour-major.

    ``plane`` is the week's change plane (``WeekGrid.change_plane``);
    ``activity`` / ``place`` are contiguous ``(HOURS_PER_WEEK, n_persons)``
    rows, so hour ``h`` of every person is one row; ``active[h]`` is
    ``plane[h].any()``: whether anybody changes at ``h``.
    """

    week_index: int
    plane: np.ndarray
    activity: np.ndarray
    place: np.ndarray
    active: tuple[bool, ...]

    @classmethod
    def of(cls, week: WeekGrid, plane: np.ndarray) -> "WeekRows":
        """``week``'s rows beside its change plane: the generated week's
        own hour-major arrays, a transposed copy of any other grid."""
        return cls(
            week.week_index,
            plane,
            np.ascontiguousarray(week.activity.T),
            np.ascontiguousarray(week.place.T),
            tuple(plane.any(axis=1).tolist()),
        )

    def grid(self) -> WeekGrid:
        """The week as a ``WeekGrid``: person-major views of the rows."""
        return WeekGrid(self.week_index, self.activity.T, self.place.T)


def _closed(rows: np.ndarray, stop: int) -> np.ndarray:
    """The open spells ``rows`` (``MIGRANT_DTYPE``) as raw record rows
    (``(k, 5)`` uint32, ``LOG_FIELDS`` order) ending at ``stop``."""
    rec = np.empty((len(rows), len(LOG_FIELDS)), dtype=np.uint32)
    rec[:, 0] = rows["spell_start"]
    rec[:, 1] = stop
    rec[:, 2] = rows["person"]
    rec[:, 3] = rows["activity"]
    rec[:, 4] = rows["place"]
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
        self._week: WeekRows | None = None
        self._block = None
        if self._kernels is not None:
            # the scan's arguments, outputs after them: rows kept, then
            # the n_ranks + 1 group bounds; addresses are filled in by
            # _reserve and bind_week
            self._block = (ctypes.c_int64 * (STEP_OUT + n_ranks + 2))()
            for slot, value in (
                ("owner", assignment.ctypes.data), ("n_persons", n_persons),
                ("n_places", self.n_places), ("n_ranks", n_ranks), ("rank", rank),
            ):  # fmt: skip
                self._block[STEP_SLOTS.index(slot)] = value
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
        #: the table's bytes: an arrival is one slice assignment into it
        self._raw = memoryview(table.view(np.uint8))
        if self._block is not None:
            # per-step outputs of the scan: records as the raw rows the
            # writer takes, leavers as bytes (copied out at exact size,
            # and numpy copies bytes several times faster than structured
            # rows)
            self._records = np.empty((capacity, len(LOG_FIELDS)), dtype=np.uint32)
            self._leavers = np.empty(capacity * _ROW_BYTES, dtype=np.uint8)
            self._moved = np.empty(capacity * _ROW_BYTES, dtype=np.uint8)
            self._dest = np.empty(capacity, dtype=np.int32)
            for slot, array in (
                ("table", table), ("records", self._records),
                ("leavers", self._leavers), ("moved", self._moved),
                ("dest", self._dest),
            ):  # fmt: skip
                self._block[STEP_SLOTS.index(slot)] = array.ctypes.data

    def receive(self, payloads: list[np.ndarray | None]) -> None:
        """Append what ``payloads`` carry, in list (source-rank) order.

        ``payloads`` is what ``alltoall`` hands a rank: None or a
        ``MIGRANT_DTYPE`` array per source.  Rows are copied as raw 20-byte
        rows (``tobytes``, then one slice assignment into the table's
        bytes), with no structured assignment, no buffer export and no
        concatenation; a payload of any other dtype is a protocol error
        (:class:`~repro.errors.CommError`), never cast, and nothing is
        appended then.
        """
        arrived = []
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
            rows = payload.tobytes()
            arrived.append(rows)
            nbytes += len(rows)
        if not nbytes:
            return
        need = self.count + nbytes // _ROW_BYTES
        if need > len(self.table):
            self._reserve(need)
        at = self.count * _ROW_BYTES
        raw = self._raw
        for rows in arrived:
            end = at + len(rows)
            raw[at:end] = rows
            at = end
        self.count = need

    def hosted(self) -> np.ndarray:
        """The live rows (a view of the table)."""
        return self.table[: self.count]

    # -- the step --------------------------------------------------------------

    def bind_week(self, week: WeekRows) -> None:
        """Point the step at a week's hour-major rows and change plane.

        Called when the week turns, not per hour: it validates what the
        scan indexes blindly and writes the rows' addresses into the
        argument block once.
        """
        shape = (HOURS_PER_WEEK, self.n_persons)
        for grid, dtype, what in (
            (week.plane, np.bool_, "change plane"),
            (week.activity, np.uint8, "activity rows"),
            (week.place, np.uint32, "place rows"),
        ):
            if (
                grid.shape != shape
                or grid.dtype != dtype
                or not grid.flags.c_contiguous
            ):
                raise SimulationError(f"week {what} do not fit the population")
        self._week = week
        if self._block is not None:
            for slot, array in (
                ("plane", week.plane), ("act", week.activity), ("place", week.place)
            ):
                self._block[STEP_SLOTS.index(slot)] = array.ctypes.data

    def _refusal(self, hour: int, code: int) -> SimulationError:
        return SimulationError(f"rank {self.rank}, hour {hour}: {_REFUSALS[code]}")

    def step(
        self, hour: int
    ) -> tuple[np.ndarray | None, list[np.ndarray | None], int]:
        """Move the hosted agents from ``hour - 1`` to ``hour``.

        Returns ``(records, payloads, n_leavers)``: the spells that closed
        at ``hour`` as raw ``(k, 5)`` uint32 rows in ``LOG_FIELDS`` order
        (None when nobody changed; a view of the step's scratch, valid
        until the next step — copy what is kept), one payload per
        destination rank (slices of one fresh array, None where nobody
        goes), and how many agents left.  Malformed state — a person,
        place or owner out of range, an open spell that starts at or after
        ``hour`` — raises :class:`~repro.errors.SimulationError`.
        """
        if not 0 < hour < 2**32:
            raise SimulationError(f"hour {hour} outside the log's time range")
        if self._week is None or self._week.week_index != hour // HOURS_PER_WEEK:
            raise SimulationError(f"hour {hour} stepped without its week bound")
        block = self._block
        if block is None:
            self.twin_steps += 1
            return self._step_twin(hour, hour % HOURS_PER_WEEK)
        block[_COUNT] = self.count
        block[_HOUR] = hour
        n_records = self._kernels.rank_step(block)
        if n_records <= 0:
            if n_records:
                raise self._refusal(hour, n_records)
            return None, [None] * self.n_ranks, 0
        self.count = block[STEP_OUT]
        bounds = block[_BOUNDS : _BOUNDS + self.n_ranks + 1]
        n_leavers = bounds[-1]
        payloads: list[np.ndarray | None] = [None] * self.n_ranks
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
        return self._records[:n_records], payloads, n_leavers

    def _step_twin(
        self, hour: int, how: int
    ) -> tuple[np.ndarray | None, list[np.ndarray | None], int]:
        """The numpy twin of ``rk_rank_step``."""
        week, n_places = self._week, self.n_places
        payloads: list[np.ndarray | None] = [None] * self.n_ranks
        live = self.table[: self.count]
        ids = live["person"]
        if len(ids) and int(ids.max()) >= self.n_persons:
            raise self._refusal(hour, -1)
        # open spells equal the grid at hour-1, so the plane row is the
        # change test; only changers touch the hour's rows
        idx = np.flatnonzero(week.plane[how][ids])
        if not len(idx):
            return None, payloads, 0
        closing = live[idx]
        who, start = closing["person"], closing["spell_start"]
        new_place = week.place[how][who]
        if ((start < 0) | (start >= hour)).any():
            raise self._refusal(hour, -4)
        if max(int(closing["place"].max()), int(new_place.max())) >= n_places:
            raise self._refusal(hour, -2)
        rec = _closed(closing, hour)
        opened = np.empty(len(idx), dtype=MIGRANT_DTYPE)
        opened["person"] = who
        opened["spell_start"] = hour
        opened["activity"] = week.activity[how][who]
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

    def close_all(self, stop: int) -> np.ndarray:
        """The open spells of every hosted agent as raw record rows
        (``(k, 5)`` uint32) ending at ``stop`` (the end of the run); the
        table is left as it is."""
        live = self.hosted()
        start = live["spell_start"]
        if ((start < 0) | (start >= stop)).any() or not 0 < stop < 2**32:
            raise SimulationError(
                f"rank {self.rank}: an open spell does not start before "
                f"the end of the run ({stop})"
            )
        return _closed(live, stop)
