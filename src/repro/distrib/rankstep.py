"""The agents the ranks of one process host, and the hour that moves them.

A process hosts a contiguous run of ranks — every rank of the cluster in
process, one rank in a forked process rank — as **one table**: a
``MIGRANT_DTYPE`` array (person, open spell's start / activity / place)
in which each hosted rank owns a segment with room to grow, and a small
int64 rank table (segment base, capacity and fill, the hour's records
and leavers, the rank's log sink, its sent traffic).  The hosted state is
O(persons), whatever the rank count.

One active hour is **one call** (DESIGN.md §8a): for every hosted rank in
rank order, one scan of its segment — read the shared change plane row,
close the changers' spells as 20-byte log records, open their next
spells from the hour's rows of the week, look the new owner up, compact
stayers in place — then each rank's records appended to its sink (a
``CachedLogWriter`` cache or a run's held records), the leavers grouped
by destination, a hosted destination's group appended to its segment
after its stayers in source-rank order (what an ``alltoall`` receive
would append), and each rank's sent messages and bytes metered.  The
call is ``rk_lockstep_hour`` in the C extension when it loaded, else the
numpy twin below it — same records, same segments, same payloads, byte
for byte.  Python runs once per hour, and per rank only to hand a sink
the records that did not fit its cache (a flush, a write-ahead-log
frame, a held buffer growing).

The step reads a week hour-major (:class:`WeekRows`): a changer's next
spell is one read from the hour's activity row and one from its place row,
each ``n_persons`` long.  A generated week already is hour-major
(``rk_week_fill`` writes it so), so the rows are the week's own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..config import HOURS_PER_WEEK
from ..core.kernels.cext import HOUR_SLOTS, RANK_FIELDS, load_cext
from ..errors import CommError, SimulationError
from ..evlog.schema import LOG_FIELDS
from ..synthpop.schedule import WeekGrid
from .migration import MIGRANT_DTYPE, route_rows

__all__ = ["HostedTable", "WeekRows"]

_ROW_BYTES = MIGRANT_DTYPE.itemsize
#: ``rk_lockstep_hour``'s argument block slots and rank-table fields
_TABLE, _SPARE, _CAPACITY, _HOUR, _OUT, _OUT_RANK = (
    HOUR_SLOTS.index(name)
    for name in ("table", "spare", "capacity", "hour", "out_records", "out_rank")
)
(
    _BASE, _CAP, _COUNT, _REC_LO, _N_REC, _LEFT, _SINK, _SINK_CAP, _FILL,
    _CHANGES, _MSGS, _BYTES,
) = range(len(RANK_FIELDS))  # fmt: skip

#: what ``rk_lockstep_hour`` refuses, by return code (the twin refuses the
#: same)
_REFUSALS = {
    -1: "a hosted person id is outside the population",
    -2: "a place id (hosted or scheduled) is outside the place table",
    -3: "a place is owned by a rank outside the cluster",
    -4: "an open spell does not start before the hour that closes it",
    -5: "the hosted ranks' agents do not fit their table",
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
    """The agents hosted by ranks ``rank, rank + 1, …`` of ``n_ranks``,
    and the hour that moves them on.

    ``rows`` (``MIGRANT_DTYPE``) are the agents hosted at the start, in
    hosted order: one array when the table hosts the one rank ``rank``,
    or a list of arrays, one per hosted rank.  ``assignment`` maps every
    place to its owning rank.  Rank ``i`` of the table (``rank + i`` of
    the cluster) hosts :meth:`hosted` ``(i)``; the rank table
    :attr:`ranks` holds its segment, its records and leavers of the last
    hour (``left``) and its sent traffic.  A table of one rank grows its
    storage geometrically as agents arrive, never past the population;
    one of several ranks is laid out once with slack, and again inside
    the kernel when a rank's arrivals outgrow its segment.  Agents from
    ranks outside the table enter only through :meth:`receive`, which
    only a table of one rank has.

    Records go to the hosted ranks' sinks (:meth:`attach`): anything with
    ``cache`` (a ``(k, 5)`` uint32 array the kernel may append to, or
    None when every batch must go through ``log_batch``), ``fill`` (its
    rows in use), ``filled_to(fill)`` and ``log_batch(rows)`` — a
    :class:`~repro.evlog.writer.CachedLogWriter`, or a run's held
    records.  The kernel appends a rank's records to its cache while
    they fit without reaching a flush, exactly where ``log_batch`` would
    copy them; the rest go through ``log_batch``.
    """

    def __init__(
        self,
        rows: np.ndarray | Sequence[np.ndarray],
        *,
        rank: int,
        n_ranks: int,
        n_persons: int,
        assignment: np.ndarray,
    ) -> None:
        parts = [rows] if isinstance(rows, np.ndarray) else list(rows)
        for part in parts:
            if part.dtype != MIGRANT_DTYPE or part.ndim != 1:
                raise SimulationError("hosted rows must be a 1-D MIGRANT_DTYPE array")
        if assignment.dtype != np.int32 or not assignment.flags.c_contiguous:
            raise SimulationError("assignment must be a contiguous int32 array")
        if not parts or not 0 <= rank <= rank + len(parts) - 1 < n_ranks:
            raise SimulationError(f"rank {rank} outside cluster of {n_ranks}")
        self.rank = rank
        self.n_local = len(parts)
        self.n_ranks = n_ranks
        self.n_persons = n_persons
        self.n_places = len(assignment)
        #: rank steps the numpy twin ran (0 when the C extension took them all)
        self.twin_steps = 0
        self._assignment = assignment
        self._kernels = load_cext()
        self._week: WeekRows | None = None
        self._sinks: list[Any] = [None] * self.n_local
        self.ranks = np.zeros((self.n_local, len(RANK_FIELDS)), dtype=np.int64)
        self._bounds = np.zeros(n_ranks + 1, dtype=np.int64)
        self._mark = np.zeros(n_ranks, dtype=np.int64)
        self._spills = np.zeros(self.n_local, dtype=np.int64)
        self._block = np.zeros(len(HOUR_SLOTS), dtype=np.int64)
        self._block_address = self._block.ctypes.data
        for slot, value in (
            ("ranks", self.ranks.ctypes.data), ("first", rank),
            ("n_local", self.n_local), ("owner", assignment.ctypes.data),
            ("n_persons", n_persons), ("n_places", self.n_places),
            ("n_ranks", n_ranks), ("bounds", self._bounds.ctypes.data),
            ("mark", self._mark.ctypes.data), ("spills", self._spills.ctypes.data),
        ):  # fmt: skip
            self._block[HOUR_SLOTS.index(slot)] = value
        total = sum(len(part) for part in parts)
        if total > n_persons:
            raise SimulationError(
                f"ranks from {rank} would host {total} agents, population is {n_persons}"
            )
        self._allocate(total + (max(total // 2, self.n_local) if self.n_local > 1 else 0))
        self._lay_out(parts, self._tables[0])

    @property
    def impl(self) -> str:
        """What runs the hour: ``"cext"`` or ``"twin"``."""
        return "twin" if self._kernels is None else "cext"

    # -- storage ---------------------------------------------------------------

    def _allocate(self, capacity: int) -> None:
        """Fresh storage for ``capacity`` rows (a spare table where several
        ranks share it) and scratch of the same size."""
        self._tables = [np.empty(capacity, dtype=MIGRANT_DTYPE)]
        if self.n_local > 1:
            self._tables.append(np.empty(capacity, dtype=MIGRANT_DTYPE))
        self._addresses = [table.ctypes.data for table in self._tables]
        # per-hour outputs: records as the raw rows a sink takes, leavers
        # as bytes (copied out at exact size, and numpy copies bytes
        # several times faster than structured rows)
        self._records = np.empty((capacity, len(LOG_FIELDS)), dtype=np.uint32)
        self._leavers = np.empty(capacity * _ROW_BYTES, dtype=np.uint8)
        self._moved = np.empty(capacity * _ROW_BYTES, dtype=np.uint8)
        self._dest = np.empty(capacity, dtype=np.int32)
        for slot, array in (
            ("table", self._tables[0]), ("records", self._records),
            ("leavers", self._leavers), ("moved", self._moved), ("dest", self._dest),
        ):  # fmt: skip
            self._block[HOUR_SLOTS.index(slot)] = array.ctypes.data
        self._block[_SPARE] = self._addresses[1] if self.n_local > 1 else 0
        self._block[_CAPACITY] = capacity

    def _lay_out(self, parts: list[np.ndarray], table: np.ndarray) -> None:
        """Write hosted rank ``i``'s rows ``parts[i]`` into ``table``, the
        segments in rank order, each sized for its rows plus an even share
        of the slack (the kernel lays the table out again the same way)."""
        capacity = len(table)
        share = (capacity - sum(len(part) for part in parts)) // self.n_local
        at = 0
        for i, part in enumerate(parts):
            cap = len(part) + share if i + 1 < self.n_local else capacity - at
            self.ranks[i, _BASE : _COUNT + 1] = (at, cap, len(part))
            table[at : at + len(part)] = part
            at += cap

    @property
    def table(self) -> np.ndarray:
        """The storage every hosted rank's segment lies in."""
        if self._block[_TABLE] != self._addresses[0]:
            # the hour laid the segments out again, into the spare table
            self._tables.reverse()
            self._addresses.reverse()
        return self._tables[0]

    @property
    def count(self) -> int:
        """Agents hosted, over every hosted rank."""
        return int(self.ranks[:, _COUNT].sum())

    @property
    def counts(self) -> np.ndarray:
        """Agents each hosted rank hosts (a view of the rank table)."""
        return self.ranks[:, _COUNT]

    @property
    def left(self) -> np.ndarray:
        """How many agents each hosted rank sent away at the last hour it
        stepped (a view of the rank table)."""
        return self.ranks[:, _LEFT]

    @property
    def changes(self) -> np.ndarray:
        """Records each hosted rank emitted in the hours it stepped (a view
        of the rank table; the closing spells at the end are not counted)."""
        return self.ranks[:, _CHANGES]

    @property
    def sent(self) -> np.ndarray:
        """Each hosted rank's ``(messages, bytes)`` sent to other ranks over
        the hours it stepped: a message per destination an hour, 20 bytes
        a migrant (``payload_nbytes``' formula)."""
        return self.ranks[:, [_MSGS, _BYTES]]

    def hosted(self, i: int = 0) -> np.ndarray:
        """The live rows of hosted rank ``i`` (a view of the table)."""
        base, _, count = self.ranks[i, _BASE : _COUNT + 1].tolist()
        return self.table[base : base + count]

    def receive(self, payloads: list[np.ndarray | None]) -> None:
        """Append what ``payloads`` carry, in list (source-rank) order, to
        a table of one rank.

        ``payloads`` is what ``alltoall`` hands a rank: None or a
        ``MIGRANT_DTYPE`` array per source.  Rows are copied as raw 20-byte
        rows (``tobytes``, then one slice assignment into the table's
        bytes), with no structured assignment, no buffer export and no
        concatenation; a payload of any other dtype is a protocol error
        (:class:`~repro.errors.CommError`), never cast, and nothing is
        appended then.
        """
        if self.n_local != 1:
            raise SimulationError("only a table of one rank receives agents")
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
        count = int(self.ranks[0, _COUNT])
        need = count + nbytes // _ROW_BYTES
        if need > len(self._tables[0]):
            self._grow(count, need)
        at = count * _ROW_BYTES
        raw = self._raw
        for rows in arrived:
            end = at + len(rows)
            raw[at:end] = rows
            at = end
        self.ranks[0, _COUNT] = need

    def _grow(self, count: int, need: int) -> None:
        """Room for ``need`` rows in a table of one rank: capacity doubles,
        never past the population."""
        if need > self.n_persons:
            raise SimulationError(
                f"rank {self.rank} would host {need} agents, "
                f"population is {self.n_persons}"
            )
        old = self._tables[0]
        self._allocate(min(max(need, 2 * len(old)), self.n_persons))
        self._tables[0][:count] = old[:count]
        self.ranks[0, _CAP] = len(self._tables[0])

    @property
    def _raw(self) -> memoryview:
        """The table's bytes: an arrival is one slice assignment into them."""
        return memoryview(self._tables[0].view(np.uint8))

    # -- sinks ---------------------------------------------------------------

    def attach(self, sinks: Sequence[Any]) -> None:
        """Give hosted rank ``i`` the sink ``sinks[i]`` (None: its records
        stay in the hour's output only); also after a sink's cache or fill
        changed outside the hour (a flush)."""
        if len(sinks) != self.n_local:
            raise SimulationError(f"{len(sinks)} sinks for {self.n_local} ranks")
        self._sinks = list(sinks)
        for i in range(self.n_local):
            self._point(i)

    def _point(self, i: int) -> None:
        sink = self._sinks[i]
        cache = None if sink is None else sink.cache
        if cache is not None and not (
            cache.dtype == np.uint32
            and cache.shape[1:] == (len(LOG_FIELDS),)
            and cache.flags.c_contiguous
        ):
            raise SimulationError("a sink's cache must be contiguous (k, 5) uint32 rows")
        self.ranks[i, _SINK] = 0 if cache is None else cache.ctypes.data
        self.ranks[i, _SINK_CAP] = 0 if cache is None else len(cache)
        self.ranks[i, _FILL] = 0 if sink is None else sink.fill

    def settle(self) -> None:
        """Tell every sink how many cache rows the hours filled; call before
        anything else touches a sink (then :meth:`attach` again)."""
        for i, sink in enumerate(self._sinks):
            if sink is not None:
                sink.filled_to(int(self.ranks[i, _FILL]))

    def _spill(self, n_spills: int) -> None:
        """Hand the sinks the records that did not fit their caches."""
        for i in self._spills[:n_spills].tolist():
            sink = self._sinks[i]
            if sink is None:
                continue
            lo, k = self.ranks[i, _REC_LO : _N_REC + 1].tolist()
            sink.filled_to(int(self.ranks[i, _FILL]))
            sink.log_batch(self._records[lo : lo + k])
            self._point(i)

    # -- the hour --------------------------------------------------------------

    def bind_week(self, week: WeekRows) -> None:
        """Point the hour at a week's hour-major rows and change plane.

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
        for slot, array in (
            ("plane", week.plane), ("act", week.activity), ("place", week.place)
        ):
            self._block[HOUR_SLOTS.index(slot)] = array.ctypes.data

    def _refusal(self, hour: int, code: int) -> SimulationError:
        rank = int(self._block[_OUT_RANK]) if code != -5 else self.rank
        error = SimulationError(f"rank {rank}, hour {hour}: {_REFUSALS[code]}")
        error.rank = rank  # type: ignore[attr-defined]
        return error

    def step(
        self, hour: int
    ) -> tuple[np.ndarray | None, list[np.ndarray | None], int]:
        """Move every hosted rank's agents from ``hour - 1`` to ``hour``.

        Returns ``(records, payloads, n_leavers)``: the spells that closed
        at ``hour``, every hosted rank's in rank order, as raw ``(k, 5)``
        uint32 rows in ``LOG_FIELDS`` order (None when nobody changed; a
        view of the hour's scratch, valid until the next hour — the sinks
        already took them), one payload per destination rank for the
        leavers bound outside the table (slices of one fresh array, None
        where nobody goes; a hosted destination has its arrivals already),
        and how many agents left a rank.  Malformed state — a person,
        place or owner out of range, an open spell that starts at or after
        ``hour`` — raises :class:`~repro.errors.SimulationError` naming the
        rank and the hour.
        """
        if not 0 < hour < 2**32:
            raise SimulationError(f"hour {hour} outside the log's time range")
        if self._week is None or self._week.week_index != hour // HOURS_PER_WEEK:
            raise SimulationError(f"hour {hour} stepped without its week bound")
        self._block[_HOUR] = hour
        if self._kernels is None:
            self.twin_steps += self.n_local
            n_spills = self._hour_twin(hour, hour % HOURS_PER_WEEK)
        else:
            n_spills = self._kernels.lockstep_hour(self._block_address)
        if n_spills < 0:
            raise self._refusal(hour, n_spills)
        if n_spills:
            self._spill(n_spills)
        n_records, n_leavers, n_remote = self._block[_OUT : _OUT + 3].tolist()
        payloads: list[np.ndarray | None] = [None] * self.n_ranks
        if n_remote:
            # a fresh array per hour: the receiver may hold on to it
            # (frombuffer, not .view: a structured view runs numpy's
            # Python-level field check, a microsecond a call)
            packed = np.frombuffer(
                self._leavers[: n_leavers * _ROW_BYTES].copy(), MIGRANT_DTYPE
            )
            bounds = self._bounds.tolist()
            for r in range(self.n_ranks):
                if bounds[r + 1] > bounds[r] and not 0 <= r - self.rank < self.n_local:
                    payloads[r] = packed[bounds[r] : bounds[r + 1]]
        return (
            self._records[:n_records] if n_records else None, payloads, n_leavers
        )

    def _hour_twin(self, hour: int, how: int) -> int:
        """The numpy twin of ``rk_lockstep_hour``: each hosted rank stepped
        in turn, then the leavers grouped and the hosted ones delivered."""
        ranks, records = self.ranks, self._records
        table = self.table
        n_rec = n_gone = n_spills = 0
        moved: list[np.ndarray] = []
        dests: list[np.ndarray] = []
        for i in range(self.n_local):
            me, rank = ranks[i], self.rank + i
            base, count = int(me[_BASE]), int(me[_COUNT])
            scan = self._scan_twin(table[base : base + count], rank, hour, how)
            if isinstance(scan, int):
                self._block[_OUT_RANK] = rank
                return scan
            rec, leavers, dest, kept = scan
            k = 0 if rec is None else len(rec)
            gone = 0 if dest is None else len(dest)
            me[_COUNT], me[_REC_LO], me[_N_REC], me[_LEFT] = kept, n_rec, k, gone
            me[_CHANGES] += k
            if gone:
                me[_MSGS] += len(np.unique(dest))
                me[_BYTES] += gone * _ROW_BYTES
                moved.append(leavers)
                dests.append(dest)
            if k:
                records[n_rec : n_rec + k] = rec
                fill = int(me[_FILL])
                if me[_SINK] and fill + k < me[_SINK_CAP]:
                    self._sinks[i].cache[fill : fill + k] = rec
                    me[_FILL] = fill + k
                else:
                    self._spills[n_spills] = i
                    n_spills += 1
            n_rec += k
            n_gone += gone
        self._block[_OUT : _OUT + 3] = (n_rec, n_gone, 0)
        if not n_gone:
            return n_spills
        dest = np.concatenate(dests)
        order, _ = route_rows(dest, self.n_ranks)
        grouped = np.concatenate(moved)[order]
        self._leavers[: n_gone * _ROW_BYTES] = grouped.view(np.uint8)
        bounds = self._bounds
        bounds[0] = 0
        np.cumsum(np.bincount(dest, minlength=self.n_ranks), out=bounds[1:])
        arrive = bounds[self.rank : self.rank + self.n_local + 1].tolist()
        self._block[_OUT + 2] = n_gone - (arrive[-1] - arrive[0])
        if arrive[-1] == arrive[0]:
            return n_spills
        # every segment and its arrivals into the spare table, then swap
        parts = [
            np.concatenate([self.hosted(i), grouped[arrive[i] : arrive[i + 1]]])
            for i in range(self.n_local)
        ]
        self._lay_out(parts, self._tables[1])
        self._block[_SPARE] = self._block[_TABLE]
        self._block[_TABLE] = self._addresses[1]
        return n_spills

    def _scan_twin(
        self, live: np.ndarray, rank: int, hour: int, how: int
    ) -> tuple | int:
        """One rank's scan of ``live`` (its segment): ``(records, leavers,
        dest, kept)`` — stayers compacted in place, leavers in hosted
        order, None for what is empty — or the kernel's refusal code."""
        week, n_places = self._week, self.n_places
        ids = live["person"]
        if len(ids) and int(ids.max()) >= self.n_persons:
            return -1
        # open spells equal the grid at hour-1, so the plane row is the
        # change test; only changers touch the hour's rows
        idx = np.flatnonzero(week.plane[how][ids])
        if not len(idx):
            return None, None, None, len(live)
        closing = live[idx]
        who, start = closing["person"], closing["spell_start"]
        new_place = week.place[how][who]
        if ((start < 0) | (start >= hour)).any():
            return -4
        if max(int(closing["place"].max()), int(new_place.max())) >= n_places:
            return -2
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
            return -3
        gone = dest != rank
        n_leavers = int(gone.sum())
        if not n_leavers:
            live[idx] = opened
            return rec, None, None, len(live)
        live[idx[~gone]] = opened[~gone]
        # stable compaction; rows before the first leaver do not move
        leaving = idx[gone]
        first = int(leaving[0])
        keep = np.ones(len(live) - first, dtype=bool)
        keep[leaving - first] = False
        kept = len(live) - n_leavers
        live[first:kept] = live[first:][keep]
        return rec, opened[gone], dest[gone], kept

    def close_all(self, stop: int, i: int = 0) -> np.ndarray:
        """The open spells of every agent hosted rank ``i`` hosts as raw
        record rows (``(k, 5)`` uint32) ending at ``stop`` (the end of the
        run); the table is left as it is."""
        live = self.hosted(i)
        start = live["spell_start"]
        if ((start < 0) | (start >= stop)).any() or not 0 < stop < 2**32:
            raise SimulationError(
                f"rank {self.rank + i}: an open spell does not start before "
                f"the end of the run ({stop})"
            )
        return _closed(live, stop)
