"""Hourly weekly activity schedules.

chiSIM drives agents with "a daily schedule for each person [that] specifies
the activity and associated location with one-hour time resolution".  This
module generates those schedules as dense weekly grids:

* ``activity``: ``(n_persons, 168) uint8`` activity codes;
* ``place``:    ``(n_persons, 168) uint32`` place ids.

A generated week is stored hour-major — ``(168, n_persons)`` rows, hour
*h* of every person one contiguous row, the way the rank step and the
serial engine read it — and ``WeekGrid.activity`` / ``.place`` are
person-major views of those rows (``grid[p, h]`` reads person *p* at hour
*h* either way).  One ``rk_week_fill`` call writes the rows and the
week's change plane; nothing is transposed afterwards.

A grid is deterministic in ``(seed, week_index)`` but *varies between weeks*
(different outing choices), reproducing the paper's observation that yearly
log volume "depend[s] on the variability of the daily activity schedule".

Schedules are calibrated to average roughly five activity changes per
person-day — the constant the paper uses to size its event logs.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from ..config import HOURS_PER_DAY, HOURS_PER_WEEK, ScheduleConfig
from ..errors import ScheduleError
from ..obs import count, observe
from .person import NO_PLACE, PersonTable

__all__ = ["Activity", "ACTIVITY_NAMES", "WeekGrid", "WeeklyScheduleGenerator"]


class Activity(enum.IntEnum):
    """Activity codes stored in log records.  Values are stable."""

    AT_HOME = 0
    AT_SCHOOL = 1
    AT_WORK = 2
    LEISURE = 3
    ERRAND = 4
    LUNCH_OUT = 5


ACTIVITY_NAMES = {a: a.name.lower() for a in Activity}

WEEKDAYS = range(5)
WEEKEND = range(5, 7)
#: the day mask of a block written on every weekday (bit d: day d)
_EVERY_WEEKDAY = sum(1 << day for day in WEEKDAYS)


@dataclass
class WeekGrid:
    """One week of schedules for the whole population.

    ``activity`` / ``place`` are indexed ``[person, hour]``; a generated
    week's are transposed views of hour-major rows (``activity.T`` is
    C-contiguous), any other layout is accepted too.
    """

    week_index: int
    activity: np.ndarray  # (n, 168) uint8
    place: np.ndarray  # (n, 168) uint32

    def __post_init__(self) -> None:
        if self.activity.shape != self.place.shape:
            raise ScheduleError("activity/place grids must have equal shape")
        if self.activity.shape[1] != HOURS_PER_WEEK:
            raise ScheduleError(
                f"grids must have {HOURS_PER_WEEK} hour columns, "
                f"got {self.activity.shape[1]}"
            )

    @property
    def n_persons(self) -> int:
        return self.activity.shape[0]

    def changes_per_person_day(self) -> float:
        """Mean number of activity changes per person per day.

        An activity change is an hour boundary where (activity, place)
        differs from the previous hour; the transition into hour 0 from the
        previous week's last hour is not counted (both are AT_HOME).
        """
        return float(self.change_plane(None).sum()) / (self.n_persons * 7)

    def change_plane(self, previous: "WeekGrid | None") -> np.ndarray:
        """Hour-major ``(168, n)`` bool: ``[h, p]`` is set where person *p*'s
        (activity, place) at hour *h* differs from the hour before.

        Row 0 compares against ``previous``'s last hour (all-false when
        there is no previous week).  Row *h* is contiguous, so a consumer
        that walks hours reads one row per step.  For generated weeks row
        0 is all-false against any previous week: both hours are home.
        """
        # hour-major operands: rows of a generated week, a transposed view
        # of any other grid
        act, place = self.activity.T, self.place.T
        changed = np.zeros(act.shape, dtype=bool)
        # in place: the three (167, n) temporaries of the plain expression
        # double the build time
        np.not_equal(act[1:], act[:-1], out=changed[1:])
        changed[1:] |= place[1:] != place[:-1]
        if previous is not None:
            if previous.n_persons != self.n_persons:
                raise ScheduleError("previous week covers another population")
            changed[0] = (act[0] != previous.activity[:, -1]) | (
                place[0] != previous.place[:, -1]
            )
        return changed


class WeeklyScheduleGenerator:
    """Generates per-week schedule grids for a population.

    Parameters
    ----------
    persons:
        The population; schools/workplaces/favorites must be assigned.
    config:
        Schedule shape parameters.
    seed:
        Base seed; week *w* uses the spawn-key ``(seed, w)`` stream so any
        week can be generated independently and reproducibly (ranks in a
        distributed run generate only the weeks they need).

    A week is drawn in numpy and written hour-major by ``rk_week_fill`` in
    the C extension when it loaded, else by the numpy twin
    (``_fill_twin``) — same draws, same rows, byte for byte.  Hours 0-6
    and 23 of every day are home on both, so no week needs the one before
    it: row 0 of every change plane is all-false.
    """

    def __init__(
        self, persons: PersonTable, config: ScheduleConfig, seed: int
    ) -> None:
        if persons.favorites.shape[1] < 1:
            raise ScheduleError("persons need at least one favorite place")
        n = len(persons)
        if n >= 2**31:
            raise ScheduleError(f"{n} persons: person ids must fit int32")
        self.persons = persons
        self.config = config
        self.seed = seed
        # per-person stable work start jitter: a person keeps their shift
        base_rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._work_start = np.clip(
            config.work_start + base_rng.integers(-2, 3, n), 0, 24 - config.work_hours
        ).astype(np.int64)
        # what every week reads the same: who draws for which block, as
        # int32 ids (the compiled fill's row type), and where they go
        is_student, is_employed = persons.is_student, persons.is_employed
        self._students = np.flatnonzero(is_student).astype(np.int32)
        self._workers = workers = np.flatnonzero(is_employed).astype(np.int32)
        self._inactive = np.flatnonzero(~is_student & ~is_employed).astype(np.int32)
        self._everyone = np.arange(n, dtype=np.int32)
        self._household = np.ascontiguousarray(persons.household, dtype=np.uint32)
        self._school = persons.school[self._students]
        starts = self._work_start[workers]
        self._lunch_start = starts + config.work_hours // 2
        # the shift is a fixed-length block: workers grouped by start hour
        # get it as one (hour-slice, rows) assignment per group and day —
        # a third of the cost of scattering it cell by cell
        self._shifts = []
        for shift_start in np.unique(starts):
            rows = workers[starts == shift_start]
            self._shifts.append((int(shift_start), rows, persons.workplace[rows]))
        # Per-person stable outing propensity: real populations mix
        # home-bodies (who collocate almost only with their household,
        # producing the paper's flat degree-1..7 head and the clustering-
        # coefficient spike at 1.0) with frequent outgoers.  A Beta(0.7,
        # 1.8) factor normalized to mean 1 keeps the configured outing
        # probabilities as the population mean.
        prop = base_rng.beta(0.7, 1.8, n)
        self._propensity = prop / prop.mean() if prop.mean() > 0 else prop
        self._p_lunch = self._out_prob(config.lunch_out_prob, workers)
        self._p_after_school = self._out_prob(0.5, self._students)
        self._p_errand = self._out_prob(0.6, self._inactive)
        self._p_evening = self._out_prob(config.evening_out_prob)
        self._p_weekend = self._out_prob(config.weekend_out_prob)
        self._p_weekend_errand = self._out_prob(config.weekend_out_prob / 2)

    def _out_prob(self, base: float, rows: np.ndarray | None = None) -> np.ndarray:
        """Per-person outing probability scaled by stable propensity."""
        factor = self._propensity if rows is None else self._propensity[rows]
        return np.clip(base * factor, 0.0, 0.95)

    def _week_rng(self, week_index: int) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(week_index + 1,))
        return np.random.default_rng(ss)

    def _pick_favorite(
        self, rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Pick one favorite venue per listed person."""
        fav = self.persons.favorites
        k = fav.shape[1]
        choice = rng.integers(0, k, len(rows))
        return fav[rows, choice]

    def _outings(self, rng: np.random.Generator):
        """The week's drawn blocks, in the order they are written.

        Yields ``(day, rows, start, duration, activity, place)``: persons
        ``rows`` spend ``duration`` hours from hour ``start`` of ``day``,
        cut at midnight, at ``place`` doing ``activity`` (one code, or one
        per row).  Every RNG draw of a week happens here, in the order and
        size the grids have always been drawn with (``WEEK_DIGESTS`` in
        the tests pins them); a block overwrites the earlier blocks of its
        day, and after the school and work blocks of every weekday.
        """
        cfg = self.config
        workers, students = self._workers, self._students
        inactive, everyone = self._inactive, self._everyone
        n = len(everyone)
        for day in WEEKDAYS:
            # lunch out replaces one mid-shift hour
            if len(workers):
                lunch = rng.random(len(workers)) < self._p_lunch
                lrows = workers[lunch]
                if len(lrows):
                    lstart = self._lunch_start[lunch]
                    ldur = np.ones(len(lrows), dtype=np.int64)
                    yield (
                        day, lrows, lstart, ldur, Activity.LUNCH_OUT,
                        self._pick_favorite(lrows, rng),
                    )  # fmt: skip
            # after-school activity (clubs, sports, friends)
            if len(students):
                after = rng.random(len(students)) < self._p_after_school
                arows = students[after]
                if len(arows):
                    astart = np.full(len(arows), cfg.school_end, dtype=np.int64)
                    adur = rng.integers(1, 3, len(arows))
                    yield (
                        day, arows, astart, adur, Activity.LEISURE,
                        self._pick_favorite(arows, rng),
                    )  # fmt: skip
            # midday errand for persons with no school/work that day
            if len(inactive):
                mid = rng.random(len(inactive)) < self._p_errand
                mrows = inactive[mid]
                if len(mrows):
                    mstart = rng.integers(9, 16, len(mrows))
                    mdur = rng.integers(1, 3, len(mrows))
                    yield (
                        day, mrows, mstart, mdur, Activity.ERRAND,
                        self._pick_favorite(mrows, rng),
                    )  # fmt: skip
            # evening outing: leisure or errand, one block (rows are
            # distinct, so the order of the two kinds does not matter)
            out = rng.random(n) < self._p_evening
            orows = everyone[out]
            if len(orows):
                ostart = rng.integers(17, 21, len(orows))
                odur = rng.integers(1, 3, len(orows))
                kind = rng.random(len(orows)) < 0.5
                activity = np.where(
                    kind, np.uint8(Activity.LEISURE), np.uint8(Activity.ERRAND)
                )
                yield (
                    day, orows, ostart, odur, activity,
                    self._pick_favorite(orows, rng),
                )  # fmt: skip

        for day in WEEKEND:
            out = rng.random(n) < self._p_weekend
            orows = everyone[out]
            if len(orows):
                ostart = rng.integers(10, 19, len(orows))
                odur = rng.integers(1, 5, len(orows))
                yield (
                    day, orows, ostart, odur, Activity.LEISURE,
                    self._pick_favorite(orows, rng),
                )  # fmt: skip
            # a second, shorter errand for some
            err = rng.random(n) < self._p_weekend_errand
            erows = everyone[err]
            if len(erows):
                estart = rng.integers(9, 21, len(erows))
                edur = np.ones(len(erows), dtype=np.int64)
                yield (
                    day, erows, estart, edur, Activity.ERRAND,
                    self._pick_favorite(erows, rng),
                )  # fmt: skip

    def _set_block(
        self,
        grid_act: np.ndarray,
        grid_place: np.ndarray,
        day: int,
        rows: np.ndarray,
        start: np.ndarray,
        duration: np.ndarray,
        activity: "Activity | np.ndarray",
        place: np.ndarray,
    ) -> None:
        """Write an activity block of per-person start/duration into the
        hour-major rows (vectorized over persons; loops only over the
        ≤ max-duration offsets)."""
        base = day * HOURS_PER_DAY
        per_row = np.ndim(activity) > 0
        max_dur = int(duration.max(initial=0))
        for off in range(max_dur):
            mask = duration > off
            hour = base + start[mask] + off
            ok = hour < (day + 1) * HOURS_PER_DAY  # clip to the day
            r = rows[mask][ok]
            h = hour[ok]
            grid_act[h, r] = activity[mask][ok] if per_row else int(activity)
            grid_place[h, r] = place[mask][ok]

    def _fill_twin(self, week_index: int, rng: np.random.Generator) -> WeekGrid:
        """The numpy body of the week: ``rk_week_fill``'s twin, writing
        the same hour-major rows."""
        persons = self.persons
        cfg = self.config
        n = len(persons)
        act = np.zeros((HOURS_PER_WEEK, n), dtype=np.uint8)
        place = np.empty((HOURS_PER_WEEK, n), dtype=np.uint32)
        place[:] = persons.household

        students = self._students
        for day in WEEKDAYS:
            base = day * HOURS_PER_DAY
            # --- school ---
            if len(students):
                sl = slice(base + cfg.school_start, base + cfg.school_end)
                act[sl, students] = int(Activity.AT_SCHOOL)
                place[sl, students] = self._school
            # --- work ---
            for shift_start, rows, workplace in self._shifts:
                sl = slice(base + shift_start, base + shift_start + cfg.work_hours)
                act[sl, rows] = int(Activity.AT_WORK)
                place[sl, rows] = workplace
        # --- lunch, after school, errands, evenings, weekends ---
        for block in self._outings(rng):
            self._set_block(act, place, *block)

        # every day starts and ends at home, so a week's hour 0 equals the
        # previous week's hour 167 (hours 0-6 and 23 of every day, through
        # a (day, hour, person) view)
        for grid, home in ((act, int(Activity.AT_HOME)), (place, persons.household)):
            days = grid.reshape(7, HOURS_PER_DAY, n)
            days[:, :7] = home
            days[:, 23] = home

        if (place == NO_PLACE).any():
            raise ScheduleError("schedule grid contains NO_PLACE entries")
        return WeekGrid(week_index=week_index, activity=act.T, place=place.T)

    def _fill(
        self, kernels, week_index: int, rng: np.random.Generator, changes: bool
    ) -> tuple[WeekGrid, np.ndarray | None]:
        """The week, and its change plane when ``changes``, from one
        ``rk_week_fill`` call over compact entry columns (int32 persons,
        uint8 days / hours / codes, uint32 places): school and work once
        for every weekday, then each drawn block on its day."""
        cfg = self.config
        n = len(self.persons)
        students, workers = self._students, self._workers
        fixed = [
            (students, cfg.school_start, cfg.school_end - cfg.school_start,
             Activity.AT_SCHOOL, self._school),
            (workers, self._work_start[workers], cfg.work_hours,
             Activity.AT_WORK, self.persons.workplace[workers]),
        ]  # fmt: skip
        columns: tuple[list, ...] = ([], [], [], [], [], [])
        who, days, start_at, hours, what, where = columns

        def add(day_mask, rows, start, duration, activity, place):
            m = len(rows)
            who.append(rows)
            days.append(np.full(m, day_mask, np.uint8))
            start_at.append(np.full(m, start, np.uint8))
            hours.append(np.full(m, duration, np.uint8))
            what.append(np.full(m, activity, np.uint8))
            where.append(place)

        for block in fixed:
            add(_EVERY_WEEKDAY, *block)
        for day, *block in self._outings(rng):
            add(1 << day, *block)
        entries = tuple(np.concatenate(column) for column in columns)
        # the pieces go before the grids are allocated
        del columns, who, days, start_at, hours, what, where

        # every cell is written by the kernel: no zeroing pass
        act = np.empty((HOURS_PER_WEEK, n), dtype=np.uint8)
        place = np.empty((HOURS_PER_WEEK, n), dtype=np.uint32)
        plane = np.empty((HOURS_PER_WEEK, n), dtype=np.bool_) if changes else None
        rc = kernels.week_fill(self._household, entries, act, place, plane)
        if rc == -1:
            raise ScheduleError("schedule grid contains NO_PLACE entries")
        if rc:
            raise ScheduleError(f"rk_week_fill refused week {week_index} ({rc})")
        return WeekGrid(week_index=week_index, activity=act.T, place=place.T), plane

    def _build(
        self, week_index: int, changes: bool
    ) -> tuple[WeekGrid, np.ndarray | None]:
        if week_index < 0:
            raise ScheduleError("week_index must be >= 0")
        # imported here: the core package imports this one
        from ..core.kernels import cext

        tic = time.perf_counter()
        rng = self._week_rng(week_index)
        kernels = cext.load_cext()
        if kernels is None:
            grid = self._fill_twin(week_index, rng)
            plane = grid.change_plane(None) if changes else None
            count("kernels.week_fill.twin")
        else:
            grid, plane = self._fill(kernels, week_index, rng, changes)
        observe("sim.week_build_seconds", time.perf_counter() - tic)
        return grid, plane

    def week(self, week_index: int) -> WeekGrid:
        """Generate the grid for week ``week_index`` (0-based)."""
        return self._build(week_index, changes=False)[0]

    def week_with_changes(self, week_index: int) -> tuple[WeekGrid, np.ndarray]:
        """Week ``week_index`` and its change plane
        (:meth:`WeekGrid.change_plane`, hour-major), built together.  Row
        0 is all-false, and equals the plane against the previous week: a
        week ends and starts at home."""
        return self._build(week_index, changes=True)
