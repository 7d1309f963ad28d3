"""Hourly weekly activity schedules.

chiSIM drives agents with "a daily schedule for each person [that] specifies
the activity and associated location with one-hour time resolution".  This
module generates those schedules as dense weekly grids:

* ``activity_grid``: ``(n_persons, 168) uint8`` activity codes;
* ``place_grid``:    ``(n_persons, 168) uint32`` place ids.

A grid is deterministic in ``(seed, week_index)`` but *varies between weeks*
(different outing choices), reproducing the paper's observation that yearly
log volume "depend[s] on the variability of the daily activity schedule".

Schedules are calibrated to average roughly five activity changes per
person-day — the constant the paper uses to size its event logs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..config import HOURS_PER_DAY, HOURS_PER_WEEK, ScheduleConfig
from ..errors import ScheduleError
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


@dataclass
class WeekGrid:
    """One week of schedules for the whole population."""

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
        that walks hours reads one row per step.
        """
        act, place = self.activity, self.place
        changed = np.zeros(act.shape, dtype=bool)
        # in place: the three (n, 167) temporaries of the plain expression
        # double the build time
        np.not_equal(act[:, 1:], act[:, :-1], out=changed[:, 1:])
        changed[:, 1:] |= place[:, 1:] != place[:, :-1]
        if previous is not None:
            if previous.n_persons != self.n_persons:
                raise ScheduleError("previous week covers another population")
            changed[:, 0] = (act[:, 0] != previous.activity[:, -1]) | (
                place[:, 0] != previous.place[:, -1]
            )
        return np.ascontiguousarray(changed.T)


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
    """

    def __init__(
        self, persons: PersonTable, config: ScheduleConfig, seed: int
    ) -> None:
        if persons.favorites.shape[1] < 1:
            raise ScheduleError("persons need at least one favorite place")
        self.persons = persons
        self.config = config
        self.seed = seed
        # per-person stable work start jitter: a person keeps their shift
        base_rng = np.random.default_rng(np.random.SeedSequence(seed))
        n = len(persons)
        self._work_start = np.clip(
            config.work_start + base_rng.integers(-2, 3, n), 0, 24 - config.work_hours
        ).astype(np.int64)
        # the shift is a fixed-length block: workers grouped by start hour
        # get it as one (rows, hour-slice) assignment per group and day —
        # a third of the cost of scattering it cell by cell
        workers = np.flatnonzero(persons.is_employed)
        starts = self._work_start[workers]
        self._shifts = []
        for shift_start in np.unique(starts):
            rows = workers[starts == shift_start]
            self._shifts.append(
                (int(shift_start), rows, persons.workplace[rows][:, None])
            )
        # Per-person stable outing propensity: real populations mix
        # home-bodies (who collocate almost only with their household,
        # producing the paper's flat degree-1..7 head and the clustering-
        # coefficient spike at 1.0) with frequent outgoers.  A Beta(0.7,
        # 1.8) factor normalized to mean 1 keeps the configured outing
        # probabilities as the population mean.
        prop = base_rng.beta(0.7, 1.8, n)
        self._propensity = prop / prop.mean() if prop.mean() > 0 else prop

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

    def _set_block(
        self,
        grid_act: np.ndarray,
        grid_place: np.ndarray,
        rows: np.ndarray,
        day: int,
        start: np.ndarray,
        duration: np.ndarray,
        activity: Activity,
        place: np.ndarray,
    ) -> None:
        """Write an activity block of per-person start/duration (vectorized
        over persons; loops only over the ≤ max-duration offsets)."""
        if len(rows) == 0:
            return
        base = day * HOURS_PER_DAY
        max_dur = int(duration.max(initial=0))
        for off in range(max_dur):
            mask = duration > off
            hour = base + start[mask] + off
            ok = hour < (day + 1) * HOURS_PER_DAY  # clip to the day
            r = rows[mask][ok]
            h = hour[ok]
            grid_act[r, h] = int(activity)
            grid_place[r, h] = place[mask][ok]

    def week(self, week_index: int) -> WeekGrid:
        """Generate the grid for week ``week_index`` (0-based)."""
        if week_index < 0:
            raise ScheduleError("week_index must be >= 0")
        persons = self.persons
        cfg = self.config
        n = len(persons)
        rng = self._week_rng(week_index)

        act = np.zeros((n, HOURS_PER_WEEK), dtype=np.uint8)
        place = np.empty((n, HOURS_PER_WEEK), dtype=np.uint32)
        place[:] = persons.household[:, None]

        students = np.flatnonzero(persons.is_student)
        workers = np.flatnonzero(persons.is_employed)
        everyone = np.arange(n)

        for day in WEEKDAYS:
            base = day * HOURS_PER_DAY
            # --- school ---
            if len(students):
                sl = slice(base + cfg.school_start, base + cfg.school_end)
                act[students, sl] = int(Activity.AT_SCHOOL)
                place[students, sl] = persons.school[students][:, None]
            # --- work ---
            if len(workers):
                ws = self._work_start[workers]
                for shift_start, rows, workplace in self._shifts:
                    sl = slice(
                        base + shift_start, base + shift_start + cfg.work_hours
                    )
                    act[rows, sl] = int(Activity.AT_WORK)
                    place[rows, sl] = workplace
                # lunch out replaces one mid-shift hour
                lunch = rng.random(len(workers)) < self._out_prob(cfg.lunch_out_prob, workers)
                lrows = workers[lunch]
                if len(lrows):
                    lstart = ws[lunch] + cfg.work_hours // 2
                    ldur = np.ones(len(lrows), dtype=np.int64)
                    self._set_block(
                        act, place, lrows, day, lstart, ldur,
                        Activity.LUNCH_OUT, self._pick_favorite(lrows, rng),
                    )
            # --- after-school activity (clubs, sports, friends) ---
            if len(students):
                after = rng.random(len(students)) < self._out_prob(0.5, students)
                arows = students[after]
                if len(arows):
                    astart = np.full(len(arows), cfg.school_end, dtype=np.int64)
                    adur = rng.integers(1, 3, len(arows))
                    self._set_block(
                        act, place, arows, day, astart, adur, Activity.LEISURE,
                        self._pick_favorite(arows, rng),
                    )
            # --- midday errand for persons with no school/work that day ---
            inactive = np.flatnonzero(~persons.is_student & ~persons.is_employed)
            if len(inactive):
                mid = rng.random(len(inactive)) < self._out_prob(0.6, inactive)
                mrows = inactive[mid]
                if len(mrows):
                    mstart = rng.integers(9, 16, len(mrows))
                    mdur = rng.integers(1, 3, len(mrows))
                    self._set_block(
                        act, place, mrows, day, mstart, mdur, Activity.ERRAND,
                        self._pick_favorite(mrows, rng),
                    )
            # --- evening outing ---
            out = rng.random(n) < self._out_prob(cfg.evening_out_prob)
            orows = everyone[out]
            if len(orows):
                ostart = rng.integers(17, 21, len(orows))
                odur = rng.integers(1, 3, len(orows))
                kind = rng.random(len(orows)) < 0.5
                fav = self._pick_favorite(orows, rng)
                for activity, sel in (
                    (Activity.LEISURE, kind),
                    (Activity.ERRAND, ~kind),
                ):
                    self._set_block(
                        act, place, orows[sel], day, ostart[sel], odur[sel],
                        activity, fav[sel],
                    )

        for day in WEEKEND:
            out = rng.random(n) < self._out_prob(cfg.weekend_out_prob)
            orows = everyone[out]
            if len(orows):
                ostart = rng.integers(10, 19, len(orows))
                odur = rng.integers(1, 5, len(orows))
                self._set_block(
                    act, place, orows, day, ostart, odur, Activity.LEISURE,
                    self._pick_favorite(orows, rng),
                )
            # a second, shorter errand for some
            err = rng.random(n) < self._out_prob(cfg.weekend_out_prob / 2)
            erows = everyone[err]
            if len(erows):
                estart = rng.integers(9, 21, len(erows))
                edur = np.ones(len(erows), dtype=np.int64)
                self._set_block(
                    act, place, erows, day, estart, edur, Activity.ERRAND,
                    self._pick_favorite(erows, rng),
                )

        # guarantee the day starts and ends at home so weeks chain cleanly
        # (hours 0-6 and 23 of every day, through a (person, day, hour) view)
        for grid, home in ((act, int(Activity.AT_HOME)), (place, persons.household)):
            days = grid.reshape(n, 7, HOURS_PER_DAY)
            days[:, :, :7] = np.reshape(home, (-1, 1, 1))
            days[:, :, 23] = np.reshape(home, (-1, 1))

        if (place == NO_PLACE).any():
            raise ScheduleError("schedule grid contains NO_PLACE entries")
        return WeekGrid(week_index=week_index, activity=act, place=place)
