"""In-memory serial engine: per-hour hooks + oracle.

Steps the model one simulated hour at a time: looks up every agent's
scheduled ``(activity, place)`` for the hour, moves agents, runs the
optional disease layer on the resulting place occupancies, notifies
observers, and collects event records on activity changes.

This engine is the semantic oracle: the rank step
(:mod:`repro.distrib.dmodel`), the one loop that writes logs and
checkpoints, must emit the identical event stream for the same seed,
which is enforced by tests.  It is also the one loop that carries the
per-hour hooks (disease, observers, ``schedules=`` interventions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import HOURS_PER_WEEK, SimulationConfig
from ..errors import SimulationError
from ..evlog.schema import LogRecordArray, empty_records
from ..synthpop.generator import SyntheticPopulation
from ..synthpop.schedule import WeekGrid, WeeklyScheduleGenerator
from .disease import DiseaseModel
from .events import OpenSpells
from .observers import Observer

__all__ = ["Simulation", "SimulationResult"]


@dataclass
class SimulationResult:
    """What a run produced."""

    duration_hours: int
    records: LogRecordArray
    n_events: int
    disease: DiseaseModel | None = None
    observers: list[Observer] = field(default_factory=list)

    def events_per_person_day(self, n_persons: int) -> float:
        days = self.duration_hours / 24.0
        return self.n_events / (n_persons * days) if days else 0.0


class Simulation:
    """Serial chiSIM-like simulation.

    Parameters
    ----------
    population:
        The synthetic world.
    config:
        Run parameters; ``config.disease`` enables the SEIR layer.

    Notes
    -----
    Hour stepping is vectorized across agents: the per-hour "decision" is a
    column lookup in the weekly schedule grid (chiSIM's daily schedules are
    likewise a-priori inputs; the *network* is what emerges).  The disease
    layer introduces the only cross-agent coupling.
    """

    def __init__(
        self,
        population: SyntheticPopulation,
        config: SimulationConfig,
        schedules: WeeklyScheduleGenerator | None = None,
    ) -> None:
        if config.scale.n_persons != population.n_persons:
            raise SimulationError(
                "config scale does not match population "
                f"({config.scale.n_persons} != {population.n_persons})"
            )
        self.population = population
        self.config = config
        # ``schedules`` may be any week-grid provider (e.g. an
        # InterventionSchedule wrapping the base generator)
        self.schedules = schedules or population.schedule_generator(
            config.schedule
        )
        self.disease: DiseaseModel | None = None
        if config.disease is not None:
            self.disease = DiseaseModel(
                population.n_persons, config.disease, seed=population.seed
            )

    # -- main loop ------------------------------------------------------------

    def run(self, observers: list[Observer] | None = None) -> SimulationResult:
        """Run for ``config.duration_hours``; return the events in
        emission order (by stop hour, then person).

        Logs and checkpoints are written by the rank step
        (:class:`~repro.distrib.dmodel.DistributedSimulation`, one rank
        for a serial run), which emits exactly these records.
        """
        observers = observers or []
        duration = self.config.duration_hours
        chunks: list[LogRecordArray] = []
        spells: OpenSpells | None = None
        week: WeekGrid | None = None
        for hour in range(duration):
            week_index, hour_of_week = divmod(hour, HOURS_PER_WEEK)
            if week is None or week.week_index != week_index:
                week = self.schedules.week(week_index)
            act_col = week.activity[:, hour_of_week]
            place_col = week.place[:, hour_of_week]

            if self.disease is not None:
                self.disease.step(hour, place_col)

            for obs in observers:
                obs.on_tick(hour, act_col, place_col, self.disease)

            # event emission: detect changes against the open spells
            if spells is None:
                spells = OpenSpells.begin(act_col, place_col, hour)
                continue
            changed = (act_col != spells.activity) | (place_col != spells.place)
            idx = np.flatnonzero(changed)
            if len(idx):
                rec = empty_records(len(idx))
                rec["start"] = spells.start[idx]
                rec["stop"] = hour
                rec["person"] = idx.astype(np.uint32)
                rec["activity"] = spells.activity[idx]
                rec["place"] = spells.place[idx]
                chunks.append(rec)
                spells.start[idx] = hour
                spells.activity[idx] = act_col[idx]
                spells.place[idx] = place_col[idx]

        assert spells is not None
        chunks.append(spells.close_all(duration))
        records = np.concatenate(chunks)
        return SimulationResult(
            duration_hours=duration,
            records=records,
            n_events=len(records),
            disease=self.disease,
            observers=observers,
        )

    def run_fast(self) -> SimulationResult:
        """Alias of :meth:`run`, kept for the e2e ``simlog-month`` workload."""
        return self.run()
