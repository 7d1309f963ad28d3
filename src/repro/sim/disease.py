"""SEIR disease transmission layer.

chiSIM "is an extension of an infectious disease transmission model that
was generalized to model any kind of social interaction"; the paper's
motivating log use-case is contact tracing — "trace back to patient zero,
the agent who initiated the disease outbreak".

Transmission happens between collocated agents: each hour, a susceptible
agent sharing a place with ``k`` infectious agents is infected with
probability ``1 - (1 - β)^k``.  Every infection stores a
:class:`TransmissionRecord` (who, by whom, where, when), giving the
examples a ground-truth transmission tree to trace.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..config import HOURS_PER_DAY, DiseaseConfig
from ..errors import SimulationError

__all__ = ["DiseaseState", "DiseaseModel", "TransmissionRecord"]


class DiseaseState(enum.IntEnum):
    """SEIR compartment codes (values are stable, stored in results)."""

    SUSCEPTIBLE = 0
    EXPOSED = 1
    INFECTIOUS = 2
    RECOVERED = 3


@dataclass(frozen=True)
class TransmissionRecord:
    """One infection event: ground truth for contact tracing."""

    hour: int
    place: int
    infected: int
    infector: int


class DiseaseModel:
    """Vectorized SEIR dynamics over place collocations.

    State is columnar: a uint8 state vector and an int32 hour countdown to
    the next state transition.  The per-hour step is O(n) using bincount
    aggregations by place; no per-agent Python loop.
    """

    def __init__(self, n_persons: int, config: DiseaseConfig, seed: int) -> None:
        if n_persons <= 0:
            raise SimulationError("disease model needs a population")
        self.config = config
        self.n_persons = n_persons
        self.rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(0xD15EA5E,))
        )
        self.state = np.full(n_persons, int(DiseaseState.SUSCEPTIBLE), dtype=np.uint8)
        self.timer = np.zeros(n_persons, dtype=np.int32)
        self.infected_at = np.full(n_persons, -1, dtype=np.int64)
        self.transmissions: list[TransmissionRecord] = []
        self.patient_zeros: list[int] = []
        if config.initial_infected > n_persons:
            raise SimulationError("more initial infections than persons")
        if config.initial_infected:
            seeds = self.rng.choice(
                n_persons, size=config.initial_infected, replace=False
            )
            self.state[seeds] = int(DiseaseState.INFECTIOUS)
            self.timer[seeds] = self._sample_duration(
                config.infectious_days, len(seeds)
            )
            self.infected_at[seeds] = 0
            self.patient_zeros = [int(s) for s in seeds]

    def _sample_duration(self, days: float, n: int) -> np.ndarray:
        """Exponential stage duration in hours, at least one hour."""
        hours = self.rng.exponential(days * HOURS_PER_DAY, n)
        return np.maximum(1, hours).astype(np.int32)

    # -- per-hour step ----------------------------------------------------------

    def step(self, hour: int, place_of_person: np.ndarray) -> int:
        """Advance one hour given each person's current place.

        Returns the number of new infections this hour.
        """
        place_of_person = np.asarray(place_of_person)
        if place_of_person.shape != (self.n_persons,):
            raise SimulationError("place vector does not match population")

        # stage progression
        self.timer[self.state != int(DiseaseState.SUSCEPTIBLE)] -= 1
        expired = self.timer <= 0
        e2i = expired & (self.state == int(DiseaseState.EXPOSED))
        i2r = expired & (self.state == int(DiseaseState.INFECTIOUS))
        if e2i.any():
            self.state[e2i] = int(DiseaseState.INFECTIOUS)
            self.timer[e2i] = self._sample_duration(
                self.config.infectious_days, int(e2i.sum())
            )
        if i2r.any():
            self.state[i2r] = int(DiseaseState.RECOVERED)

        # transmission
        infectious = self.state == int(DiseaseState.INFECTIOUS)
        if not infectious.any():
            return 0
        susceptible = self.state == int(DiseaseState.SUSCEPTIBLE)
        if not susceptible.any():
            return 0
        n_places = int(place_of_person.max()) + 1
        inf_count = np.bincount(
            place_of_person[infectious].astype(np.int64), minlength=n_places
        )
        sus_idx = np.flatnonzero(susceptible)
        k = inf_count[place_of_person[sus_idx].astype(np.int64)]
        exposed_prob = 1.0 - (1.0 - self.config.transmissibility) ** k
        hit = self.rng.random(len(sus_idx)) < exposed_prob
        newly = sus_idx[hit]
        if not len(newly):
            return 0
        self.state[newly] = int(DiseaseState.EXPOSED)
        self.timer[newly] = self._sample_duration(
            self.config.incubation_days, len(newly)
        )
        self.infected_at[newly] = hour

        # attribute an infector per new case: a random infectious agent at
        # the same place (ground truth for the tracing example)
        inf_idx = np.flatnonzero(infectious)
        inf_places = place_of_person[inf_idx].astype(np.int64)
        order = np.argsort(inf_places, kind="stable")
        sorted_places = inf_places[order]
        for person in newly:
            plc = int(place_of_person[person])
            lo = np.searchsorted(sorted_places, plc, side="left")
            hi = np.searchsorted(sorted_places, plc, side="right")
            assert hi > lo, "new case must have an infectious collocate"
            pick = int(order[self.rng.integers(lo, hi)])
            self.transmissions.append(
                TransmissionRecord(
                    hour=hour,
                    place=plc,
                    infected=int(person),
                    infector=int(inf_idx[pick]),
                )
            )
        return len(newly)

    # -- reporting ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Current S/E/I/R census."""
        return {
            s.name.lower(): int(np.count_nonzero(self.state == int(s)))
            for s in DiseaseState
        }

    def trace_to_patient_zero(self, person: int) -> list[TransmissionRecord]:
        """Walk the transmission tree from *person* back to a seed case.

        This is the paper's log use-case made executable: the chain of
        :class:`TransmissionRecord` from the person's own infection back to
        an initially-infected agent (empty if *person* is a seed or was
        never infected).
        """
        by_infected = {t.infected: t for t in self.transmissions}
        chain: list[TransmissionRecord] = []
        current = person
        seen = {person}
        while current in by_infected:
            rec = by_infected[current]
            chain.append(rec)
            current = rec.infector
            if current in seen:
                raise SimulationError("cycle in transmission records")
            seen.add(current)
        return chain

    def attack_rate(self) -> float:
        """Fraction of the population ever infected."""
        return float(np.count_nonzero(self.infected_at >= 0)) / self.n_persons
