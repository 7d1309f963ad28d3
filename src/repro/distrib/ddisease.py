"""Distributed SEIR epidemic on the rank-based model.

chiSIM is "an extension of an infectious disease transmission model", and
in the distributed setting the disease layer is what makes place ownership
semantically powerful: **all occupants of a place are hosted by the
place's owning rank**, so hourly transmission is computed entirely
rank-locally — no halo exchange — and an agent's disease state simply
travels inside its migration payload.

Differences from the serial :class:`~repro.sim.disease.DiseaseModel`:

* each rank draws from its own spawned RNG stream, so trajectories vary
  with ``n_ranks`` (statistically, not structurally — the conservation
  and locality invariants below hold for every rank count);
* global S/E/I/R counts are produced per hour with an ``allreduce``, the
  aggregate-observer pattern of a real MPI epidemic code.

Invariants (tested): population conservation (S+E+I+R = N every hour),
rank-local transmission (every infection names an infector hosted at the
same place that hour), and monotone non-increasing susceptibles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import HOURS_PER_DAY, HOURS_PER_WEEK, DiseaseConfig, SimulationConfig
from ..errors import SimulationError
from ..sim.disease import DiseaseState, TransmissionRecord
from ..synthpop.generator import SyntheticPopulation
from .comm import Communicator, TrafficStats
from .dmodel import _ScheduleCache
from .migration import route_rows, unpack_migrants
from .partition import PlacePartition
from .simcluster import SimCluster

__all__ = ["DistributedEpidemicSimulation", "EpidemicRunResult"]

#: migration payload with disease state on board
EPI_MIGRANT_DTYPE = np.dtype(
    [
        ("person", "<u4"),
        ("place", "<u4"),
        ("state", "<u1"),
        ("timer", "<i4"),
        ("infected_at", "<i8"),
    ]
)


@dataclass
class EpidemicRunResult:
    """Output of a distributed epidemic run."""

    n_ranks: int
    duration_hours: int
    seir_per_hour: np.ndarray  # (duration, 4) global S/E/I/R counts
    transmissions: list[TransmissionRecord]
    patient_zeros: list[int]
    final_state: np.ndarray  # (n_persons,) uint8 DiseaseState values
    infected_at: np.ndarray  # (n_persons,) int64, -1 = never
    traffic: TrafficStats = field(default_factory=TrafficStats)

    @property
    def attack_rate(self) -> float:
        return float(np.count_nonzero(self.infected_at >= 0)) / len(
            self.final_state
        )

    def peak_infectious(self) -> tuple[int, int]:
        inf = self.seir_per_hour[:, int(DiseaseState.INFECTIOUS)]
        hour = int(np.argmax(inf))
        return hour, int(inf[hour])


class DistributedEpidemicSimulation:
    """SEIR dynamics over the distributed chiSIM-like model.

    Parameters mirror :class:`~repro.distrib.dmodel.DistributedSimulation`
    but ``config.disease`` is required here.
    """

    def __init__(
        self,
        population: SyntheticPopulation,
        config: SimulationConfig,
        partition: PlacePartition,
    ) -> None:
        if config.disease is None:
            raise SimulationError("config.disease is required")
        if partition.n_places != population.n_places:
            raise SimulationError("partition does not cover the place table")
        if partition.n_ranks != config.n_ranks:
            raise SimulationError("partition/config rank count mismatch")
        self.population = population
        self.config = config
        self.partition = partition

    def run(self) -> EpidemicRunResult:
        duration = self.config.duration_hours
        n_ranks = self.config.n_ranks
        n_persons = self.population.n_persons
        assignment = self.partition.assignment
        disease_cfg: DiseaseConfig = self.config.disease  # type: ignore[assignment]
        cache = _ScheduleCache(
            self.population.schedule_generator(self.config.schedule)
        )
        seed = self.population.seed

        # seed cases chosen globally (rank-independent)
        seed_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(0xE91,))
        )
        if disease_cfg.initial_infected > n_persons:
            raise SimulationError("more initial infections than persons")
        zeros = (
            seed_rng.choice(n_persons, disease_cfg.initial_infected, replace=False)
            if disease_cfg.initial_infected
            else np.empty(0, dtype=np.int64)
        )
        zero_set = np.zeros(n_persons, dtype=bool)
        zero_set[zeros] = True

        def sample_duration(
            rng: np.random.Generator, days: float, n: int
        ) -> np.ndarray:
            hours = rng.exponential(days * HOURS_PER_DAY, n)
            return np.maximum(1, hours).astype(np.int32)

        def rank_fn(comm: Communicator):
            rank = comm.rank
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(0xD0D0, rank))
            )
            week = cache.week(0)
            place0 = week.place[:, 0]
            ids = np.flatnonzero(assignment[place0] == rank).astype(np.uint32)
            cur_place = place0[ids]
            state = np.full(len(ids), int(DiseaseState.SUSCEPTIBLE), np.uint8)
            timer = np.zeros(len(ids), dtype=np.int32)
            infected_at = np.full(len(ids), -1, dtype=np.int64)
            hosted_zero = zero_set[ids]
            if hosted_zero.any():
                k = int(hosted_zero.sum())
                state[hosted_zero] = int(DiseaseState.INFECTIOUS)
                timer[hosted_zero] = sample_duration(
                    rng, disease_cfg.infectious_days, k
                )
                infected_at[hosted_zero] = 0

            transmissions: list[TransmissionRecord] = []
            seir_hours = np.zeros((duration, 4), dtype=np.int64)

            for hour in range(duration):
                if hour > 0:
                    week_index, hour_of_week = divmod(hour, HOURS_PER_WEEK)
                    if hour_of_week == 0 or hour == 1:
                        week = cache.week(week_index)
                    cur_place = week.place[:, hour_of_week][ids]
                    dest = assignment[cur_place]
                    leaving = dest != rank
                    payloads: list[np.ndarray | None] = [None] * comm.size
                    if leaving.any():
                        lv = np.flatnonzero(leaving)
                        order, spans = route_rows(dest[lv], comm.size)
                        rows = lv[order]
                        out = np.empty(len(rows), dtype=EPI_MIGRANT_DTYPE)
                        out["person"] = ids[rows]
                        out["place"] = cur_place[rows]
                        out["state"] = state[rows]
                        out["timer"] = timer[rows]
                        out["infected_at"] = infected_at[rows]
                        for r, lo, hi in spans:
                            payloads[r] = out[lo:hi]
                        keep = ~leaving
                        ids = ids[keep]
                        cur_place = cur_place[keep]
                        state = state[keep]
                        timer = timer[keep]
                        infected_at = infected_at[keep]
                    inc = unpack_migrants(
                        comm.alltoall(payloads), EPI_MIGRANT_DTYPE
                    )
                    if len(inc):
                        ids = np.concatenate([ids, inc["person"]])
                        cur_place = np.concatenate([cur_place, inc["place"]])
                        state = np.concatenate([state, inc["state"]])
                        timer = np.concatenate([timer, inc["timer"]])
                        infected_at = np.concatenate(
                            [infected_at, inc["infected_at"]]
                        )

                # --- rank-local SEIR step on hosted agents ---
                active = state != int(DiseaseState.SUSCEPTIBLE)
                timer[active] -= 1
                expired = timer <= 0
                e2i = expired & (state == int(DiseaseState.EXPOSED))
                i2r = expired & (state == int(DiseaseState.INFECTIOUS))
                if e2i.any():
                    state[e2i] = int(DiseaseState.INFECTIOUS)
                    timer[e2i] = sample_duration(
                        rng, disease_cfg.infectious_days, int(e2i.sum())
                    )
                if i2r.any():
                    state[i2r] = int(DiseaseState.RECOVERED)

                infectious = state == int(DiseaseState.INFECTIOUS)
                susceptible = state == int(DiseaseState.SUSCEPTIBLE)
                if infectious.any() and susceptible.any():
                    places_local = cur_place.astype(np.int64)
                    n_pl = int(places_local.max()) + 1
                    inf_count = np.bincount(
                        places_local[infectious], minlength=n_pl
                    )
                    sus_idx = np.flatnonzero(susceptible)
                    k = inf_count[places_local[sus_idx]]
                    prob = 1.0 - (1.0 - disease_cfg.transmissibility) ** k
                    hit = rng.random(len(sus_idx)) < prob
                    newly = sus_idx[hit]
                    if len(newly):
                        state[newly] = int(DiseaseState.EXPOSED)
                        timer[newly] = sample_duration(
                            rng, disease_cfg.incubation_days, len(newly)
                        )
                        infected_at[newly] = hour
                        inf_idx = np.flatnonzero(infectious)
                        inf_places = places_local[inf_idx]
                        order = np.argsort(inf_places, kind="stable")
                        sorted_places = inf_places[order]
                        for row in newly:
                            plc = int(places_local[row])
                            lo = np.searchsorted(sorted_places, plc, "left")
                            hi = np.searchsorted(sorted_places, plc, "right")
                            pick = int(order[rng.integers(lo, hi)])
                            transmissions.append(
                                TransmissionRecord(
                                    hour=hour,
                                    place=plc,
                                    infected=int(ids[row]),
                                    infector=int(ids[inf_idx[pick]]),
                                )
                            )

                # --- global aggregate (the MPI observer pattern) ---
                local_counts = np.bincount(state, minlength=4).astype(np.int64)
                seir_hours[hour] = comm.allreduce_sum(local_counts)

            return ids, state, infected_at, transmissions, seir_hours

        cluster = SimCluster(n_ranks)
        result = cluster.run(rank_fn)

        final_state = np.zeros(n_persons, dtype=np.uint8)
        infected_at = np.full(n_persons, -1, dtype=np.int64)
        transmissions: list[TransmissionRecord] = []
        hosted_total = 0
        seir = None
        for ids, state, inf_at, trans, seir_hours in result.returns:
            final_state[ids] = state
            infected_at[ids] = inf_at
            transmissions.extend(trans)
            hosted_total += len(ids)
            seir = seir_hours  # identical on every rank (allreduced)
        if hosted_total != n_persons:
            raise SimulationError("agents lost during epidemic migration")
        transmissions.sort(key=lambda t: t.hour)
        return EpidemicRunResult(
            n_ranks=n_ranks,
            duration_hours=duration,
            seir_per_hour=seir,
            transmissions=transmissions,
            patient_zeros=[int(z) for z in zeros],
            final_state=final_state,
            infected_at=infected_at,
            traffic=result.total_traffic,
        )
