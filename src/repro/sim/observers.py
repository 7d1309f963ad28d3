"""Per-tick aggregate observers.

The paper notes that "recent urban-scale simulation models typically apply
aggregate metrics and statistics such as disease incidence to characterize
the state of the population over time" — these observers implement that
aggregate view, which the network analysis of Section V then goes beyond.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .disease import DiseaseModel, DiseaseState

__all__ = [
    "Observer",
    "PrevalenceObserver",
    "OccupancyObserver",
    "MovementObserver",
]


@runtime_checkable
class Observer(Protocol):
    """Anything with an ``on_tick`` hook."""

    def on_tick(
        self,
        hour: int,
        activity: np.ndarray,
        place: np.ndarray,
        disease: DiseaseModel | None,
    ) -> None: ...


class PrevalenceObserver:
    """Hourly S/E/I/R counts (disease incidence time series)."""

    def __init__(self) -> None:
        self.hours: list[int] = []
        self.series: dict[str, list[int]] = {
            s.name.lower(): [] for s in DiseaseState
        }

    def on_tick(
        self,
        hour: int,
        activity: np.ndarray,
        place: np.ndarray,
        disease: DiseaseModel | None,
    ) -> None:
        if disease is None:
            return
        self.hours.append(hour)
        for name, count in disease.counts().items():
            self.series[name].append(count)

    def peak_infectious(self) -> tuple[int, int]:
        """(hour, count) at the epidemic peak; (0, 0) when never observed."""
        inf = self.series["infectious"]
        if not inf:
            return 0, 0
        i = int(np.argmax(inf))
        return self.hours[i], inf[i]


class OccupancyObserver:
    """Distribution of simultaneous place occupancy, sampled hourly.

    Collects a histogram of "how many people share a place right now",
    the quantity whose variance drives the paper's load-balancing needs
    (locations "range from a single individual to tens of thousands").
    """

    def __init__(self, max_occupancy: int = 4096) -> None:
        self.max_occupancy = max_occupancy
        self.histogram = np.zeros(max_occupancy + 1, dtype=np.int64)
        self.max_seen = 0

    def on_tick(
        self,
        hour: int,
        activity: np.ndarray,
        place: np.ndarray,
        disease: DiseaseModel | None,
    ) -> None:
        occ = np.bincount(place.astype(np.int64))
        occ = occ[occ > 0]
        if occ.size:
            self.max_seen = max(self.max_seen, int(occ.max()))
        clipped = np.minimum(occ, self.max_occupancy)
        self.histogram += np.bincount(
            clipped, minlength=self.max_occupancy + 1
        )

    def mean_occupancy(self) -> float:
        counts = self.histogram
        sizes = np.arange(len(counts))
        total = counts.sum()
        return float((counts * sizes).sum() / total) if total else 0.0


class MovementObserver:
    """Counts agents that changed place each hour (movement volume).

    The distributed engine's migration traffic is this series restricted to
    moves that cross rank boundaries, so this observer provides the serial
    baseline for the partitioning experiment.
    """

    def __init__(self) -> None:
        self._last_place: np.ndarray | None = None
        self.moves_per_hour: list[int] = []

    def on_tick(
        self,
        hour: int,
        activity: np.ndarray,
        place: np.ndarray,
        disease: DiseaseModel | None,
    ) -> None:
        if self._last_place is not None:
            self.moves_per_hour.append(
                int(np.count_nonzero(place != self._last_place))
            )
        self._last_place = place.copy()

    @property
    def total_moves(self) -> int:
        return int(sum(self.moves_per_hour))
