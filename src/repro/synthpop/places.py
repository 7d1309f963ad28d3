"""Columnar place table with geospatial coordinates.

chiSIM's 1.2 M places are "specifically characterized as geospatial since
they correspond to real locations in the Chicago area".  Our synthetic city
is a square of side ``city_km`` with population density falling off from a
downtown core, which gives the distance-based school/workplace assignment
and the spatial rank-partitioning something realistic to work against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import PopulationError

__all__ = ["PlaceKind", "LAYER_KINDS", "PlaceTable"]


class PlaceKind(enum.IntEnum):
    """Kinds of places.  Values are stable and stored in npz files."""

    HOME = 0
    SCHOOL = 1
    WORKPLACE = 2
    OTHER = 3


#: canonical lower-case layer names, in :class:`PlaceKind` order — the
#: vocabulary of the place-masked tile caches and the network-query
#: service's ``layer`` op
LAYER_KINDS: tuple[str, ...] = tuple(kind.name.lower() for kind in PlaceKind)


@dataclass
class PlaceTable:
    """Struct-of-arrays place table.

    Attributes
    ----------
    kind:
        ``uint8`` :class:`PlaceKind` value per place.
    x, y:
        ``float32`` coordinates in kilometres within the city square.
    capacity:
        ``uint32`` nominal capacity (school seats, workplace positions,
        venue size).  Homes use their household size.
    """

    kind: np.ndarray
    x: np.ndarray
    y: np.ndarray
    capacity: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.kind)
        for name in ("x", "y", "capacity"):
            col = getattr(self, name)
            if col.shape != (n,):
                raise PopulationError(
                    f"column {name!r} has shape {col.shape}, expected ({n},)"
                )
        self.kind = self.kind.astype(np.uint8, copy=False)
        self.x = self.x.astype(np.float32, copy=False)
        self.y = self.y.astype(np.float32, copy=False)
        self.capacity = self.capacity.astype(np.uint32, copy=False)

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def n_places(self) -> int:
        return len(self.kind)

    def ids_of_kind(self, kind: PlaceKind) -> np.ndarray:
        """Place ids of a given kind, as uint32."""
        return np.flatnonzero(self.kind == int(kind)).astype(np.uint32)

    def coords(self) -> np.ndarray:
        """``(n, 2) float32`` coordinate matrix."""
        return np.stack([self.x, self.y], axis=1)

    def counts_by_kind(self) -> dict[str, int]:
        """Human-readable census of the place table."""
        return {
            kind.name.lower(): int(np.count_nonzero(self.kind == int(kind)))
            for kind in PlaceKind
        }


def scatter_city_coords(
    n: int, city_km: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample *n* locations with a dense core and sparse periphery.

    A mixture of a tight Gaussian blob around the city center (the "Loop")
    and a uniform background; clipped to the city square.  Produces the
    center-heavy density that makes spatial partitioning non-trivial.
    """
    if n < 0:
        raise PopulationError(f"cannot place {n} locations")
    core = rng.random(n) < 0.45
    n_core = int(core.sum())
    xs = np.empty(n, dtype=np.float32)
    ys = np.empty(n, dtype=np.float32)
    center = city_km / 2.0
    sigma = city_km / 8.0
    xs[core] = rng.normal(center, sigma, n_core)
    ys[core] = rng.normal(center, sigma, n_core)
    xs[~core] = rng.uniform(0.0, city_km, n - n_core)
    ys[~core] = rng.uniform(0.0, city_km, n - n_core)
    np.clip(xs, 0.0, city_km, out=xs)
    np.clip(ys, 0.0, city_km, out=ys)
    return xs.astype(np.float32), ys.astype(np.float32)
