"""Agent migration payloads.

When an agent's next place lives on a different rank, the hosting rank
ships the agent's state there.  The payload carries exactly what the
destination needs to continue the agent's open activity spell; it is a
fixed-width structured array so metering (and a real MPI port) sees a flat
buffer, not pickled objects.
"""

from __future__ import annotations

import numpy as np

from ..errors import CommError

__all__ = ["MIGRANT_DTYPE", "pack_migrants", "unpack_migrants", "route_rows"]

#: person id, the open spell's start hour, and its (activity, place) state
MIGRANT_DTYPE = np.dtype(
    [
        ("person", "<u4"),
        ("spell_start", "<i8"),
        ("activity", "<u4"),
        ("place", "<u4"),
    ]
)


def pack_migrants(
    person: np.ndarray,
    spell_start: np.ndarray,
    activity: np.ndarray,
    place: np.ndarray,
) -> np.ndarray:
    """Bundle migrating agents into one contiguous structured array."""
    n = len(person)
    for name, col in (
        ("spell_start", spell_start),
        ("activity", activity),
        ("place", place),
    ):
        if len(col) != n:
            raise CommError(f"migrant column {name} length mismatch")
    out = np.empty(n, dtype=MIGRANT_DTYPE)
    out["person"] = person
    out["spell_start"] = spell_start
    out["activity"] = activity
    out["place"] = place
    return out


def route_rows(
    dest: np.ndarray, n_ranks: int
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Order leavers by destination rank.

    Returns ``(order, spans)``: ``order`` sorts ``dest`` stably (leavers
    bound for one rank keep their hosted order) and ``spans`` holds
    ``(rank, lo, hi)`` for every rank that receives someone — rows
    ``order[lo:hi]`` go to ``rank``.  Pack the rows once in that order and
    send each destination its slice.
    """
    order = np.argsort(dest, kind="stable")
    bounds = np.searchsorted(dest[order], np.arange(n_ranks + 1)).tolist()
    return order, [
        (r, lo, hi)
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        if hi > lo
    ]


def unpack_migrants(payloads: list[np.ndarray | None]) -> np.ndarray:
    """Concatenate received migrant payloads (skipping empty/None); a
    payload that is not :data:`MIGRANT_DTYPE` is a protocol error, never
    cast."""
    parts = [p for p in payloads if p is not None and len(p)]
    for p in parts:
        if getattr(p, "dtype", None) != MIGRANT_DTYPE:
            raise CommError(
                f"migrant payload has dtype {getattr(p, 'dtype', type(p))}, "
                f"expected {MIGRANT_DTYPE}"
            )
    if not parts:
        return np.empty(0, dtype=MIGRANT_DTYPE)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]
