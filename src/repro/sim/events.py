"""Event records: open spells, and records back to schedule grids.

Event-based logging is the paper's key storage idea: "only logs changes in
person agent states ... Considering that agent activity states change only
several times per day, the use of event-based logging reduces both
computational and storage costs dramatically."

An *event* (one log record) is a maximal run of hours during which a
person's ``(activity, place)`` pair is constant: ``[start, stop)`` in
absolute simulation hours.  :class:`OpenSpells` carries run state across
grid boundaries (week to week) so a spell spanning midnight Sunday is one
record, exactly as a per-tick logger would emit it.

``events_to_grid`` turns records back into hour grids: the test oracle
proving the compression is lossless, and contact reconstruction from a
log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..evlog.schema import LOG_DTYPE, LogRecordArray, empty_records

__all__ = ["OpenSpells", "events_to_grid"]


@dataclass
class OpenSpells:
    """Per-person in-progress activity spells.

    Attributes
    ----------
    start:
        absolute hour each person's current spell began (int64).
    activity, place:
        the spell's constant state (uint32).
    """

    start: np.ndarray
    activity: np.ndarray
    place: np.ndarray

    @classmethod
    def begin(
        cls, activity0: np.ndarray, place0: np.ndarray, t0: int
    ) -> "OpenSpells":
        """Open a spell for every person at absolute hour ``t0``."""
        n = len(activity0)
        return cls(
            start=np.full(n, t0, dtype=np.int64),
            activity=np.asarray(activity0, dtype=np.uint32).copy(),
            place=np.asarray(place0, dtype=np.uint32).copy(),
        )

    def close_all(self, t_end: int) -> LogRecordArray:
        """Emit the final records for all open spells ending at ``t_end``."""
        n = len(self.start)
        rec = empty_records(n)
        rec["start"] = self.start
        rec["stop"] = t_end
        rec["person"] = np.arange(n, dtype=np.uint32)
        rec["activity"] = self.activity
        rec["place"] = self.place
        if np.any(rec["stop"] <= rec["start"]):
            raise SimulationError("close_all at or before spell start")
        return rec


def events_to_grid(
    records: LogRecordArray,
    n_persons: int,
    t0: int,
    t1: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the ``(n_persons, t1 - t0)`` grids from event records.

    The inverse of event emission over a fully-covered window (every
    person has records covering every hour in ``[t0, t1)``); hours not
    covered by any record are left as activity/place 0.  Used as the
    lossless-compression oracle in tests and for contact reconstruction.
    """
    records = np.asarray(records, dtype=LOG_DTYPE)
    H = t1 - t0
    if H <= 0:
        raise SimulationError("t1 must exceed t0")
    act = np.zeros((n_persons, H), dtype=np.uint32)
    plc = np.zeros((n_persons, H), dtype=np.uint32)
    starts = np.maximum(records["start"].astype(np.int64), t0) - t0
    stops = np.minimum(records["stop"].astype(np.int64), t1) - t0
    keep = stops > starts
    starts, stops = starts[keep], stops[keep]
    persons = records["person"][keep].astype(np.int64)
    if persons.size and persons.max() >= n_persons:
        raise SimulationError("record person id outside population")
    activities = records["activity"][keep]
    places = records["place"][keep]
    # paint each record interval; loop over records is acceptable here (the
    # oracle path), but batch by interval length to stay vectorized.
    lengths = stops - starts
    for length in np.unique(lengths):
        sel = lengths == length
        base = starts[sel]
        p = persons[sel]
        for off in range(int(length)):
            act[p, base + off] = activities[sel]
            plc[p, base + off] = places[sel]
    return act, plc
