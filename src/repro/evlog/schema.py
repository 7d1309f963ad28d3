"""The 20-byte log record schema.

Exactly the paper's layout: "the start and stop times of the activity and
unique identification numbers for the person, activity and location, which
are stored as 4-byte unsigned integers" — 20 bytes per entry, numerically
adequate for "very large scale simulations" (ids up to 2³²-1).

Records are handled as numpy structured arrays with this dtype so that a
chunk of N records is one contiguous ``20·N``-byte buffer: zero-copy to
serialize, zero-copy to parse.
"""

from __future__ import annotations

import numpy as np

from .._util import check_uint32
from ..errors import LogFormatError

__all__ = [
    "LOG_DTYPE",
    "LOG_FIELDS",
    "RECORD_BYTES",
    "LogRecordArray",
    "empty_records",
    "make_records",
    "validate_records",
    "records_to_bytes",
    "records_from_bytes",
]

LOG_FIELDS = ("start", "stop", "person", "activity", "place")

#: little-endian so files are portable across hosts
LOG_DTYPE = np.dtype([(name, "<u4") for name in LOG_FIELDS])

RECORD_BYTES = LOG_DTYPE.itemsize
assert RECORD_BYTES == 20, "paper schema is exactly 20 bytes per entry"

#: alias for annotation readability
LogRecordArray = np.ndarray


def empty_records(n: int = 0) -> LogRecordArray:
    """Allocate an uninitialized record array of length *n*."""
    return np.empty(n, dtype=LOG_DTYPE)


def make_records(
    start: np.ndarray,
    stop: np.ndarray,
    person: np.ndarray,
    activity: np.ndarray,
    place: np.ndarray,
) -> LogRecordArray:
    """Build a validated record array from five parallel columns.

    Raises ``ValueError`` if any column does not fit uint32 and
    :class:`~repro.errors.LogFormatError` if any ``stop <= start`` (an
    activity spell must cover at least one time unit).
    """
    cols = {
        "start": check_uint32(start, "start"),
        "stop": check_uint32(stop, "stop"),
        "person": check_uint32(person, "person"),
        "activity": check_uint32(activity, "activity"),
        "place": check_uint32(place, "place"),
    }
    n = len(cols["start"])
    for name, col in cols.items():
        if len(col) != n:
            raise LogFormatError(
                f"column {name!r} has length {len(col)}, expected {n}"
            )
    if np.any(cols["stop"] <= cols["start"]):
        raise LogFormatError("log records require stop > start")
    rec = empty_records(n)
    for name in LOG_FIELDS:
        rec[name] = cols[name]
    return rec


def validate_records(records: LogRecordArray) -> LogRecordArray:
    """Check dtype and interval sanity of an existing record array."""
    records = np.asarray(records)
    if records.dtype != LOG_DTYPE:
        raise LogFormatError(
            f"expected log dtype {LOG_DTYPE}, got {records.dtype}"
        )
    if np.any(records["stop"] <= records["start"]):
        raise LogFormatError("log records require stop > start")
    return records


def records_to_bytes(records: LogRecordArray) -> bytes:
    """Serialize records to their on-disk little-endian byte image."""
    records = np.ascontiguousarray(np.asarray(records, dtype=LOG_DTYPE))
    return records.tobytes()


def records_from_bytes(buf: bytes | memoryview) -> LogRecordArray:
    """Parse an on-disk byte image back into a record array."""
    if len(buf) % RECORD_BYTES:
        raise LogFormatError(
            f"byte buffer of {len(buf)} bytes is not a whole number of "
            f"{RECORD_BYTES}-byte records"
        )
    return np.frombuffer(buf, dtype=LOG_DTYPE).copy()
