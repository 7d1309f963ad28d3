"""EVL log reader: whole-file, chunk-iterative, and time-sliced access.

Post-simulation network synthesis reads logs in two patterns, both from the
paper:

* **batch**: load everything (or a file at a time) for a synthesis run;
* **time slice**: "sub-setting the table into time slices, e.g. one week,
  based on the start and stop times of the log entries" — served here from
  the chunk index, which records each chunk's time envelope, so only
  overlapping chunks are decoded.

Files truncated by a crashed writer (no trailer) are recovered by scanning
chunks forward until the first incomplete one.
"""

from __future__ import annotations

import mmap
import os
import time
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import LogFormatError, LogTruncatedError
from ..obs import get_probe
from .format import (
    CHUNK_HEADER_BYTES,
    ChunkInfo,
    EvlHeader,
    HEADER_BYTES,
    check_chunk_at,
    read_chunk_at,
    unpack_header,
    unpack_index,
    unpack_trailer,
)
from .schema import LOG_DTYPE, LogRecordArray, empty_records, records_from_bytes

__all__ = [
    "LogReader",
    "WALK_COUNTERS",
    "read_window_columns",
    "slice_columns",
    "publish_walk_stats",
    "scan_intact_chunks",
]


#: the per-walk counts :func:`publish_walk_stats` emits as
#: ``evlog.reader.<name>`` (``records_decoded ÷ records_kept`` is the read
#: amplification of a window)
WALK_COUNTERS = (
    "chunks_decoded",
    "chunks_checked",
    "bytes_crc",
    "records_decoded",
    "records_kept",
)

Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _empty_columns(n: int) -> Columns:
    return tuple(np.empty(n, dtype=np.int64) for _ in range(4))  # type: ignore[return-value]


def _append_window(
    rec: LogRecordArray, t0: int, t1: int, columns: Columns, n: int
) -> int:
    """Cast-copy the records of *rec* that intersect ``[t0, t1)`` into the
    ``(starts, stops, person, place)`` columns at row *n*; returns the new
    fill.  No intermediate struct copy when every record is kept."""
    s, e = rec["start"], rec["stop"]
    mask = (s < t1) & (e > t0)
    if not mask.all():
        idx = np.flatnonzero(mask)
        if not len(idx):
            return n
        rec = rec[idx]
        s, e = rec["start"], rec["stop"]
    end = n + len(rec)
    starts, stops, person, place = columns
    starts[n:end] = s
    stops[n:end] = e
    person[n:end] = rec["person"]
    place[n:end] = rec["place"]
    return end


def _clip_columns(columns: Columns, n: int, t0: int, t1: int) -> Columns:
    starts, stops, person, place = (col[:n] for col in columns)
    np.maximum(starts, t0, out=starts)
    np.minimum(stops, t1, out=stops)
    return starts, stops, person, place


def slice_columns(records: LogRecordArray, t0: int, t1: int) -> Columns:
    """In-memory records lowered to what the interval kernel consumes:
    ``(starts, stops, person, place)`` int64 columns of the records that
    intersect ``[t0, t1)``, clipped to it.  Value-identical to
    ``slice_records(records, t0, t1)`` pulled apart, in one fused pass."""
    if t1 <= t0:
        raise ValueError(f"empty time slice [{t0}, {t1})")
    records = np.asarray(records, dtype=LOG_DTYPE)
    columns = _empty_columns(len(records))
    return _clip_columns(columns, _append_window(records, t0, t1, columns, 0), t0, t1)


def read_window_columns(
    source: "LogReader | str | Path",
    t0: int,
    t1: int,
    whole_file: bool = False,
) -> tuple[Columns, dict]:
    """One verify + decode walk over a log file for window ``[t0, t1)``.

    Every chunk is visited once, in index order.  A chunk whose time
    envelope overlaps the window is decoded (framing, CRC, size, count vs
    index) straight off the buffer into four preallocated int64 columns,
    window-masked and clipped — no struct-record copy, and for an
    uncompressed mmap'd file no payload copy either.  With
    ``whole_file=True`` every other chunk is CRC-checked too (framing,
    CRC, count vs index), so damage anywhere fails the file whatever the
    window — the quarantine verdict — while each payload byte is still
    CRC'd exactly once.  ``whole_file=False`` touches window chunks only.

    *source* is a path — opened strict (a missing trailer raises
    :class:`~repro.errors.LogTruncatedError`) and mmap'd for the walk — or
    an already-open :class:`LogReader`, which stays open.  Damage raises a
    :class:`~repro.errors.LogFormatError` subclass.

    Returns ``(columns, stats)``: columns value-identical to
    ``clip_records(reader.read_time_slice(t0, t1), t0, t1)`` pulled apart,
    and a stats dict with the :data:`WALK_COUNTERS` plus ``seconds``.
    """
    if t1 <= t0:
        raise ValueError(f"empty time slice [{t0}, {t1})")
    tic = time.perf_counter()
    if isinstance(source, LogReader):
        columns, stats = source._walk(t0, t1, whole_file)
    else:
        with LogReader(source, strict=True, use_mmap=True) as reader:
            columns, stats = reader._walk(t0, t1, whole_file)
    stats["seconds"] = time.perf_counter() - tic
    return columns, stats


def publish_walk_stats(stats: dict | None) -> None:
    """Emit one walk's counters through the active probe.  Called where the
    stats land (the coordinator, for a pool task), once per file walk."""
    if not stats:
        return
    probe = get_probe()
    for name in WALK_COUNTERS:
        probe.count(f"evlog.reader.{name}", stats[name])


def scan_intact_chunks(
    buf: bytes | memoryview, compressed: bool, start: int = HEADER_BYTES
) -> tuple[list[ChunkInfo], int]:
    """Recover chunk locations by scanning forward from *start*.

    Returns ``(chunks, end_offset)`` where ``end_offset`` is the byte just
    past the last intact chunk — the safe truncation point for salvage.
    The scan stops at the first torn or corrupt chunk (and at the index,
    whose magic differs), so everything before ``end_offset`` is verified.

    Shared by :class:`LogReader` (recovering trailer-less files) and
    :meth:`~repro.evlog.writer.CachedLogWriter.open_resume` (reopening a
    torn file for appending).
    """
    chunks: list[ChunkInfo] = []
    offset = start
    while offset < len(buf):
        try:
            image, n, next_offset = read_chunk_at(buf, offset, compressed)
        except (LogTruncatedError, LogFormatError):
            break  # first damaged/incomplete chunk ends recovery
        rec = records_from_bytes(image)
        t_min = int(rec["start"].min()) if n else 0
        t_max = int(rec["stop"].max()) if n else 0
        chunks.append(
            ChunkInfo(offset=offset, n_records=n, t_min=t_min, t_max=t_max)
        )
        offset = next_offset
    return chunks, offset


class LogReader:
    """Reader for one EVL file.

    Parameters
    ----------
    path:
        The log file.
    strict:
        When true, a file without a valid trailer raises
        :class:`~repro.errors.LogTruncatedError`; when false (default) the
        reader recovers all intact chunks and exposes
        :attr:`recovered` = True.
    """

    def __init__(
        self, path: str | Path, strict: bool = False, use_mmap: bool = False
    ) -> None:
        """``use_mmap`` maps the file instead of reading it into memory —
        the right mode for the paper's multi-GB per-rank files, where a
        time-sliced read touches only the overlapping chunks' pages."""
        self.path = Path(path)
        self._mmap = None
        with self.path.open("rb") as fh:
            st = os.fstat(fh.fileno())
            #: which bytes this reader holds: ``(st_ino, st_size,
            #: st_mtime_ns)`` at open — a later open of the same path that
            #: reports another identity is reading a replaced file
            self.identity = (st.st_ino, st.st_size, st.st_mtime_ns)
            if use_mmap and st.st_size:  # a zero-length file cannot be mapped
                self._mmap = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                self._buf: bytes | memoryview = memoryview(self._mmap)
            else:
                self._buf = fh.read()
        self.recovered = False
        try:
            self.header: EvlHeader = unpack_header(self._buf)
            self.chunks: list[ChunkInfo] = self._read_index(strict)
        except BaseException:
            self.close()
            raise

    def _read_index(self, strict: bool) -> list[ChunkInfo]:
        trailer = unpack_trailer(self._buf)
        if trailer is None:
            if strict:
                raise LogTruncatedError(
                    f"{self.path}: no trailer (writer did not close)"
                )
            self.recovered = True
            chunks, _end = scan_intact_chunks(self._buf, self.header.compressed)
            return chunks
        index_offset, total = trailer
        chunks = unpack_index(self._buf, index_offset)
        declared = sum(c.n_records for c in chunks)
        if declared != total:
            raise LogFormatError(
                f"{self.path}: index declares {declared} records, "
                f"trailer says {total}"
            )
        return chunks

    def close(self) -> None:
        """Release the mmap (no-op for in-memory readers)."""
        if self._mmap is not None:
            if isinstance(self._buf, memoryview):
                self._buf.release()
            self._buf = b""
            self._mmap.close()
            self._mmap = None

    def rewritten_in_place(self) -> bool:
        """True once the file behind this reader changed under it: same
        inode, another size or mtime — a shared mapping then shows the new
        bytes, which the parsed index no longer describes.  A file that
        was unlinked, or replaced by a rename, leaves the held inode (and
        this reader) intact."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return False
        ino, size, mtime_ns = self.identity
        return st.st_ino == ino and (st.st_size, st.st_mtime_ns) != (size, mtime_ns)

    def __enter__(self) -> "LogReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- basic properties ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.header.rank

    @property
    def n_records(self) -> int:
        return sum(c.n_records for c in self.chunks)

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def file_bytes(self) -> int:
        return len(self._buf)

    # -- reading ----------------------------------------------------------------

    def _check_count(self, chunk: ChunkInfo, n: int) -> None:
        if n != chunk.n_records:
            raise LogFormatError(
                f"{self.path}: chunk at {chunk.offset} holds {n} records, "
                f"index says {chunk.n_records}"
            )

    def _image(self, chunk: ChunkInfo) -> tuple[bytes | memoryview, int]:
        """``(record image, next offset)`` of an indexed chunk, verified:
        framing, CRC, size, and count vs index."""
        image, n, end = read_chunk_at(
            self._buf, chunk.offset, self.header.compressed
        )
        if n != chunk.n_records:
            image = None  # a view on the mmap must not ride the traceback
        self._check_count(chunk, n)
        return image, end

    def _decode(self, chunk: ChunkInfo) -> LogRecordArray:
        return records_from_bytes(self._image(chunk)[0])

    def _walk(self, t0: int, t1: int, whole_file: bool) -> tuple[Columns, dict]:
        """The body of :func:`read_window_columns` on this reader's buffer."""
        columns = _empty_columns(
            sum(c.n_records for c in self.chunks if c.overlaps(t0, t1))
        )
        n = decoded = checked = records = bytes_crc = 0
        for chunk in self.chunks:
            if chunk.overlaps(t0, t1):
                image, end = self._image(chunk)
                # rec views the buffer (the mmap itself, for an
                # uncompressed file): both names die before any close
                rec = np.frombuffer(image, dtype=LOG_DTYPE)
                n = _append_window(rec, t0, t1, columns, n)
                del rec, image
                decoded += 1
                records += chunk.n_records
            elif whole_file:
                count, end = check_chunk_at(self._buf, chunk.offset)
                self._check_count(chunk, count)
                checked += 1
            else:
                continue
            bytes_crc += end - chunk.offset - CHUNK_HEADER_BYTES
        stats = {
            "chunks_decoded": decoded,
            "chunks_checked": checked,
            "bytes_crc": bytes_crc,
            "records_decoded": records,
            "records_kept": n,
        }
        return _clip_columns(columns, n, t0, t1), stats

    def iter_chunks(self) -> Iterator[LogRecordArray]:
        """Yield each chunk's records in file order (bounded memory)."""
        for chunk in self.chunks:
            yield self._decode(chunk)

    def read_all(self) -> LogRecordArray:
        """Read every record in the file as one structured array."""
        if not self.chunks:
            return empty_records(0)
        parts = [self._decode(c) for c in self.chunks]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def read_time_slice(self, t0: int, t1: int) -> LogRecordArray:
        """Records whose activity interval ``[start, stop)`` intersects
        ``[t0, t1)``, using the index to skip non-overlapping chunks."""
        if t1 <= t0:
            raise ValueError(f"empty time slice [{t0}, {t1})")
        parts = []
        for chunk in self.chunks:
            if not chunk.overlaps(t0, t1):
                continue
            rec = self._decode(chunk)
            mask = (rec["start"] < t1) & (rec["stop"] > t0)
            if mask.any():
                parts.append(rec[mask])
        if not parts:
            return empty_records(0)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def chunks_overlapping(self, t0: int, t1: int) -> int:
        """How many chunks the index keeps for a window (observability for
        the chunk-pruning benchmark)."""
        return sum(1 for c in self.chunks if c.overlaps(t0, t1))

    # -- integrity ----------------------------------------------------------------

    def check_crc(self) -> int:
        """CRC-verify every chunk's framing without decoding payloads.

        Returns the number of chunks checked; raises on the first damaged
        chunk — same failure classes as :meth:`verify`, at a fraction of
        the cost.
        """
        for chunk in self.chunks:
            n, _next = check_chunk_at(self._buf, chunk.offset)
            self._check_count(chunk, n)
        return len(self.chunks)

    def verify(self) -> int:
        """Decode every chunk, checking framing and CRCs end to end.

        Returns the verified record count.  Raises
        :class:`~repro.errors.LogCorruptError` /
        :class:`~repro.errors.LogTruncatedError` on the first damaged
        chunk — the check the quarantine scan runs before trusting a file
        of unknown provenance.
        """
        total = 0
        for chunk in self.chunks:
            total += len(self._decode(chunk))
        return total
