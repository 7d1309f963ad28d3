"""Cached per-rank log writer.

Mirrors the paper's logging architecture: "a static logger instance is
created for each process ... Each logger stores entries in memory in a
cache that is implemented as a 2D integer array.  The log cache size is
variable although a nominal size of 10,000 log entries is used ... A
smaller cache will reduce memory usage but will result in more individual
write operations ... a larger cache will require more memory but will
provide a speed tradeoff as fewer write operations are required."

The cache here is literally a ``(cache_records, 5)`` uint32 array; a full
cache is framed as one chunk and appended to the file in a single write,
the EVL equivalent of HDF5's chunked dataset append.

Durability
----------
The cache is also the failure window: a rank killed between flushes loses
up to ``cache_records`` acknowledged records.  :class:`DurabilityPolicy`
trades write cost against that window:

* ``NONE`` — the paper's behavior: buffered writes, up to a full cache of
  records at risk, minimum cost.
* ``FSYNC`` — every flushed chunk is fsynced; only the un-flushed cache is
  at risk.
* ``WAL`` — every logging call is journaled to a CRC-framed ``.wal``
  sidecar and fsynced before it returns, so a hard kill (SIGKILL, OOM,
  node loss) loses **zero** acknowledged records; the sidecar is reset at
  each chunk commit so it stays bounded by the cache size.

:meth:`CachedLogWriter.open_resume` reopens a torn file — intact chunks
are kept, the WAL tail is salvaged, and appending continues — making
per-rank log files restartable across crashes.

Telemetry
---------
Recorded per flush and per file write, never per batch: counters
``evlog.records_written`` (records committed in chunks) and
``evlog.bytes_written`` (every byte appended to a log file: header,
chunks, index, trailer) and the histogram ``evlog.flush_seconds``; on the
durability paths that do them, ``evlog.fsync_seconds`` (one per fsync)
and ``evlog.wal_append_seconds`` (one per journal frame, its fsync
included).
"""

from __future__ import annotations

import enum
import io
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType

import numpy as np

from ..errors import LogFormatError
from ..obs import count, observe
from .format import (
    ChunkInfo,
    chunk_frame,
    pack_header,
    pack_index,
    pack_trailer,
    pack_wal_frame,
    pack_wal_header,
    scan_wal_frames,
    unpack_header,
    unpack_index,
    unpack_trailer,
)
from .schema import LOG_DTYPE, LOG_FIELDS, RECORD_BYTES, LogRecordArray

__all__ = ["CachedLogWriter", "WriterStats", "DurabilityPolicy"]

DEFAULT_CACHE_RECORDS = 10_000

#: what a raw record row batch is: ``(n, 5)`` uint32, ``LOG_FIELDS`` order
_ROW_DTYPE = np.dtype(np.uint32)
_ROW_SHAPE = (len(LOG_FIELDS),)


class DurabilityPolicy(str, enum.Enum):
    """How much of the cache-size failure window to close (see module doc)."""

    NONE = "none"
    FSYNC = "fsync"
    WAL = "wal"

    @classmethod
    def coerce(cls, value: "DurabilityPolicy | str") -> "DurabilityPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise LogFormatError(
                f"unknown durability policy {value!r}; "
                f"expected one of {[p.value for p in cls]}"
            ) from None


@dataclass
class WriterStats:
    """Observable cost counters for the cache-size tradeoff experiments."""

    records: int = 0
    flushes: int = 0
    bytes_written: int = 0
    cache_records: int = 0
    cache_bytes: int = field(init=False, default=0)
    #: fsync calls issued (chunk commits and WAL appends)
    fsyncs: int = 0
    #: journal frames appended to the WAL sidecar
    wal_frames: int = 0
    #: journal bytes written to the WAL sidecar
    wal_bytes: int = 0
    #: acknowledged records recovered from a torn file by ``open_resume``
    salvaged_records: int = 0

    def __post_init__(self) -> None:
        self.cache_bytes = self.cache_records * RECORD_BYTES

    def records_at_risk(self, durability: "DurabilityPolicy") -> int:
        """Worst-case acknowledged records a hard kill loses right now."""
        if durability is DurabilityPolicy.WAL:
            return 0
        return self.cache_records


def wal_sidecar_path(path: str | Path) -> Path:
    """The WAL sidecar filename for an EVL file: ``rank_0000.evl.wal``."""
    path = Path(path)
    return path.with_name(path.name + ".wal")


class CachedLogWriter:
    """Append-only EVL writer with a bounded in-memory record cache.

    Parameters
    ----------
    path:
        Output file; created/truncated on open.
    rank:
        Id of the owning process, stored in the header (one file per rank).
    cache_records:
        Cache capacity in records; a full cache triggers one chunk write.
    compress:
        zlib-compress chunk payloads (smaller files, more CPU).
    durability:
        A :class:`DurabilityPolicy` (or its string value) bounding how many
        acknowledged records a hard kill can lose.

    Use as a context manager; the index and trailer are written on
    :meth:`close`.  A writer that dies before ``close`` leaves a file that
    :class:`~repro.evlog.reader.LogReader` can still recover chunk-by-chunk
    and that :meth:`open_resume` can reopen for appending.
    """

    def __init__(
        self,
        path: str | Path,
        rank: int = 0,
        cache_records: int = DEFAULT_CACHE_RECORDS,
        compress: bool = False,
        durability: DurabilityPolicy | str = DurabilityPolicy.NONE,
    ) -> None:
        if cache_records < 1:
            raise LogFormatError("cache_records must be >= 1")
        if rank < 0:
            raise LogFormatError("rank must be >= 0")
        self.path = Path(path)
        self.rank = rank
        self.compress = compress
        self.cache_records = cache_records
        self.durability = DurabilityPolicy.coerce(durability)
        self._cache = np.empty((cache_records, len(LOG_FIELDS)), dtype=np.uint32)
        self._fill = 0
        self._chunks: list[ChunkInfo] = []
        self._file: io.BufferedWriter | None = self.path.open("wb")
        self._wal_file: io.BufferedWriter | None = None
        self._offset = 0
        self.stats = WriterStats(cache_records=cache_records)
        self._write(pack_header(rank, compress))
        if self.durability is DurabilityPolicy.WAL:
            self._open_wal()

    @property
    def wal_path(self) -> Path:
        return wal_sidecar_path(self.path)

    @property
    def offset(self) -> int:
        """Current append position in bytes.

        Immediately after :meth:`flush` this is a chunk boundary — the
        value a checkpoint records so :meth:`open_resume` can truncate the
        file back to this exact commit point (``at_offset``)."""
        return self._offset

    # -- plumbing -----------------------------------------------------------

    def _write(self, *parts: bytes | memoryview) -> None:
        assert self._file is not None
        size = 0
        for buf in parts:
            self._file.write(buf)
            size += len(buf)
        self._offset += size
        self.stats.bytes_written += size
        count("evlog.bytes_written", size)

    def _require_open(self) -> None:
        if self._file is None:
            raise LogFormatError(f"writer for {self.path} is closed")

    def _sync(self, fh: io.BufferedWriter) -> None:
        tic = time.perf_counter()
        fh.flush()
        os.fsync(fh.fileno())
        self.stats.fsyncs += 1
        observe("evlog.fsync_seconds", time.perf_counter() - tic)

    def _open_wal(self) -> None:
        """(Re)create the sidecar with a fresh header, durably."""
        self._wal_file = self.wal_path.open("wb")
        self._wal_file.write(pack_wal_header(self.rank))
        self._sync(self._wal_file)

    def _journal(self, image: bytes, base_record: int) -> None:
        """Durably append one frame of acknowledged records to the WAL."""
        if self._wal_file is None:
            return
        tic = time.perf_counter()
        frame = pack_wal_frame(image, base_record)
        self._wal_file.write(frame)
        self._sync(self._wal_file)
        self.stats.wal_frames += 1
        self.stats.wal_bytes += len(frame)
        observe("evlog.wal_append_seconds", time.perf_counter() - tic)

    def _reset_wal(self) -> None:
        """Discard journaled frames now secured in a committed chunk."""
        assert self._wal_file is not None
        self._wal_file.seek(0)
        self._wal_file.truncate()
        self._wal_file.write(pack_wal_header(self.rank))
        self._sync(self._wal_file)

    # -- logging API --------------------------------------------------------

    def log(
        self, start: int, stop: int, person: int, activity: int, place: int
    ) -> None:
        """Append one activity-change record (hot path, scalar).

        Under ``WAL`` durability every scalar call costs a journal fsync;
        prefer :meth:`log_batch`, which journals a whole batch per fsync.
        """
        self._require_open()
        if stop <= start:
            raise LogFormatError(f"stop ({stop}) must exceed start ({start})")
        row = self._cache[self._fill]
        row[0] = start
        row[1] = stop
        row[2] = person
        row[3] = activity
        row[4] = place
        if self._wal_file is not None:
            self._journal(
                np.ascontiguousarray(row).tobytes(), self.stats.records
            )
        self._fill += 1
        self.stats.records += 1
        if self._fill == self.cache_records:
            self.flush()

    def log_batch(self, records: LogRecordArray | np.ndarray) -> None:
        """Append a batch of records (vectorized path).

        ``records`` is a ``LOG_DTYPE`` array or its raw image: ``(n, 5)``
        uint32 rows in ``LOG_FIELDS`` order, which is what the rank step
        hands over — validated in one pass and copied once, into the
        cache, with no structured view.  Fills the cache in slices so
        flush boundaries behave exactly as if the records had been logged
        one by one.  The batch is validated as a unit before any record
        enters the cache; under ``WAL`` durability each cache slice is
        journaled just before insertion (a slice that triggers a flush is
        secured by its chunk, and the WAL reset must not discard coverage
        of the batch's still-cached tail).
        """
        self._require_open()
        flat = records
        if not (
            isinstance(flat, np.ndarray)
            and (flat.dtype is _ROW_DTYPE or flat.dtype == _ROW_DTYPE)
            and flat.shape[1:] == _ROW_SHAPE
        ):
            records = np.asarray(records)
            if records.dtype != LOG_DTYPE:
                raise LogFormatError(
                    f"log_batch expects dtype {LOG_DTYPE} or (n, "
                    f"{len(LOG_FIELDS)}) uint32 rows, got {records.dtype} "
                    f"{records.shape}"
                )
            flat = (
                np.ascontiguousarray(records)
                .view(np.uint32)
                .reshape(-1, len(LOG_FIELDS))
            )
        # count_nonzero, not .any(): a third of the cost on a short batch
        if np.count_nonzero(flat[:, 1] <= flat[:, 0]):
            raise LogFormatError("log records require stop > start")
        n = len(flat)
        fill = self._fill
        if self._wal_file is None and fill + n < self.cache_records:
            # the common case: the batch fits without reaching a flush
            self._cache[fill : fill + n] = flat
            self._fill = fill + n
            self.stats.records += n
            return
        pos = 0
        while pos < n:
            take = min(n - pos, self.cache_records - self._fill)
            if self._wal_file is not None:
                self._journal(
                    flat[pos : pos + take].tobytes(), self.stats.records
                )
            self._cache[self._fill : self._fill + take] = flat[pos : pos + take]
            self._fill += take
            pos += take
            self.stats.records += take
            if self._fill == self.cache_records:
                self.flush()

    def flush(self) -> None:
        """Write the cached records (if any) as one chunk.

        Under ``FSYNC``/``WAL`` durability the chunk is fsynced; under
        ``WAL`` the sidecar is then reset, since its frames are now secured
        in the main file.
        """
        self._require_open()
        if self._fill == 0:
            return
        tic = time.perf_counter()
        block = self._cache[: self._fill]
        t_min = int(block[:, 0].min())
        t_max = int(block[:, 1].max())
        chunk_offset = self._offset
        # the cache's own bytes (a prefix of a C-contiguous array): framed,
        # CRC'd and written with no copy
        self._write(
            *chunk_frame(memoryview(block).cast("B"), self._fill, self.compress)
        )
        if self.durability is not DurabilityPolicy.NONE:
            assert self._file is not None
            self._sync(self._file)
        self._chunks.append(
            ChunkInfo(
                offset=chunk_offset,
                n_records=self._fill,
                t_min=t_min,
                t_max=t_max,
            )
        )
        self.stats.flushes += 1
        count("evlog.records_written", self._fill)
        self._fill = 0
        if self._wal_file is not None:
            self._reset_wal()
        observe("evlog.flush_seconds", time.perf_counter() - tic)

    def close(self) -> WriterStats:
        """Flush, write index + trailer, and close the file.

        A cleanly closed file needs no journal: the WAL sidecar is removed.
        """
        if self._file is None:
            return self.stats
        self.flush()
        index_offset = self._offset
        self._write(pack_index(self._chunks))
        self._write(pack_trailer(index_offset, self.stats.records))
        if self.durability is not DurabilityPolicy.NONE:
            self._sync(self._file)
        self._file.close()
        self._file = None
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None
            self.wal_path.unlink(missing_ok=True)
        return self.stats

    # -- crash recovery ------------------------------------------------------

    @classmethod
    def open_resume(
        cls,
        path: str | Path,
        cache_records: int = DEFAULT_CACHE_RECORDS,
        durability: DurabilityPolicy | str = DurabilityPolicy.NONE,
        rank: int = 0,
        at_offset: int | None = None,
    ) -> "CachedLogWriter":
        """Reopen an EVL file for appending, salvaging a torn tail.

        The file is scanned for intact chunks (a valid index/trailer, if
        present, is consumed and stripped — appending resumes after the
        last chunk).  Any acknowledged records found only in the WAL
        sidecar are re-appended and immediately committed as a chunk, so
        they never lose durability protection across the resume; the count
        is reported in ``stats.salvaged_records``.

        Parameters
        ----------
        at_offset:
            Restore to an exact prior commit point instead of salvaging:
            the file is truncated to this byte offset (which must be a
            chunk boundary recorded after a flush) and the WAL sidecar is
            discarded — the checkpoint, not the journal, is the authority.
            This is what makes checkpointed runs bit-for-bit resumable.
        rank:
            Used only when *path* does not exist yet (fresh start during a
            recovery that never checkpointed); an existing header wins.
        """
        path = Path(path)
        durability = DurabilityPolicy.coerce(durability)
        if not path.is_file():
            if at_offset is not None:
                raise LogFormatError(
                    f"cannot restore {path} to offset {at_offset}: no file"
                )
            return cls(
                path,
                rank=rank,
                cache_records=cache_records,
                durability=durability,
            )

        buf = path.read_bytes()
        header = unpack_header(buf)
        trailer = unpack_trailer(buf)
        if trailer is not None:
            index_offset, _total = trailer
            chunks = unpack_index(buf, index_offset)
            data_end = index_offset
        else:
            from .reader import scan_intact_chunks

            chunks, data_end = scan_intact_chunks(buf, header.compressed)

        salvage_rows: np.ndarray | None = None
        sidecar = wal_sidecar_path(path)
        if at_offset is not None:
            boundaries = {c.offset for c in chunks} | {data_end}
            if at_offset not in boundaries:
                raise LogFormatError(
                    f"{path}: offset {at_offset} is not a chunk boundary; "
                    "refusing to truncate mid-chunk"
                )
            chunks = [c for c in chunks if c.offset < at_offset]
            data_end = at_offset
        elif sidecar.is_file():
            in_chunks = sum(c.n_records for c in chunks)
            frames = scan_wal_frames(sidecar.read_bytes())
            missing: list[np.ndarray] = []
            for base, image in frames:
                rows = np.frombuffer(image, dtype=np.uint32).reshape(
                    -1, len(LOG_FIELDS)
                )
                # rows [base, base + n) minus those already inside chunks
                skip = max(0, in_chunks - base)
                if skip < len(rows):
                    missing.append(rows[skip:])
                    in_chunks = base + len(rows)
            if missing:
                salvage_rows = np.concatenate(missing)

        writer = cls.__new__(cls)
        writer.path = path
        writer.rank = header.rank
        writer.compress = header.compressed
        writer.cache_records = cache_records
        writer.durability = durability
        writer._cache = np.empty(
            (cache_records, len(LOG_FIELDS)), dtype=np.uint32
        )
        writer._fill = 0
        writer._chunks = list(chunks)
        writer._wal_file = None
        fh = path.open("r+b")
        fh.truncate(data_end)
        fh.seek(data_end)
        writer._file = fh
        writer._offset = data_end
        writer.stats = WriterStats(cache_records=cache_records)
        writer.stats.records = sum(c.n_records for c in chunks)

        if salvage_rows is not None:
            # re-append through the normal path (WAL not yet open, so no
            # double journaling), then commit as a chunk before touching
            # the old sidecar — the salvaged records never go unprotected.
            writer.log_batch(salvage_rows)
            writer.flush()
            if writer.durability is not DurabilityPolicy.NONE:
                writer._sync(fh)
            writer.stats.salvaged_records = len(salvage_rows)
        sidecar.unlink(missing_ok=True)
        if writer.durability is DurabilityPolicy.WAL:
            writer._open_wal()
        return writer

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "CachedLogWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is None:
            self.close()
        elif self._file is not None:
            # on error, best-effort flush the buffered records and write
            # the index/trailer — crashing with a clean file beats silently
            # discarding up to a whole cache of acknowledged records
            try:
                self.close()
            except Exception:
                # fall back to leaving a truncated-but-recoverable file;
                # never mask the original exception
                if self._file is not None:
                    self._file.close()
                    self._file = None
                if self._wal_file is not None:
                    self._wal_file.close()
                    self._wal_file = None
