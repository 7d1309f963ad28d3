"""Per-rank log directories and batched multi-file iteration.

A distributed run produces one EVL file per rank ("this scenario generates
64 log files which can then be easily loaded ... in an iterative or batch
fashion").  :class:`LogSet` wraps such a directory and reproduces the
paper's batch processing: the synthesis script processes "batches of 16
files at a time", each batch independent of the others.

Quarantine
----------
At cluster scale, one rank file out of hundreds may be truncated (a writer
killed mid-flush) or corrupted (a bad disk block flipping bits under a
CRC).  A multi-hour synthesis run should not die for one bad input: the
quarantine helpers here read each file under full verification and report
damaged files instead of raising, so the pipeline can skip exactly the bad
files and record them in its :class:`~repro.core.pipeline.SynthesisReport`.
Strict mode (raise on the first bad file) remains available.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..errors import LogFormatError
from .reader import LogReader
from .schema import LogRecordArray, empty_records
from .writer import CachedLogWriter, wal_sidecar_path

__all__ = [
    "LogSet",
    "rank_log_path",
    "write_rank_logs",
    "try_read_time_slice",
    "salvage_rank_logs",
]


def try_read_time_slice(
    path: str | Path, t0: int, t1: int
) -> tuple[LogRecordArray | None, str | None]:
    """Fully-verified time-sliced read of one EVL file.

    Returns ``(records, None)`` on success or ``(None, reason)`` when the
    file is unusable (missing trailer, framing damage, CRC mismatch).  The
    whole file is CRC-verified, not just the chunks overlapping the window,
    so a file is deterministically either good or quarantined regardless of
    the query window.
    """
    try:
        reader = LogReader(path, strict=True)
        reader.verify()
        return reader.read_time_slice(t0, t1), None
    except LogFormatError as exc:
        return None, f"{type(exc).__name__}: {exc}"


_RANK_FILE_RE = re.compile(r"^rank_(\d+)\.evl$")


def rank_log_path(directory: str | Path, rank: int) -> Path:
    """Canonical per-rank log filename: ``rank_0007.evl``."""
    return Path(directory) / f"rank_{rank:04d}.evl"


def write_rank_logs(
    directory: str | Path,
    per_rank_records: Sequence[LogRecordArray],
    cache_records: int = 10_000,
    compress: bool = False,
) -> list[Path]:
    """Write one EVL file per rank from in-memory record arrays.

    Convenience for tests; the rank step writes through per-rank
    :class:`CachedLogWriter` instances directly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for rank, records in enumerate(per_rank_records):
        path = rank_log_path(directory, rank)
        with CachedLogWriter(
            path, rank=rank, cache_records=cache_records, compress=compress
        ) as writer:
            writer.log_batch(records)
        paths.append(path)
    return paths


def salvage_rank_logs(directory: str | Path) -> list[tuple[Path, int]]:
    """Repair every torn ``rank_NNNN.evl`` file in *directory* in place.

    A file is torn when its writer died before ``close``: it has no valid
    trailer, and under WAL durability it may have a ``.wal`` sidecar with
    acknowledged records that never made it into a chunk.  Each torn file
    is reopened with :meth:`CachedLogWriter.open_resume` (which salvages
    intact chunks plus the WAL tail) and cleanly closed, leaving a valid
    EVL file that strict readers accept.

    Returns ``(path, salvaged_wal_records)`` for every file that was
    repaired; files already cleanly closed (and without a stale sidecar)
    are untouched.  This is the recovery step a supervisor runs before
    feeding a crashed run's log directory to synthesis.
    """
    directory = Path(directory)
    repaired: list[tuple[Path, int]] = []
    for path in sorted(directory.iterdir()):
        if not _RANK_FILE_RE.match(path.name):
            continue
        needs_repair = wal_sidecar_path(path).is_file()
        if not needs_repair:
            try:
                LogReader(path, strict=True)
            except LogFormatError:
                needs_repair = True
        if not needs_repair:
            continue
        writer = CachedLogWriter.open_resume(path)
        stats = writer.close()
        repaired.append((path, stats.salvaged_records))
    return repaired


class LogSet:
    """A directory of per-rank EVL files.

    Files are discovered by the ``rank_NNNN.evl`` pattern and ordered by
    rank.  All multi-file reads are per-file (bounded memory) unless the
    caller asks for a concatenated load.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise LogFormatError(f"{self.directory} is not a directory")
        found: list[tuple[int, Path]] = []
        for path in self.directory.iterdir():
            m = _RANK_FILE_RE.match(path.name)
            if m:
                found.append((int(m.group(1)), path))
        found.sort()
        if not found:
            raise LogFormatError(f"no rank_NNNN.evl files in {self.directory}")
        self.paths = [p for _, p in found]
        self.ranks = [r for r, _ in found]

    def __len__(self) -> int:
        return len(self.paths)

    def reader(self, index: int) -> LogReader:
        return LogReader(self.paths[index])

    def iter_readers(self) -> Iterator[LogReader]:
        for path in self.paths:
            yield LogReader(path)

    def batches(self, batch_size: int) -> Iterator[list[Path]]:
        """File batches, the paper's unit of independent synthesis jobs."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for i in range(0, len(self.paths), batch_size):
            yield self.paths[i : i + batch_size]

    def total_records(self) -> int:
        return sum(r.n_records for r in self.iter_readers())

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.paths)

    def read_all(self) -> LogRecordArray:
        """Concatenate every record from every rank file."""
        parts = [r.read_all() for r in self.iter_readers()]
        parts = [p for p in parts if len(p)]
        if not parts:
            return empty_records(0)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def read_time_slice(
        self,
        t0: int,
        t1: int,
        on_error: str = "raise",
        quarantined: list[tuple[Path, str]] | None = None,
    ) -> LogRecordArray:
        """Time-sliced records across all rank files.

        ``on_error='raise'`` (default) propagates the first
        :class:`~repro.errors.LogFormatError`; ``on_error='skip'`` reads
        each file under full verification, skips damaged files, and appends
        ``(path, reason)`` for each to *quarantined* when given.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        parts = []
        for path in self.paths:
            if on_error == "skip":
                rec, reason = try_read_time_slice(path, t0, t1)
                if rec is None:
                    if quarantined is not None:
                        quarantined.append((path, reason or "unreadable"))
                    continue
            else:
                rec = LogReader(path).read_time_slice(t0, t1)
            if len(rec):
                parts.append(rec)
        if not parts:
            return empty_records(0)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def quarantine_scan(self) -> list[tuple[Path, str]]:
        """Verify every file end to end; return ``(path, reason)`` for each
        damaged one.  An empty list means the whole directory is clean."""
        bad: list[tuple[Path, str]] = []
        for path in self.paths:
            try:
                LogReader(path, strict=True).verify()
            except LogFormatError as exc:
                bad.append((path, f"{type(exc).__name__}: {exc}"))
        return bad
