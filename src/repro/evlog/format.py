"""The EVL container format: header, chunks, index, trailer.

Layout (all integers little-endian)::

    +----------------------+
    | file header (24 B)   |  magic 'EVLG', version, flags, record size, rank
    +----------------------+
    | chunk 0              |  'CHNK' + counts + crc32 + payload
    | chunk 1              |
    | ...                  |
    +----------------------+
    | index                |  'INDX' + per-chunk (offset, n, tmin, tmax)
    +----------------------+
    | trailer (20 B)       |  index offset + total records + 'EVLE'
    +----------------------+

The index stores each chunk's **time envelope** — the minimum ``start`` and
maximum ``stop`` across its records — so a time-sliced read can skip chunks
that cannot overlap the query window, which is the "fast index-based read
performance" the paper gets from HDF5 chunking.

A file without a valid trailer (writer crashed before ``close``) is still
readable: chunks are self-delimiting and CRC-protected, so recovery scans
forward and keeps every intact chunk.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from ..errors import LogCorruptError, LogFormatError, LogTruncatedError
from .schema import RECORD_BYTES

__all__ = [
    "EVL_MAGIC",
    "EVL_VERSION",
    "FLAG_ZLIB",
    "EvlHeader",
    "ChunkInfo",
    "pack_header",
    "unpack_header",
    "pack_chunk",
    "read_chunk_at",
    "check_chunk_at",
    "pack_index",
    "unpack_index",
    "pack_trailer",
    "unpack_trailer",
    "pack_wal_header",
    "unpack_wal_header",
    "pack_wal_frame",
    "scan_wal_frames",
    "HEADER_BYTES",
    "CHUNK_HEADER_BYTES",
    "TRAILER_BYTES",
    "WAL_HEADER_BYTES",
    "WAL_FRAME_HEADER_BYTES",
]

EVL_MAGIC = b"EVLG"
CHUNK_MAGIC = b"CHNK"
INDEX_MAGIC = b"INDX"
TRAILER_MAGIC = b"EVLE"
WAL_MAGIC = b"EVLW"
WAL_FRAME_MAGIC = b"WREC"
EVL_VERSION = 1

FLAG_ZLIB = 0x0001

_HEADER = struct.Struct("<4sHHHHIQ")  # magic, version, flags, recsize, pad, rank, reserved
_CHUNK_HEADER = struct.Struct("<4sIII")  # magic, n_records, payload_bytes, crc32
_INDEX_HEADER = struct.Struct("<4sI")  # magic, n_chunks
_INDEX_ENTRY = struct.Struct("<QIII")  # offset, n_records, tmin, tmax
_TRAILER = struct.Struct("<QQ4s")  # index_offset, total_records, magic
_WAL_HEADER = struct.Struct("<4sHHI")  # magic, version, recsize, rank
_WAL_FRAME = struct.Struct("<4sQII")  # magic, base_record, n_records, crc32

HEADER_BYTES = _HEADER.size
CHUNK_HEADER_BYTES = _CHUNK_HEADER.size
TRAILER_BYTES = _TRAILER.size
WAL_HEADER_BYTES = _WAL_HEADER.size
WAL_FRAME_HEADER_BYTES = _WAL_FRAME.size


@dataclass(frozen=True)
class EvlHeader:
    """Parsed file header."""

    version: int
    flags: int
    record_bytes: int
    rank: int

    @property
    def compressed(self) -> bool:
        return bool(self.flags & FLAG_ZLIB)


@dataclass(frozen=True)
class ChunkInfo:
    """One index entry: where a chunk lives and its time envelope."""

    offset: int
    n_records: int
    t_min: int
    t_max: int

    def overlaps(self, t0: int, t1: int) -> bool:
        """Could any record interval [start, stop) intersect [t0, t1)?"""
        return self.t_min < t1 and self.t_max > t0


def pack_header(rank: int, compressed: bool) -> bytes:
    """Serialize the 24-byte file header."""
    flags = FLAG_ZLIB if compressed else 0
    return _HEADER.pack(EVL_MAGIC, EVL_VERSION, flags, RECORD_BYTES, 0, rank, 0)


def unpack_header(buf: bytes) -> EvlHeader:
    """Parse and validate the file header."""
    if len(buf) < HEADER_BYTES:
        raise LogTruncatedError("file shorter than EVL header")
    magic, version, flags, recsize, _pad, rank, _res = _HEADER.unpack_from(buf)
    if magic != EVL_MAGIC:
        raise LogFormatError(f"bad magic {magic!r}: not an EVL file")
    if version != EVL_VERSION:
        raise LogFormatError(f"unsupported EVL version {version}")
    if recsize != RECORD_BYTES:
        raise LogFormatError(
            f"record size {recsize} does not match schema ({RECORD_BYTES})"
        )
    return EvlHeader(version=version, flags=flags, record_bytes=recsize, rank=rank)


def pack_chunk(record_bytes_image: bytes, n_records: int, compress: bool) -> bytes:
    """Frame a chunk: header + (optionally compressed) payload."""
    payload = zlib.compress(record_bytes_image, 6) if compress else record_bytes_image
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _CHUNK_HEADER.pack(CHUNK_MAGIC, n_records, len(payload), crc) + payload


def _checked_frame(buf: bytes | memoryview, offset: int) -> tuple[int, int, int]:
    """Framing + CRC of the chunk at *offset*; no copy, no decode.

    Returns ``(n_records, payload_start, payload_end)``.  The CRC runs over
    a view that is released before this returns or raises — a view kept
    alive by a propagating traceback would pin the owner's mmap open.
    """
    start = offset + CHUNK_HEADER_BYTES
    if start > len(buf):
        raise LogTruncatedError("chunk header extends past end of file")
    magic, n_records, payload_bytes, crc = _CHUNK_HEADER.unpack_from(buf, offset)
    if magic != CHUNK_MAGIC:
        raise LogFormatError(f"expected chunk at offset {offset}, found {magic!r}")
    end = start + payload_bytes
    if end > len(buf):
        raise LogTruncatedError("chunk payload extends past end of file")
    with memoryview(buf)[start:end] as payload:
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise LogCorruptError(f"chunk at offset {offset} failed CRC check")
    return n_records, start, end


def read_chunk_at(
    buf: bytes | memoryview, offset: int, compressed: bool
) -> tuple[bytes | memoryview, int, int]:
    """Read the chunk at *offset*.

    Returns ``(record_bytes_image, n_records, next_offset)``.  For an
    uncompressed file the image is a view into *buf* (no payload copy) —
    drop it, and anything built on it, before the buffer's owner closes;
    a compressed file's image is its ``zlib.decompress`` output.

    Raises :class:`LogTruncatedError` if the chunk extends past the end of
    the buffer and :class:`LogCorruptError` on a CRC mismatch.
    """
    n_records, start, end = _checked_frame(buf, offset)
    if compressed:
        with memoryview(buf)[start:end] as payload:
            image = zlib.decompress(payload)
        image_bytes = len(image)
    else:
        image_bytes = end - start
    if image_bytes != n_records * RECORD_BYTES:
        raise LogCorruptError(
            f"chunk at offset {offset} declares {n_records} records but "
            f"payload decodes to {image_bytes} bytes"
        )
    if not compressed:
        # created last: no error path above can leave the view alive
        image = memoryview(buf)[start:end]
    return image, n_records, end


def check_chunk_at(buf: bytes | memoryview, offset: int) -> tuple[int, int]:
    """CRC-verify the chunk at *offset* without decoding its payload.

    Returns ``(n_records, next_offset)`` — framing + CRC catch truncation
    and bit rot at a fraction of a decode's cost.
    """
    n_records, _start, end = _checked_frame(buf, offset)
    return n_records, end


def pack_index(chunks: list[ChunkInfo]) -> bytes:
    """Serialize the chunk index (offset, count, time envelope per chunk)."""
    parts = [_INDEX_HEADER.pack(INDEX_MAGIC, len(chunks))]
    parts.extend(
        _INDEX_ENTRY.pack(c.offset, c.n_records, c.t_min, c.t_max) for c in chunks
    )
    return b"".join(parts)


def unpack_index(buf: bytes | memoryview, offset: int) -> list[ChunkInfo]:
    """Parse the chunk index at *offset*."""
    if offset + _INDEX_HEADER.size > len(buf):
        raise LogTruncatedError("index header extends past end of file")
    magic, n_chunks = _INDEX_HEADER.unpack_from(buf, offset)
    if magic != INDEX_MAGIC:
        raise LogFormatError(f"expected index at offset {offset}, found {magic!r}")
    pos = offset + _INDEX_HEADER.size
    need = pos + n_chunks * _INDEX_ENTRY.size
    if need > len(buf):
        raise LogTruncatedError("index entries extend past end of file")
    chunks = []
    for _ in range(n_chunks):
        off, n, tmin, tmax = _INDEX_ENTRY.unpack_from(buf, pos)
        chunks.append(ChunkInfo(offset=off, n_records=n, t_min=tmin, t_max=tmax))
        pos += _INDEX_ENTRY.size
    return chunks


def pack_trailer(index_offset: int, total_records: int) -> bytes:
    """Serialize the 20-byte trailer locating the index."""
    return _TRAILER.pack(index_offset, total_records, TRAILER_MAGIC)


def unpack_trailer(buf: bytes | memoryview) -> tuple[int, int] | None:
    """Parse the trailer; returns ``(index_offset, total_records)`` or
    ``None`` if the file has no valid trailer (truncated write)."""
    if len(buf) < HEADER_BYTES + TRAILER_BYTES:
        return None
    index_offset, total_records, magic = _TRAILER.unpack_from(
        buf, len(buf) - TRAILER_BYTES
    )
    if magic != TRAILER_MAGIC:
        return None
    if index_offset < HEADER_BYTES or index_offset > len(buf) - TRAILER_BYTES:
        return None
    return index_offset, total_records


# -- write-ahead log sidecar --------------------------------------------------
#
# The WAL journals the writer's un-chunked cache records to ``<file>.wal``:
# one CRC-framed append per logging call, fsynced before the call returns.
# Each frame carries ``base_record`` — how many records preceded it in the
# writer's lifetime — so salvage can compute exactly which frame rows are
# missing from the main file's intact chunks, even when a crash lands
# between a chunk commit and the WAL reset that follows it.


def pack_wal_header(rank: int) -> bytes:
    """Serialize the 12-byte WAL sidecar header."""
    return _WAL_HEADER.pack(WAL_MAGIC, EVL_VERSION, RECORD_BYTES, rank)


def unpack_wal_header(buf: bytes | memoryview) -> int:
    """Validate a WAL header; returns the writer rank."""
    if len(buf) < WAL_HEADER_BYTES:
        raise LogTruncatedError("sidecar shorter than WAL header")
    magic, version, recsize, rank = _WAL_HEADER.unpack_from(buf)
    if magic != WAL_MAGIC:
        raise LogFormatError(f"bad magic {magic!r}: not an EVL WAL sidecar")
    if version != EVL_VERSION:
        raise LogFormatError(f"unsupported WAL version {version}")
    if recsize != RECORD_BYTES:
        raise LogFormatError(
            f"WAL record size {recsize} does not match schema ({RECORD_BYTES})"
        )
    return rank


def pack_wal_frame(record_bytes_image: bytes, base_record: int) -> bytes:
    """Frame one journal append (never compressed: latency over size)."""
    n_records, rem = divmod(len(record_bytes_image), RECORD_BYTES)
    if rem:
        raise LogFormatError("WAL frame payload is not whole records")
    crc = zlib.crc32(record_bytes_image) & 0xFFFFFFFF
    return (
        _WAL_FRAME.pack(WAL_FRAME_MAGIC, base_record, n_records, crc)
        + record_bytes_image
    )


def scan_wal_frames(buf: bytes | memoryview) -> list[tuple[int, bytes]]:
    """Recover ``(base_record, record_bytes_image)`` for every intact frame.

    Scans forward from the WAL header and stops silently at the first torn
    or corrupt frame — a kill mid-append leaves exactly such a tail, and
    everything before it was acknowledged.  A sidecar too short for its
    header yields no frames.
    """
    frames: list[tuple[int, bytes]] = []
    try:
        unpack_wal_header(buf)
    except (LogTruncatedError, LogFormatError):
        return frames
    offset = WAL_HEADER_BYTES
    while offset + WAL_FRAME_HEADER_BYTES <= len(buf):
        magic, base, n_records, crc = _WAL_FRAME.unpack_from(buf, offset)
        if magic != WAL_FRAME_MAGIC:
            break
        start = offset + WAL_FRAME_HEADER_BYTES
        end = start + n_records * RECORD_BYTES
        if end > len(buf):
            break
        payload = bytes(buf[start:end])
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            break
        frames.append((base, payload))
        offset = end
    return frames
