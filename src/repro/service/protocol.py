"""Wire protocol for the network-query service: length-prefixed JSON frames.

One frame is::

    +----------------+---------------------+----------------------+
    | 4-byte big-    | JSON header         | optional binary blob |
    | endian length  | (``length`` bytes)  | (``blob_len`` bytes) |
    +----------------+---------------------+----------------------+

The header is a JSON object; when it carries ``blob_len > 0``, exactly
that many raw bytes follow (responses use the blob to ship CSR matrices
as raw array buffers, see *Blob layout* below).  Requests are pure JSON.

Length-prefixed framing (rather than HTTP) keeps the hot path to two
``readexactly`` calls per message and makes malformed input *detectable*:
a length prefix outside ``(0, max_frame]`` or a non-JSON header raises
:class:`~repro.errors.FrameError`, and because a broken frame loses the
stream's phase, the server answers once and closes that connection.

Requests
--------
``{"op": ..., "id": ..., "tenant": ..., **params}`` — ``id`` is echoed
verbatim in the response so clients can pipeline requests; ``tenant``
(default ``"anon"``) selects the admission-control ledger.  An optional
``deadline`` (a number: the client's remaining budget in *seconds*,
relative so clock skew cannot bite) bounds the request server-side —
work the server cannot finish in time is rejected, never silently
queued.  An optional ``trace`` object (``{"trace_id", "span_id"}``,
see :class:`repro.obs.TraceContext`) parents the server's request span
to the caller's trace; the resolved trace id comes back as
``trace_id`` in the response.  Ops:

========== ===========================================================
``ping``     liveness probe (echoes ``draining``)
``live``     liveness detail: lifecycle state + uptime
``ready``    readiness verdict + reasons (load-balancer probe)
``window``   ``t0, t1`` → full-network CSR for the window (blob)
``layer``    ``kind, t0, t1`` → one place-kind layer's CSR (blob)
``ego``      ``person, t0, t1 [, radius]`` → induced ego subgraph (blob)
``degrees``  ``t0, t1 [, kind]`` → degree summary + histogram (JSON)
``stats``    server + cache counters (JSON)
``metrics``  process metrics-registry snapshot (JSON)
``shutdown`` begin graceful drain (admin)
========== ===========================================================

Responses
---------
``{"id", "ok": true, ...}`` on success.  On failure ``ok`` is false and
``error`` / ``code`` describe why; ``code="admission"`` (one tenant over
budget) and ``code="overload"`` (server-wide load shed) additionally
carry ``retry_after`` (seconds) and mean the query was not executed and
may be retried verbatim.  ``code="expired"`` means the deadline had
already passed when the request was dispatched (rejected, never run);
``code="deadline"`` means it ran out mid-flight.

Blob layout
-----------
A CSR reply is self-describing and uncompressed::

    +---------+----------------+------------------+----------------------+
    | b"RCSR" | 4-byte big-    | JSON table of    | the arrays' bytes,   |
    |         | endian length  | contents         | back to back         |
    +---------+----------------+------------------+----------------------+

The table of contents is a list of ``[name, dtype, shape]`` entries in
payload order; ``dtype`` is a numpy type string from a fixed allow-list
of little-endian bool/int/uint/float types (no object dtypes, so nothing
is ever unpickled) and each array occupies exactly ``prod(shape) *
itemsize`` C-ordered bytes.  A matrix ships as ``data`` / ``indices`` /
``indptr`` / ``shape`` plus named extras (``window`` for a network;
``persons`` / ``center`` / ``radius`` for an ego subgraph).  Encoding is
one ``b"".join`` over the arrays' own buffers and decoding is one
bounds-checked copy per array, so values and dtypes round-trip
bit-identically (a big-endian input is shipped, and comes back,
little-endian).  The decoder is the boundary for outside input: whatever
is wrong with a blob, it raises :class:`~repro.errors.FrameError`.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..core.network import CollocationNetwork
from ..errors import FrameError, SynthesisError

__all__ = [
    "MAX_FRAME",
    "DEFAULT_PORT",
    "read_frame",
    "write_frame",
    "encode_network",
    "decode_network",
    "encode_csr",
    "decode_csr",
]

#: default cap on one frame's header *and* blob size (64 MiB each)
MAX_FRAME = 64 << 20
DEFAULT_PORT = 7227


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME
) -> tuple[dict, bytes]:
    """Read one ``(header, blob)`` frame.

    Raises :class:`FrameError` on a malformed frame (bad length, bad
    JSON, non-object header, bad ``blob_len``) and lets
    ``asyncio.IncompleteReadError`` / connection errors propagate for a
    peer that simply went away.
    """
    head = await reader.readexactly(4)
    length = int.from_bytes(head, "big")
    if not 0 < length <= max_frame:
        raise FrameError(
            f"frame length {length} outside (0, {max_frame}]"
        )
    payload = await reader.readexactly(length)
    try:
        header = json.loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameError("frame header must be a JSON object")
    blob_len = header.get("blob_len", 0)
    if not isinstance(blob_len, int) or not 0 <= blob_len <= max_frame:
        raise FrameError(f"bad blob_len {blob_len!r}")
    blob = await reader.readexactly(blob_len) if blob_len else b""
    return header, blob


def write_frame(
    writer: asyncio.StreamWriter, header: dict, blob: bytes = b""
) -> int:
    """Queue one frame on the writer (caller awaits ``drain()``);
    returns the frame's size in bytes.

    The blob goes out as its own write: joining it to the header would
    copy a multi-megabyte reply once more just to prepend ~200 bytes.
    """
    if blob:
        header = dict(header, blob_len=len(blob))
    payload = json.dumps(header, separators=(",", ":")).encode()
    writer.write(len(payload).to_bytes(4, "big") + payload)
    if blob:
        writer.write(blob)
    return 4 + len(payload) + len(blob)


_MAGIC = b"RCSR"
#: every dtype a blob may carry, as numpy type strings
_DTYPES = frozenset(
    {"|b1", "|i1", "|u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8", "<f4", "<f8"}
)
_CSR_KEYS = ("data", "indices", "indptr", "shape")


def _encode_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    toc, buffers = [], []
    for name, arr in arrays.items():
        arr = np.asarray(arr, order="C")
        if arr.dtype.str[0] == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        if arr.dtype.str not in _DTYPES:
            raise FrameError(f"cannot encode {name!r}: dtype {arr.dtype}")
        toc.append([name, arr.dtype.str, list(arr.shape)])
        buffers.append(arr)
    head = json.dumps(toc, separators=(",", ":")).encode()
    return b"".join([_MAGIC, len(head).to_bytes(4, "big"), head, *buffers])


def _decode_arrays(blob: bytes) -> dict[str, np.ndarray]:
    view = memoryview(blob)
    if len(view) < 8 or view[:4] != _MAGIC:
        raise FrameError("blob does not start with a CSR table of contents")
    offset = 8 + int.from_bytes(view[4:8], "big")
    if offset > len(view):
        raise FrameError("blob table of contents overruns the blob")
    try:
        toc = json.loads(bytes(view[8:offset]))
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"blob table of contents is not JSON: {exc}") from exc
    if not isinstance(toc, list):
        raise FrameError("blob table of contents must be a JSON list")
    arrays: dict[str, np.ndarray] = {}
    for entry in toc:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise FrameError(f"bad blob entry {entry!r}")
        name, dtype, shape = entry
        if not isinstance(name, str) or name in arrays:
            raise FrameError(f"bad or repeated array name {name!r}")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise FrameError(f"array {name!r}: dtype {dtype!r} not allowed")
        if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise FrameError(f"array {name!r}: bad shape {shape!r}")
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        if nbytes > len(view) - offset:
            raise FrameError(f"array {name!r} overruns the blob")
        try:
            # copied: callers get arrays that own writable memory
            arrays[name] = (
                np.frombuffer(view, dtype, count, offset).reshape(shape).copy()
            )
        except ValueError as exc:  # a shape numpy itself refuses
            raise FrameError(f"array {name!r}: {exc}") from exc
        offset += nbytes
    if offset != len(view):
        raise FrameError(f"{len(view) - offset} trailing bytes after the arrays")
    return arrays


def encode_csr(mat: sp.csr_matrix, **extra: np.ndarray) -> bytes:
    """Raw-buffer bytes of a CSR triple (+ named extras)."""
    return _encode_arrays(
        {
            "data": mat.data,
            "indices": mat.indices,
            "indptr": mat.indptr,
            "shape": np.array(mat.shape, dtype=np.int64),
            **extra,
        }
    )


def decode_csr(blob: bytes) -> tuple[sp.csr_matrix, dict[str, np.ndarray]]:
    """Inverse of :func:`encode_csr`; extras returned by name.

    Raises :class:`FrameError` for anything but a well-formed blob
    holding a valid CSR matrix.
    """
    arrays = _decode_arrays(blob)
    missing = [k for k in _CSR_KEYS if k not in arrays]
    if missing:
        raise FrameError(f"blob has no {', '.join(missing)}")
    data, indices, indptr, shape = (arrays.pop(k) for k in _CSR_KEYS)
    if shape.shape != (2,) or shape.dtype.kind != "i" or shape.min() < 0:
        raise FrameError(f"bad matrix shape {shape!r}")
    if indices.dtype.kind != "i" or indptr.dtype.kind != "i":
        raise FrameError("CSR index arrays must be signed integers")
    if indptr.shape != (shape[0] + 1,):
        raise FrameError("indptr does not match the matrix shape")
    # set the arrays rather than pass them to the constructor, which
    # would narrow int64 index arrays whose values fit int32
    mat = sp.csr_matrix(tuple(shape.tolist()))
    mat.data, mat.indices, mat.indptr = data, indices, indptr
    try:
        mat.check_format(full_check=True)
    except ValueError as exc:
        raise FrameError(f"blob is not a valid CSR matrix: {exc}") from exc
    return mat, arrays


def encode_network(net: CollocationNetwork) -> bytes:
    """A :class:`CollocationNetwork` as blob bytes (window included)."""
    return encode_csr(
        net.adjacency, window=np.array([net.t0, net.t1], dtype=np.int64)
    )


def decode_network(blob: bytes) -> CollocationNetwork:
    """Bit-identical inverse of :func:`encode_network`."""
    mat, extra = decode_csr(blob)
    window = extra.get("window")
    if window is None or window.shape != (2,) or window.dtype.kind != "i":
        raise FrameError("blob has no window")
    try:
        return CollocationNetwork(mat, t0=int(window[0]), t1=int(window[1]))
    except SynthesisError as exc:
        raise FrameError(f"blob is not a collocation network: {exc}") from exc


def error_response(
    request_id: Any, message: str, code: str, **extra: Any
) -> dict:
    """A failure response header echoing the request id."""
    return {"id": request_id, "ok": False, "error": message, "code": code, **extra}


def ok_response(request_id: Any, **fields: Any) -> dict:
    """A success response header echoing the request id."""
    return {"id": request_id, "ok": True, **fields}
