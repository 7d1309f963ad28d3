"""Frame protocol unit tests: framing round-trips, CSR bit-identity,
malformed-input detection — no sockets, just in-memory streams."""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import CollocationNetwork
from repro.errors import FrameError
from repro.service.protocol import (
    MAX_FRAME,
    decode_csr,
    decode_network,
    encode_csr,
    encode_network,
    read_frame,
    write_frame,
)

from .conftest import assert_bit_identical

pytestmark = pytest.mark.timeout(60)


class _SinkWriter:
    """Minimal StreamWriter stand-in capturing written bytes."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.buffer.extend(data)
        self.writes.append(data)


def feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def roundtrip(header: dict, blob: bytes = b"") -> tuple[dict, bytes]:
    writer = _SinkWriter()
    write_frame(writer, header, blob)

    async def read():
        return await read_frame(feed(bytes(writer.buffer)))

    return asyncio.run(read())


def random_csr(rng, n=50, density=0.1) -> sp.csr_matrix:
    mat = sp.random(
        n, n, density=density, format="csr", dtype=np.int64, random_state=42
    )
    mat.data[:] = rng.integers(1, 100, mat.nnz)
    return mat


class TestFraming:
    def test_json_only_roundtrip(self):
        header, blob = roundtrip({"op": "ping", "id": 3})
        assert header == {"op": "ping", "id": 3}
        assert blob == b""

    def test_blob_roundtrip_sets_blob_len(self):
        payload = bytes(range(256)) * 10
        header, blob = roundtrip({"op": "x", "id": 1}, payload)
        assert blob == payload
        assert header["blob_len"] == len(payload)

    def test_blob_is_written_as_is_not_joined_to_the_header(self):
        writer = _SinkWriter()
        payload = bytes(1000)
        size = write_frame(writer, {"id": 1}, payload)
        # two writes: prefix + header, then the very same blob object
        assert len(writer.writes) == 2
        assert writer.writes[1] is payload
        assert size == len(writer.buffer)

    def test_two_frames_back_to_back_keep_phase(self):
        writer = _SinkWriter()
        write_frame(writer, {"id": 1}, b"abc")
        write_frame(writer, {"id": 2})

        async def read_both():
            reader = feed(bytes(writer.buffer))
            return await read_frame(reader), await read_frame(reader)

        (h1, b1), (h2, b2) = asyncio.run(read_both())
        assert (h1["id"], b1) == (1, b"abc")
        assert (h2["id"], b2) == (2, b"")

    @pytest.mark.parametrize(
        "raw,match",
        [
            (struct.pack(">I", 0), "outside"),
            (struct.pack(">I", MAX_FRAME + 1), "outside"),
            (struct.pack(">I", 4) + b"nope", "not JSON"),
            (struct.pack(">I", 4) + b'"hi"', "JSON object"),
            (struct.pack(">I", 16) + b'{"blob_len":-10}', "blob_len"),
            (struct.pack(">I", 18) + b'{"blob_len":"big"}', "blob_len"),
        ],
    )
    def test_malformed_frames_raise_frame_error(self, raw, match):
        async def read():
            await read_frame(feed(raw))

        with pytest.raises(FrameError, match=match):
            asyncio.run(read())

    def test_truncated_stream_is_not_a_frame_error(self):
        """A peer that vanished mid-frame is a disconnect, not malice."""

        async def read():
            await read_frame(feed(struct.pack(">I", 100) + b"x" * 10))

        with pytest.raises(asyncio.IncompleteReadError):
            asyncio.run(read())


class TestCsrEncoding:
    def test_csr_roundtrip_bit_identical(self, rng):
        mat = random_csr(rng)
        out, extra = decode_csr(encode_csr(mat))
        assert_bit_identical(out, mat)
        assert extra == {}

    def test_extras_round_trip(self, rng):
        mat = random_csr(rng)
        persons = rng.integers(0, 1000, 17).astype(np.int64)
        out, extra = decode_csr(encode_csr(mat, persons=persons))
        assert_bit_identical(out, mat)
        assert np.array_equal(extra["persons"], persons)

    def test_network_roundtrip_preserves_window(self, rng):
        mat = sp.triu(random_csr(rng), k=1).tocsr()  # strictly upper
        net = CollocationNetwork(mat, t0=24, t1=192)
        out = decode_network(encode_network(net))
        assert (out.t0, out.t1) == (24, 192)
        assert_bit_identical(out.adjacency, net.adjacency)


def craft(toc, payload: bytes = b"", magic: bytes = b"RCSR") -> bytes:
    """A blob with an arbitrary table of contents and payload."""
    head = toc if isinstance(toc, bytes) else json.dumps(toc).encode()
    return magic + struct.pack(">I", len(head)) + head + payload


def i8(*values) -> bytes:
    return np.array(values, dtype="<i8").tobytes()


#: a valid 2x2 matrix with one entry at (0, 1), as toc entries + payload
GOOD_TOC = [
    ["data", "<i8", [1]],
    ["indices", "<i8", [1]],
    ["indptr", "<i8", [3]],
    ["shape", "<i8", [2]],
    ["window", "<i8", [2]],
]
GOOD_PAYLOAD = i8(5) + i8(1) + i8(0, 1, 1) + i8(2, 2) + i8(0, 24)


def replaced(name, dtype=None, shape=None, raw: bytes = b""):
    """The good blob with one array's toc entry and bytes swapped out —
    or, with no replacement given, dropped."""
    toc, payload, offset = [], b"", 0
    for entry in GOOD_TOC:
        nbytes = 8 * entry[2][0]
        if entry[0] != name:
            toc.append(entry)
            payload += GOOD_PAYLOAD[offset : offset + nbytes]
        elif dtype is not None:
            toc.append([name, dtype, shape])
            payload += raw
        offset += nbytes
    return craft(toc, payload)


class TestDecodeIsTheBoundary:
    """Whatever is wrong with a blob, the decoder says FrameError."""

    def test_the_crafted_good_blob_decodes(self):
        net = decode_network(craft(GOOD_TOC, GOOD_PAYLOAD))
        assert (net.t0, net.t1, net.n_edges) == (0, 24, 1)
        assert net.edge_weight(0, 1) == 5

    @pytest.mark.parametrize(
        "blob,match",
        [
            (b"", "table of contents"),
            (b"PK\x03\x04" + bytes(64), "table of contents"),  # an old npz
            (craft(GOOD_TOC, GOOD_PAYLOAD, magic=b"RCSX"), "table of contents"),
            (craft(b"\xff\xfe"), "not JSON"),
            (craft(b"[" * 100_000), "not JSON"),
            (craft({"data": 1}), "JSON list"),
            (craft([["data", "<i8"]]), "bad blob entry"),
            (craft([[7, "<i8", [0]]]), "array name"),
            (craft([["a", "<i8", [0]], ["a", "<i8", [0]]]), "array name"),
            (craft([["data", "|O", [1]]], bytes(8)), "not allowed"),
            (craft([["data", "<c16", [1]]], bytes(16)), "not allowed"),
            (craft([["data", ">i8", [1]]], bytes(8)), "not allowed"),
            (craft([["data", "<i8", [-1]]]), "bad shape"),
            (craft([["data", "<i8", [True]]], bytes(8)), "bad shape"),
            (craft([["data", "<i8", "3"]]), "bad shape"),
            (craft([["data", "<i8", [2**62, 2**62]]]), "overruns"),
            (craft([["data", "<i8", [0, 2**62, 2**62]]]), "too big"),
            (craft([["data", "<i8", [2]]], bytes(15)), "overruns"),
            (craft(GOOD_TOC, GOOD_PAYLOAD + b"\0"), "trailing"),
            (replaced("data"), "no data"),
            (replaced("indices"), "no indices"),
            (replaced("indptr"), "no indptr"),
            (replaced("shape"), "no shape"),
            (replaced("window"), "no window"),
            (replaced("shape", "<i8", [3], i8(2, 2, 2)), "matrix shape"),
            (replaced("shape", "<f8", [2], bytes(16)), "matrix shape"),
            (replaced("shape", "<i8", [2], i8(-2, 2)), "matrix shape"),
            (replaced("shape", "<i8", [2], i8(2**62, 2)), "indptr"),
            (replaced("indices", "<f8", [1], bytes(8)), "signed integers"),
            (replaced("indices", "<u4", [1], bytes(4)), "signed integers"),
            (replaced("indices", "<i8", [1], i8(9)), "valid CSR"),
            (replaced("indices", "<i8", [1], i8(-1)), "valid CSR"),
            (replaced("indices", "<i8", [2], i8(1, 1)), "valid CSR"),
            (replaced("indptr", "<i8", [3], i8(0, 2, 1)), "valid CSR"),
            (replaced("indptr", "<i8", [3], i8(1, 1, 1)), "valid CSR"),
            (replaced("indptr", "<i8", [3, 1], i8(0, 1, 1)), "indptr"),
            (replaced("data", "<i8", [1, 1], i8(5)), "valid CSR"),
            (replaced("window", "<i8", [3], i8(0, 1, 2)), "no window"),
            # a fine matrix that is not an upper-triangular network
            (replaced("indices", "<i8", [1], i8(0)), "collocation network"),
        ],
    )
    def test_damaged_blobs_raise_frame_error(self, blob, match):
        with pytest.raises(FrameError, match=match):
            decode_network(blob)

    def test_every_truncation_point_raises_frame_error(self, rng):
        mat = sp.triu(random_csr(rng, n=12, density=0.3), k=1).tocsr()
        blob = encode_network(CollocationNetwork(mat, t0=3, t1=9))
        for cut in range(len(blob)):
            with pytest.raises(FrameError):
                decode_network(blob[:cut])
            with pytest.raises(FrameError):
                decode_csr(blob[:cut])

    def test_object_arrays_are_refused_at_encode_time_too(self):
        mat = sp.csr_matrix((2, 2), dtype=np.int64)
        with pytest.raises(FrameError, match="dtype"):
            encode_csr(mat, persons=np.array([None, {}], dtype=object))

    def test_decoded_arrays_are_writable_copies_off_the_blob(self, rng):
        blob = encode_csr(random_csr(rng), tag=np.arange(3))
        out, extra = decode_csr(blob)
        raw = np.frombuffer(blob, dtype=np.uint8)
        for arr in (out.data, out.indices, out.indptr, extra["tag"]):
            assert arr.flags.writeable and arr.flags.aligned
            assert not np.shares_memory(arr, raw)


@st.composite
def csr_matrices(draw):
    """CSR matrices over the cases the wire must carry: empty (0x0 and
    no stored entries), int32 and int64 index arrays, big-endian data."""
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(0, 12))
    cells = [(i, j) for i in range(n_rows) for j in range(n_cols)]
    chosen = sorted(
        draw(st.lists(st.sampled_from(cells), unique=True, max_size=40))
        if cells
        else []
    )
    data_dtype = draw(
        st.sampled_from(["<i8", ">i8", "<i4", ">i2", "<f8", ">f4", "|u1", "|b1"])
    )
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    values = draw(
        st.lists(
            st.integers(0, 100), min_size=len(chosen), max_size=len(chosen)
        )
    )
    counts = np.bincount([i for i, _ in chosen], minlength=n_rows)
    mat = sp.csr_matrix((n_rows, n_cols))
    # set directly: the constructor would narrow int64 index arrays
    mat.data = np.array(values, dtype=data_dtype)
    mat.indices = np.array([j for _, j in chosen], dtype=index_dtype)
    mat.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(index_dtype)
    return mat


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    """Same values, same dtype — byte order aside: the wire is
    little-endian, so a big-endian input comes back little-endian."""
    assert got.dtype == want.dtype.newbyteorder("<")
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        mat=csr_matrices(),
        persons=st.lists(st.integers(0, 2**40), max_size=8),
        center=st.integers(0, 2**40),
        radius=st.integers(1, 5),
        big_endian_extras=st.booleans(),
    )
    def test_decode_inverts_encode_bit_for_bit(
        self, mat, persons, center, radius, big_endian_extras
    ):
        dtype = ">i8" if big_endian_extras else "<i8"
        extras = {
            "persons": np.array(persons, dtype=dtype),
            "center": np.array([center], dtype=dtype),
            "radius": np.array([radius], dtype=dtype),
        }
        blob = encode_csr(mat, **extras)
        assert isinstance(blob, bytes)
        out, got = decode_csr(blob)
        assert out.shape == mat.shape
        assert_same_array(out.data, mat.data)
        assert_same_array(out.indices, mat.indices)
        assert_same_array(out.indptr, mat.indptr)
        assert sorted(got) == sorted(extras)
        for name, want in extras.items():
            assert_same_array(got[name], want)
        # a second trip through the wire changes nothing at all
        assert encode_csr(out, **got) == blob

    @settings(max_examples=60, deadline=None)
    @given(mat=csr_matrices(), data=st.data())
    def test_any_truncation_is_a_frame_error(self, mat, data):
        blob = encode_csr(mat)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(FrameError):
            decode_csr(blob[:cut])
