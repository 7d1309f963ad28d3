"""Tests for the EVL reader: index reads, time slices, recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slicing import clip_records
from repro.errors import LogCorruptError, LogFormatError, LogTruncatedError
from repro.evlog import CachedLogWriter, LogReader, make_records
from repro.evlog.reader import (
    WALK_COUNTERS,
    publish_walk_stats,
    read_window_columns,
    slice_columns,
)


@pytest.fixture()
def written(tmp_path, random_records):
    path = tmp_path / "log.evl"
    with CachedLogWriter(path, rank=2, cache_records=500) as w:
        w.log_batch(random_records)
    return path, random_records


class TestIndexedRead:
    def test_read_all(self, written):
        path, rec = written
        r = LogReader(path)
        assert not r.recovered
        assert r.n_records == len(rec)
        assert r.n_chunks == 10
        assert (r.read_all() == rec).all()

    def test_iter_chunks_concatenates_to_all(self, written):
        path, rec = written
        r = LogReader(path)
        parts = list(r.iter_chunks())
        assert sum(len(p) for p in parts) == len(rec)
        assert (np.concatenate(parts) == rec).all()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.evl"
        CachedLogWriter(path).close()
        r = LogReader(path)
        assert r.n_records == 0
        assert len(r.read_all()) == 0


class TestTimeSlice:
    def test_slice_matches_mask(self, written):
        path, rec = written
        r = LogReader(path)
        out = r.read_time_slice(40, 80)
        mask = (rec["start"] < 80) & (rec["stop"] > 40)
        assert len(out) == mask.sum()
        # same multiset of records
        assert (np.sort(out, order=["person", "start", "place"])
                == np.sort(rec[mask], order=["person", "start", "place"])).all()

    def test_slice_prunes_chunks(self, tmp_path):
        """Time-ordered logs let the index skip most chunks."""
        path = tmp_path / "ordered.evl"
        with CachedLogWriter(path, cache_records=100) as w:
            for t in range(1000):
                w.log(t, t + 1, t % 50, 0, t % 20)
        r = LogReader(path)
        assert r.n_chunks == 10
        assert r.chunks_overlapping(0, 100) == 1
        out = r.read_time_slice(0, 100)
        assert len(out) == 100

    def test_empty_slice_raises(self, written):
        path, _ = written
        with pytest.raises(ValueError):
            LogReader(path).read_time_slice(10, 10)

    def test_slice_outside_data(self, written):
        path, _ = written
        assert len(LogReader(path).read_time_slice(10_000, 10_001)) == 0


class TestRecovery:
    def test_truncated_file_recovers_prefix(self, written):
        path, rec = written
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) * 2 // 3])
        r = LogReader(path)
        assert r.recovered
        assert 0 < r.n_records < len(rec)
        assert (r.read_all() == rec[: r.n_records]).all()

    def test_strict_mode_raises_on_truncation(self, written):
        path, _ = written
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(LogTruncatedError):
            LogReader(path, strict=True)

    def test_corrupt_chunk_stops_recovery(self, written):
        path, rec = written
        blob = bytearray(path.read_bytes())
        # remove trailer, then corrupt a mid-file payload byte
        blob = blob[: len(blob) - 20]
        blob[15_000] ^= 0xFF  # inside the second 500-record chunk
        path.write_bytes(bytes(blob))
        r = LogReader(path)
        assert r.recovered
        assert 0 < r.n_records < len(rec)

    def test_not_an_evl_file(self, tmp_path):
        path = tmp_path / "bad.evl"
        path.write_bytes(b"definitely not an EVL file" * 10)
        with pytest.raises(LogFormatError):
            LogReader(path)

    def test_index_record_count_mismatch(self, written):
        """A trailer whose total contradicts the index is rejected."""
        path, _ = written
        blob = bytearray(path.read_bytes())
        blob[-12] ^= 0x01  # perturb total_records in the trailer
        path.write_bytes(bytes(blob))
        with pytest.raises(LogFormatError, match="records"):
            LogReader(path)


class TestCompressedRead:
    def test_roundtrip(self, tmp_path, random_records):
        path = tmp_path / "z.evl"
        with CachedLogWriter(path, cache_records=700, compress=True) as w:
            w.log_batch(random_records)
        r = LogReader(path)
        assert r.header.compressed
        assert (r.read_all() == random_records).all()

    def test_sliced_read(self, tmp_path, random_records):
        path = tmp_path / "z.evl"
        with CachedLogWriter(path, compress=True) as w:
            w.log_batch(random_records)
        out = LogReader(path).read_time_slice(0, 50)
        mask = (random_records["start"] < 50) & (random_records["stop"] > 0)
        assert len(out) == mask.sum()


def _columns_of(records):
    return tuple(
        records[name].astype(np.int64)
        for name in ("start", "stop", "person", "place")
    )


@st.composite
def _log_and_window(draw):
    n = draw(st.integers(0, 120))
    start = np.array(draw(st.lists(st.integers(0, 200), min_size=n, max_size=n)))
    length = np.array(draw(st.lists(st.integers(1, 90), min_size=n, max_size=n)))
    ids = np.array(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)))
    rec = make_records(start, start + length, ids, ids % 3, ids % 7)
    t0 = draw(st.integers(0, 320))
    return (
        rec,
        draw(st.integers(1, 40)),  # records per chunk
        draw(st.booleans()),  # compressed
        (t0, t0 + draw(st.integers(1, 200))),
    )


class TestWindowWalk:
    """The one verify + decode walk synthesis reads logs through."""

    @settings(max_examples=60, deadline=None)
    @given(case=_log_and_window(), use_mmap=st.booleans(), whole=st.booleans())
    def test_columns_equal_clipped_time_slice(
        self, tmp_path_factory, case, use_mmap, whole
    ):
        rec, chunk, compress, (t0, t1) = case
        path = tmp_path_factory.mktemp("walk") / "log.evl"
        with CachedLogWriter(path, cache_records=chunk, compress=compress) as w:
            w.log_batch(rec)
        with LogReader(path, use_mmap=use_mmap) as reader:
            sliced = reader.read_time_slice(t0, t1)
            want = _columns_of(clip_records(sliced, t0, t1) if len(sliced) else sliced)
            for source in (reader, path):
                got, stats = read_window_columns(source, t0, t1, whole_file=whole)
                for a, b in zip(got, want):
                    assert a.dtype == np.int64 and np.array_equal(a, b)
                touched = reader.chunks_overlapping(t0, t1)
                assert stats["chunks_decoded"] == touched
                assert stats["chunks_checked"] == (
                    reader.n_chunks - touched if whole else 0
                )
                assert stats["records_kept"] == len(sliced)
            # the same lowering for records already in memory
            for a, b in zip(slice_columns(rec, t0, t1), want):
                assert np.array_equal(a, b)

    def test_damage_surfaces_typed_and_releases_the_map(self, written):
        """A CRC failure mid-walk must come out as itself: no view of the
        mmap may ride the traceback into ``close()`` (``BufferError``)."""
        path, _rec = written
        blob = bytearray(path.read_bytes())
        with LogReader(path) as reader:
            victim = reader.chunks[5]
        blob[victim.offset + 40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(LogCorruptError):
            read_window_columns(path, 0, 10_000)
        with pytest.raises(LogCorruptError):
            read_window_columns(path, 0, 1, whole_file=True)
        with LogReader(path, use_mmap=True) as reader:
            with pytest.raises(LogCorruptError):
                reader.verify()
            with pytest.raises(LogCorruptError):
                read_window_columns(reader, 0, 10_000)

    def test_index_count_mismatch_is_refused(self, written):
        path, _rec = written
        with LogReader(path, use_mmap=True) as reader:
            first = reader.chunks[0]
            reader.chunks[0] = type(first)(
                first.offset, first.n_records + 1, first.t_min, first.t_max
            )
            with pytest.raises(LogFormatError, match="index says"):
                read_window_columns(reader, 0, 10_000)
            with pytest.raises(LogFormatError, match="index says"):
                read_window_columns(reader, 10**6, 10**6 + 1, whole_file=True)

    def test_held_reader_stays_open_and_path_is_strict(self, written, tmp_path):
        path, rec = written
        with LogReader(path, use_mmap=True) as reader:
            read_window_columns(reader, 0, 50)
            assert reader.n_records == len(rec)  # still usable
            assert reader.identity == LogReader(path).identity
        torn = tmp_path / "torn.evl"
        torn.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(LogTruncatedError):
            read_window_columns(torn, 0, 50)
        with pytest.raises(ValueError):
            read_window_columns(path, 5, 5)

    def test_counters_reach_the_registry_once_per_walk(self, written, registry):
        path, _rec = written
        _cols, stats = read_window_columns(path, 40, 80, whole_file=True)
        assert not registry.snapshot()["counters"]  # the walk emits nothing
        publish_walk_stats(stats)
        counters = registry.snapshot()["counters"]
        for name in WALK_COUNTERS:
            assert counters[f"evlog.reader.{name}"] == stats[name]
        assert stats["chunks_decoded"] + stats["chunks_checked"] == 10
        assert stats["records_decoded"] >= stats["records_kept"] > 0
        assert stats["seconds"] > 0
