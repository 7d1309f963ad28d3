"""Tests for the cached log writer, including the cache-size tradeoff."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LogFormatError
from repro.evlog import CachedLogWriter, LogReader


class TestScalarLogging:
    def test_log_and_read_back(self, tmp_path):
        path = tmp_path / "t.evl"
        with CachedLogWriter(path, rank=3, cache_records=4) as w:
            for i in range(10):
                w.log(i, i + 2, 100 + i, 1, 200 + i)
        r = LogReader(path)
        assert r.rank == 3
        rec = r.read_all()
        assert len(rec) == 10
        assert rec["person"].tolist() == list(range(100, 110))

    def test_rejects_empty_interval(self, tmp_path):
        with CachedLogWriter(tmp_path / "t.evl") as w:
            with pytest.raises(LogFormatError):
                w.log(5, 5, 0, 0, 0)

    def test_closed_writer_rejects_log(self, tmp_path):
        w = CachedLogWriter(tmp_path / "t.evl")
        w.close()
        with pytest.raises(LogFormatError, match="closed"):
            w.log(0, 1, 0, 0, 0)

    def test_double_close_ok(self, tmp_path):
        w = CachedLogWriter(tmp_path / "t.evl")
        w.close()
        w.close()


class TestBatchLogging:
    def test_batch_equals_scalar(self, tmp_path, random_records):
        rec = random_records[:500]
        p1, p2 = tmp_path / "a.evl", tmp_path / "b.evl"
        with CachedLogWriter(p1, cache_records=64) as w:
            w.log_batch(rec)
        with CachedLogWriter(p2, cache_records=64) as w:
            for row in rec:
                w.log(*(int(row[f]) for f in rec.dtype.names))
        assert p1.read_bytes() == p2.read_bytes()

    def test_batch_rejects_wrong_dtype(self, tmp_path):
        with CachedLogWriter(tmp_path / "t.evl") as w:
            with pytest.raises(LogFormatError, match="dtype"):
                w.log_batch(np.zeros(3, dtype=np.uint32))

    def test_noncontiguous_batch(self, tmp_path, random_records):
        rec = random_records[::2]  # strided view
        path = tmp_path / "t.evl"
        with CachedLogWriter(path) as w:
            w.log_batch(rec)
        assert (LogReader(path).read_all() == rec).all()


def raw_rows(records):
    """``records`` as the rank step hands them over: ``(n, 5)`` uint32."""
    return np.ascontiguousarray(records).view(np.uint32).reshape(-1, 5)


class TestRawRows:
    """``log_batch`` takes a batch's raw 20-byte image as ``(n, 5)`` uint32
    rows (what ``HostedTable.step`` returns) exactly as it takes the same
    records as a ``LOG_DTYPE`` array."""

    @pytest.mark.parametrize("durability", ["none", "fsync", "wal"])
    @pytest.mark.parametrize("cache", [1, 7, 64, 10_000])
    def test_same_file_as_structured(self, tmp_path, random_records, durability, cache):
        rec = random_records[:700]
        cuts = [0, 1, 64, 65, 300, 700]  # batches across every flush boundary
        files = []
        for name, batch in (("s", lambda r: r), ("r", raw_rows)):
            path = tmp_path / f"{name}.evl"
            with CachedLogWriter(path, cache_records=cache, durability=durability) as w:
                for lo, hi in zip(cuts, cuts[1:]):
                    w.log_batch(batch(rec[lo:hi]))
                assert w.stats.flushes == 700 // cache
            files.append(path.read_bytes())
        assert files[0] == files[1]
        assert (LogReader(tmp_path / "r.evl").read_all() == rec).all()

    def test_strided_rows(self, tmp_path, random_records):
        rows = raw_rows(random_records[:400])[::3]  # a non-contiguous view
        path = tmp_path / "t.evl"
        with CachedLogWriter(path, cache_records=50) as w:
            w.log_batch(rows)
        assert (LogReader(path).read_all() == random_records[:400][::3]).all()

    def test_rows_are_validated_before_any_enters(self, tmp_path, random_records):
        path = tmp_path / "t.evl"
        bad = raw_rows(random_records[:30]).copy()
        bad[17, 1] = bad[17, 0]  # stop == start
        with CachedLogWriter(path, cache_records=8) as w:
            with pytest.raises(LogFormatError, match="stop > start"):
                w.log_batch(bad)
            assert w.stats.records == 0
            w.log_batch(raw_rows(random_records[:5]))
        assert len(LogReader(path).read_all()) == 5

    @pytest.mark.parametrize(
        "shape, dtype", [((4,), np.uint32), ((4, 4), np.uint32), ((4, 5), np.int32),
                         ((4, 5, 1), np.uint32), ((4, 5), np.uint64)],
    )  # fmt: skip
    def test_other_arrays_are_refused(self, tmp_path, shape, dtype):
        with CachedLogWriter(tmp_path / "t.evl") as w:
            with pytest.raises(LogFormatError, match="dtype"):
                w.log_batch(np.ones(shape, dtype=dtype))
            assert w.stats.records == 0


class TestCachePolicy:
    def test_flush_count_tracks_cache_size(self, tmp_path, random_records):
        """Paper Section III: smaller cache → more write operations."""
        rec = random_records[:1000]
        flushes = {}
        for cache in (10, 100, 1000):
            path = tmp_path / f"c{cache}.evl"
            with CachedLogWriter(path, cache_records=cache) as w:
                w.log_batch(rec)
                flushes[cache] = w.stats.flushes
        assert flushes[10] == 100
        assert flushes[100] == 10
        assert flushes[1000] == 1
        assert flushes[10] > flushes[100] > flushes[1000]

    def test_cache_memory_reported(self, tmp_path):
        w = CachedLogWriter(tmp_path / "t.evl", cache_records=10_000)
        assert w.stats.cache_bytes == 10_000 * 20
        w.close()

    def test_partial_cache_flushed_on_close(self, tmp_path, random_records):
        path = tmp_path / "t.evl"
        with CachedLogWriter(path, cache_records=10_000) as w:
            w.log_batch(random_records[:7])
        assert LogReader(path).n_records == 7

    def test_rejects_zero_cache(self, tmp_path):
        with pytest.raises(LogFormatError):
            CachedLogWriter(tmp_path / "t.evl", cache_records=0)

    def test_rejects_negative_rank(self, tmp_path):
        with pytest.raises(LogFormatError):
            CachedLogWriter(tmp_path / "t.evl", rank=-1)


class TestFileSize:
    def test_size_close_to_20_bytes_per_record(self, tmp_path, random_records):
        """The paper's sizing arithmetic: ~20 B per entry plus overhead."""
        path = tmp_path / "t.evl"
        n = len(random_records)
        with CachedLogWriter(path, cache_records=100_000) as w:
            w.log_batch(random_records)
        size = path.stat().st_size
        assert 20 * n <= size <= 20 * n * 1.02 + 1024

    def test_compression_shrinks_file(self, tmp_path, random_records):
        p1, p2 = tmp_path / "raw.evl", tmp_path / "z.evl"
        with CachedLogWriter(p1, cache_records=100_000) as w:
            w.log_batch(random_records)
        with CachedLogWriter(p2, cache_records=100_000, compress=True) as w:
            w.log_batch(random_records)
        assert p2.stat().st_size < p1.stat().st_size


class TestErrorPath:
    def test_exception_flushes_and_finalizes_file(self, tmp_path, random_records):
        path = tmp_path / "t.evl"
        with pytest.raises(RuntimeError):
            with CachedLogWriter(path, cache_records=100) as w:
                w.log_batch(random_records[:250])
                raise RuntimeError("simulated crash")
        # __exit__ best-effort flushes the partial cache and writes the
        # index/trailer: all 250 records survive, and the file is cleanly
        # closed rather than merely recoverable
        r = LogReader(path, strict=True)
        assert not r.recovered
        assert r.n_records == 250
