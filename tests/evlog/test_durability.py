"""Durability policies, WAL journaling, and salvage-on-reopen."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LogFormatError
from repro.evlog import CachedLogWriter, DurabilityPolicy, LogReader, salvage_rank_logs
from repro.evlog.multifile import rank_log_path
from repro.evlog.writer import wal_sidecar_path


def _crash(writer: CachedLogWriter) -> None:
    """Simulate a hard kill: drop the file handles without flushing the
    cache or writing index/trailer.  The WAL sidecar (if any) stays behind,
    exactly as it would after a SIGKILL."""
    writer._file.close()
    if writer._wal_file is not None:
        writer._wal_file.close()
        writer._wal_file = None
    writer._file = None


class TestPolicy:
    def test_coerce_accepts_strings_and_enum(self):
        assert DurabilityPolicy.coerce("wal") is DurabilityPolicy.WAL
        assert (
            DurabilityPolicy.coerce(DurabilityPolicy.FSYNC)
            is DurabilityPolicy.FSYNC
        )

    def test_coerce_rejects_unknown(self):
        with pytest.raises(LogFormatError, match="durability"):
            DurabilityPolicy.coerce("paranoid")

    def test_stats_records_at_risk(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        with CachedLogWriter(p, cache_records=64, durability="wal") as w:
            w.log_batch(random_records[:40])
            assert w.stats.records_at_risk(w.durability) == 0
        with CachedLogWriter(p, cache_records=64, durability="fsync") as w:
            w.log_batch(random_records[:40])
            # worst-case bound: a kill can lose up to a full cache
            assert w.stats.records_at_risk(w.durability) == 64

    def test_mode_counters(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        with CachedLogWriter(p, cache_records=100, durability="none") as w:
            w.log_batch(random_records[:250])
            none_fsyncs = w.stats.fsyncs
        assert none_fsyncs == 0
        with CachedLogWriter(p, cache_records=100, durability="fsync") as w:
            w.log_batch(random_records[:250])
            assert w.stats.fsyncs > 0
            assert w.stats.wal_frames == 0
        with CachedLogWriter(p, cache_records=100, durability="wal") as w:
            w.log_batch(random_records[:250])
            assert w.stats.wal_frames > 0
            assert w.stats.wal_bytes > 0

    def test_identical_bytes_across_modes(self, tmp_path, random_records):
        blobs = []
        for mode in ("none", "fsync", "wal"):
            p = tmp_path / f"{mode}.evl"
            with CachedLogWriter(p, cache_records=64, durability=mode) as w:
                w.log_batch(random_records[:500])
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_wal_sidecar_removed_on_clean_close(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        with CachedLogWriter(p, cache_records=64, durability="wal") as w:
            w.log_batch(random_records[:100])
            assert wal_sidecar_path(p).is_file()
        assert not wal_sidecar_path(p).is_file()


class TestBatchValidation:
    def test_log_batch_rejects_empty_interval(self, tmp_path, random_records):
        bad = random_records[:10].copy()
        bad["stop"][4] = bad["start"][4]
        with CachedLogWriter(tmp_path / "t.evl") as w:
            with pytest.raises(LogFormatError, match="stop"):
                w.log_batch(bad)

    def test_log_batch_rejects_inverted_interval(self, tmp_path, random_records):
        bad = random_records[:10].copy()
        bad["start"][7] = bad["stop"][7] + 5
        with CachedLogWriter(tmp_path / "t.evl") as w:
            with pytest.raises(LogFormatError, match="stop"):
                w.log_batch(bad)

    def test_rejecting_batch_writes_nothing(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        bad = random_records[:10].copy()
        bad["stop"][0] = bad["start"][0]
        with CachedLogWriter(p, cache_records=4) as w:
            with pytest.raises(LogFormatError):
                w.log_batch(bad)
            w.log_batch(random_records[:20])
        assert len(LogReader(p).read_all()) == 20


class TestWalSalvage:
    def test_raw_rows_are_journaled_before_insertion(self, tmp_path, random_records):
        """Raw ``(n, 5)`` rows (the rank step's batches) are journaled like
        structured ones: a kill after 150 acknowledged records salvages
        the 22 that only the WAL holds."""
        p = tmp_path / "t.evl"
        w = CachedLogWriter(p, cache_records=64, durability="wal")
        rows = np.ascontiguousarray(random_records[:150]).view(np.uint32).reshape(-1, 5)
        for lo, hi in ((0, 3), (3, 100), (100, 150)):
            w.log_batch(rows[lo:hi])
        _crash(w)
        r = CachedLogWriter.open_resume(p, cache_records=64, durability="wal")
        assert r.stats.salvaged_records == 150 - 128
        r.close()
        assert (LogReader(p).read_all() == random_records[:150]).all()

    def test_kill_loses_nothing_acknowledged(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        w = CachedLogWriter(p, cache_records=64, durability="wal")
        acked = random_records[:150]
        w.log_batch(acked)  # 2 full chunks + 22 records only in the WAL
        _crash(w)

        r = CachedLogWriter.open_resume(p, cache_records=64, durability="wal")
        assert r.stats.salvaged_records == 150 - 128
        r.close()
        got = LogReader(p).read_all()
        assert np.array_equal(got, acked)

    def test_salvage_then_append_roundtrip(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        w = CachedLogWriter(p, cache_records=50, durability="wal")
        w.log_batch(random_records[:120])
        _crash(w)
        r = CachedLogWriter.open_resume(p, cache_records=50, durability="wal")
        r.log_batch(random_records[120:300])
        r.close()
        assert np.array_equal(
            LogReader(p).read_all(), random_records[:300]
        )

    def test_none_mode_kill_loses_cache(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        w = CachedLogWriter(p, cache_records=64, durability="none")
        w.log_batch(random_records[:150])
        _crash(w)
        r = CachedLogWriter.open_resume(p, cache_records=64)
        assert r.stats.salvaged_records == 0
        r.close()
        # only the two full chunks survive; the cached 22 are gone
        assert len(LogReader(p).read_all()) == 128

    def test_resume_clean_file_continues(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        with CachedLogWriter(p, cache_records=64) as w:
            w.log_batch(random_records[:100])
        r = CachedLogWriter.open_resume(p, cache_records=64)
        assert r.stats.records == 100
        r.log_batch(random_records[100:200])
        r.close()
        assert np.array_equal(LogReader(p).read_all(), random_records[:200])

    def test_resume_missing_file_starts_fresh(self, tmp_path, random_records):
        p = tmp_path / "new.evl"
        r = CachedLogWriter.open_resume(p, rank=5)
        r.log_batch(random_records[:10])
        r.close()
        reader = LogReader(p)
        assert reader.rank == 5
        assert len(reader.read_all()) == 10

    def test_at_offset_restores_commit_point(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        w = CachedLogWriter(p, cache_records=64, durability="wal")
        w.log_batch(random_records[:64])
        w.flush()
        offset = w.offset
        w.log_batch(random_records[64:150])
        w.close()

        r = CachedLogWriter.open_resume(p, cache_records=64, at_offset=offset)
        assert r.stats.records == 64
        r.log_batch(random_records[64:150])
        r.close()
        assert np.array_equal(LogReader(p).read_all(), random_records[:150])

    def test_at_offset_rejects_mid_chunk(self, tmp_path, random_records):
        p = tmp_path / "t.evl"
        with CachedLogWriter(p, cache_records=64) as w:
            w.log_batch(random_records[:64])
        with pytest.raises(LogFormatError, match="boundary"):
            CachedLogWriter.open_resume(p, at_offset=31)

    def test_at_offset_missing_file_rejected(self, tmp_path):
        with pytest.raises(LogFormatError, match="no file"):
            CachedLogWriter.open_resume(tmp_path / "gone.evl", at_offset=24)


class TestSalvageRankLogs:
    def test_repairs_torn_files_only(self, tmp_path, random_records):
        clean = rank_log_path(tmp_path, 0)
        torn = rank_log_path(tmp_path, 1)
        with CachedLogWriter(clean, rank=0, cache_records=64) as w:
            w.log_batch(random_records[:64])
        w = CachedLogWriter(torn, rank=1, cache_records=64, durability="wal")
        w.log_batch(random_records[:100])
        _crash(w)

        repaired = salvage_rank_logs(tmp_path)
        assert [(p.name, n) for p, n in repaired] == [(torn.name, 36)]
        for path in (clean, torn):
            r = LogReader(path, strict=True)
            assert not r.recovered
        assert np.array_equal(LogReader(torn).read_all(), random_records[:100])
