"""The per-file walk against the by-value body it replaced.

``_reference_value_dispatch`` holds the pre-change synthesis verbatim;
production must give the same CSR triple, the same report counts and the
same quarantine list on every input the old path accepted — and refuse
the ones it refused — for every window shape, pool kind and batch size.
Also here: what the single path promises beyond equality (each payload
byte CRC'd once, a window-independent quarantine verdict, one meaning of
``strict``).
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core import synthesize_from_logs, synthesize_network
from repro.core.pipeline import _file_task
from repro.core.tilecache import _window_task
from repro.distrib import RetryPolicy, TaskPool
from repro.errors import (
    LogCorruptError,
    LogTruncatedError,
    SynthesisError,
    TaskRetryError,
)
from repro.evlog import LogReader, make_records
from repro.evlog.format import (
    CHUNK_HEADER_BYTES,
    ChunkInfo,
    pack_chunk,
    pack_header,
    pack_index,
    pack_trailer,
)
from repro.evlog.multifile import rank_log_path, write_rank_logs
from repro.evlog.schema import LOG_DTYPE, records_to_bytes
from tests.core import _reference_value_dispatch as reference
from tests.core.test_kernel_equivalence import (
    N_PERSONS,
    N_PLACES,
    csr_identical,
    tricky_records,
    write_tricky_logs,
)

U32 = 2**32 - 1
HORIZON = 140  # tricky_records reach hour ~135

WINDOWS = {
    "aligned": (0, 48),
    "unaligned": (7, 61),
    "one-hour": (13, 14),
    "whole-horizon": (0, HORIZON),
    "past-the-horizon": (HORIZON + 5, HORIZON + 50),
    "uint32-edge": (U32 - 30, U32),
}


def write_raw_log(path, rank, records, chunk_records=64, compress=False):
    """An EVL file straight from the format primitives — the writer would
    refuse the ``stop <= start`` spells some cases need."""
    blob = bytearray(pack_header(rank, compress))
    chunks = []
    for a in range(0, len(records), chunk_records):
        rec = records[a : a + chunk_records]
        chunks.append(
            ChunkInfo(
                offset=len(blob),
                n_records=len(rec),
                t_min=int(rec["start"].min()),
                t_max=int(rec["stop"].max()),
            )
        )
        blob += pack_chunk(records_to_bytes(rec), len(rec), compress)
    index_offset = len(blob)
    blob += pack_index(chunks)
    blob += pack_trailer(index_offset, len(records))
    path.write_bytes(bytes(blob))


def raw_records(rows):
    rec = np.zeros(len(rows), dtype=LOG_DTYPE)
    for i, (start, stop, person, place) in enumerate(rows):
        rec[i] = (start, stop, person, 0, place)
    return rec


def corrupt(path, where=0.5):
    blob = bytearray(path.read_bytes())
    blob[int(len(blob) * where)] ^= 0xFF
    path.write_bytes(bytes(blob))


@pytest.fixture(scope="module")
def awkward_logs(tmp_path_factory):
    """Six rank files: tricky spells; a place shared with rank 0 (split
    across files); an empty rank; a compressed file; uint32 extremes with
    spells clipped on both edges; and a file with a flipped byte."""
    logs = tmp_path_factory.mktemp("awkward")
    rng = np.random.default_rng(77)
    span = N_PLACES // 5
    per_rank = []
    for r in range(3):
        rec = tricky_records(rng, n_records=160)
        rec["place"] = rec["place"] % span + r * span
        per_rank.append(rec)
    shared = tricky_records(rng, n_records=40)
    shared["place"] = 3  # rank 0's place, logged by rank 1 as well
    per_rank[1] = np.concatenate([per_rank[1], shared])
    per_rank[2] = per_rank[2][:0]
    write_rank_logs(logs, per_rank, cache_records=50)
    write_raw_log(
        rank_log_path(logs, 3), 3, tricky_records(rng, 120), compress=True
    )
    extremes = make_records(
        [0, 0, U32 - 25, U32 - 10, 5],
        [U32, U32, U32, U32 - 3, U32 - 8],
        [1, 2, 3, 4, 5],
        [0] * 5,
        [U32, U32, U32, U32, 40],
    )
    write_raw_log(rank_log_path(logs, 4), 4, extremes, chunk_records=2)
    write_rank_logs(logs / "tmp", [tricky_records(rng, 90)], cache_records=30)
    (logs / "tmp" / "rank_0000.evl").replace(rank_log_path(logs, 5))
    (logs / "tmp").rmdir()
    corrupt(rank_log_path(logs, 5))
    return logs


@pytest.fixture(scope="module", params=["serial", "thread"])
def pool(request):
    with TaskPool({"serial": 1, "thread": 3}[request.param]) as made:
        yield made


COUNTS = (
    "n_records",
    "n_sliced_records",
    "n_places",
    "colloc_nnz_total",
    "batches",
    "quarantined",
    "skipped_records",
)


def assert_same_run(got, want):
    (net, report), (ref_net, ref_report) = got, want
    assert csr_identical(net.adjacency, ref_net.adjacency)
    for name in COUNTS:
        assert getattr(report, name) == getattr(ref_report, name), name


class TestProductionEqualsReference:
    @pytest.mark.parametrize("batch_size", [1, 2, 16])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_every_window_pool_and_batch(
        self, awkward_logs, pool, window, batch_size
    ):
        t0, t1 = WINDOWS[window]
        args = (awkward_logs, N_PERSONS, t0, t1)
        got = synthesize_from_logs(*args, batch_size=batch_size, pool=pool)
        want = reference.synthesize_from_logs(
            *args, batch_size=batch_size, pool=pool
        )
        assert_same_run(got, want)
        assert got[1].quarantined == [str(rank_log_path(awkward_logs, 5))]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_dense_hours_oracle_on_the_same_walk(self, awkward_logs, window):
        """The oracle reads the files its own way (verify, then decode to
        struct records) and still sees what the walk sees."""
        t0, t1 = WINDOWS[window]
        args = (awkward_logs, N_PERSONS, t0, t1)
        got = synthesize_from_logs(*args, batch_size=2)
        want = reference.synthesize_from_logs(
            *args, batch_size=2, kernel="dense-hours"
        )
        assert_same_run(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_in_memory_records(self, seed, pool):
        rec = tricky_records(np.random.default_rng(300 + seed))
        for t0, t1 in [(0, 96), (7, 61), (13, 14), (500, 600)]:
            got = synthesize_network(rec, N_PERSONS, t0, t1)
            want = reference.synthesize_network(
                rec, N_PERSONS, t0, t1, pool=pool
            )
            assert csr_identical(got[0].adjacency, want[0].adjacency)
            for name in COUNTS[:4]:
                assert getattr(got[1], name) == getattr(want[1], name), name

    @pytest.mark.parametrize(
        "spell", [(20, 20), (30, 12)], ids=["zero-length", "stop-before-start"]
    )
    def test_degenerate_spells_are_refused_alike(self, tmp_path, spell):
        """The writer never emits ``stop <= start``; a file that holds one
        anyway fails synthesis of the windows that see it — as it always
        did — and only those."""
        rows = [(0, 40, 1, 7), (5, 35, 2, 7), (*spell, 3, 7)]
        write_raw_log(rank_log_path(tmp_path, 0), 0, raw_records(rows))
        with pytest.raises(SynthesisError):
            synthesize_from_logs(tmp_path, N_PERSONS, 0, 48)
        for kernel in ("intervals", "dense-hours"):
            with pytest.raises(SynthesisError):
                reference.synthesize_from_logs(
                    tmp_path, N_PERSONS, 0, 48, kernel=kernel
                )
        lo, hi = min(spell), max(spell)
        for t0, t1 in [(0, lo), (hi, 48)]:  # windows the spell misses
            assert_same_run(
                synthesize_from_logs(tmp_path, N_PERSONS, t0, t1),
                reference.synthesize_from_logs(tmp_path, N_PERSONS, t0, t1),
            )
        with pytest.raises(SynthesisError):
            synthesize_network(raw_records(rows), N_PERSONS, 0, 48)

    @pytest.mark.parametrize("masked", [False, True], ids=["full", "layer"])
    def test_tile_window_task(self, awkward_logs, masked):
        """The tile cache's window task against its by-value twin, with
        and without a place filter."""
        mask = None
        if masked:
            mask = np.zeros(U32 + 1, dtype=bool)
            mask[: N_PLACES // 2] = True
        paths = [rank_log_path(awkward_logs, r) for r in range(5)]
        readers = [LogReader(p, use_mmap=True) for p in paths]
        try:
            for t0, t1 in WINDOWS.values():
                got, _walks, _times = _window_task(
                    (readers, t0, t1, N_PERSONS, mask)
                )
                want = reference._window_value_task(
                    reference.window_value_args(
                        readers, t0, t1, N_PERSONS, mask
                    )
                )
                assert csr_identical(got, want)
        finally:
            for reader in readers:
                reader.close()


def payload_bytes(path):
    """Σ chunk payload bytes of one file, from the chunk headers."""
    blob = path.read_bytes()
    with LogReader(path, strict=True) as reader:
        return sum(
            int.from_bytes(blob[c.offset + 8 : c.offset + 12], "little")
            for c in reader.chunks
        )


class TestCrcOnce:
    @pytest.fixture()
    def crc_bytes(self, monkeypatch):
        seen = []
        real = zlib.crc32

        def counting(data, *rest):
            seen.append(memoryview(data).nbytes)
            return real(data, *rest)

        monkeypatch.setattr(zlib, "crc32", counting)
        return seen

    @pytest.mark.parametrize("window", [(30, 54), (0, 96), (400, 500)])
    def test_every_payload_byte_hashed_exactly_once(
        self, tmp_path, crc_bytes, window
    ):
        logs = write_tricky_logs(tmp_path / "logs", seed=61)
        # many small chunks per file, most of them outside a one-day window
        for r in range(6):
            path = rank_log_path(logs, r)
            with LogReader(path) as reader:
                write_raw_log(path, r, np.sort(reader.read_all(), order="stop"), 40)
        total = sum(payload_bytes(rank_log_path(logs, r)) for r in range(6))
        del crc_bytes[:]
        _, report = synthesize_from_logs(logs, N_PERSONS, *window)
        assert report.quarantined == []
        assert sum(crc_bytes) == total

    def test_strict_hashes_only_what_the_window_touches(
        self, tmp_path, crc_bytes
    ):
        logs = write_tricky_logs(tmp_path / "logs", seed=62)
        path = rank_log_path(logs, 0)
        with LogReader(path) as reader:
            write_raw_log(path, 0, np.sort(reader.read_all(), order="stop"), 40)
        with LogReader(path) as reader:
            touched = sum(1 for c in reader.chunks if c.overlaps(100, 124))
            assert 0 < touched < reader.n_chunks
        total = sum(payload_bytes(rank_log_path(logs, r)) for r in range(6))
        del crc_bytes[:]
        synthesize_from_logs(logs, N_PERSONS, 100, 124, strict=True)
        assert 0 < sum(crc_bytes) < total

    def test_damage_outside_the_window_quarantines_for_every_window(
        self, tmp_path
    ):
        logs = tmp_path / "logs"
        rng = np.random.default_rng(63)
        recs = [tricky_records(rng, 150) for _ in range(2)]
        recs[1]["place"] += 50
        logs.mkdir()
        for r, rec in enumerate(recs):
            write_raw_log(
                rank_log_path(logs, r), r, np.sort(rec, order="stop"), 40
            )
        victim = rank_log_path(logs, 1)
        with LogReader(victim) as reader:
            last = reader.chunks[-1]
            assert not last.overlaps(0, 24), "damage must sit outside the day"
        blob = bytearray(victim.read_bytes())
        blob[last.offset + CHUNK_HEADER_BYTES + 3] ^= 0x40
        victim.write_bytes(bytes(blob))
        clean_only = None
        for t0, t1 in [(0, 24), (13, 14), (0, 140), (100, 130), (900, 950)]:
            net, report = synthesize_from_logs(logs, 2 * N_PERSONS, t0, t1)
            assert report.quarantined == [str(victim)], (t0, t1)
            want = reference.synthesize_from_logs(logs, 2 * N_PERSONS, t0, t1)
            assert_same_run((net, report), want)
            if (t0, t1) == (0, 24):
                clean_only = net
        # the day's own chunks were intact; the file is skipped whole anyway
        alone, _ = synthesize_network(recs[0], 2 * N_PERSONS, 0, 24)
        assert csr_identical(clean_only.adjacency, alone.adjacency)


class TestStrictHasOneMeaning:
    """The by-value leg opened files non-strict, so ``strict=True`` silently
    recovered a trailer-less file; the columnar leg raised.  One path, one
    meaning: strict raises, typed, from any pool."""

    @pytest.fixture()
    def torn_logs(self, tmp_path):
        logs = write_tricky_logs(tmp_path / "logs", seed=71, n_ranks=3)
        victim = rank_log_path(logs, 1)
        with LogReader(victim, strict=True) as reader:
            cut = reader.chunks[-1].offset  # drop last chunk, index, trailer
        victim.write_bytes(victim.read_bytes()[:cut])
        return logs, victim

    def test_reference_silently_recovered(self, torn_logs):
        logs, _ = torn_logs
        _, report = reference.synthesize_from_logs(
            logs, N_PERSONS, 0, 96, strict=True
        )
        assert report.quarantined == []  # the divergence being removed

    def test_strict_raises_typed_from_any_pool(self, torn_logs, pool):
        logs, _ = torn_logs
        with pytest.raises(LogTruncatedError):
            synthesize_from_logs(logs, N_PERSONS, 0, 96, strict=True, pool=pool)

    def test_non_strict_quarantines_it(self, torn_logs, pool):
        logs, victim = torn_logs
        got = synthesize_from_logs(logs, N_PERSONS, 0, 96, pool=pool)
        assert got[1].quarantined == [str(victim)]
        assert_same_run(
            got, reference.synthesize_from_logs(logs, N_PERSONS, 0, 96, pool=pool)
        )

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_retrying_pool_neither_retries_nor_wraps(self, torn_logs, kind):
        logs, _ = torn_logs
        corrupt(rank_log_path(logs, 2))
        made = TaskPool(
            {"serial": 1, "thread": 2}[kind], retry=RetryPolicy(max_attempts=3)
        )
        try:
            with pytest.raises(LogTruncatedError) as err:
                synthesize_from_logs(
                    logs, N_PERSONS, 0, 96, strict=True, pool=made
                )
            assert not isinstance(err.value, TaskRetryError)
            assert made.report.n_retries == 0
            with pytest.raises(LogCorruptError):
                synthesize_from_logs(
                    rank_only(logs, 2), N_PERSONS, 0, 96, strict=True, pool=made
                )
            assert made.report.n_retries == 0
        finally:
            made.close()

    def test_retry_policy_never_retries_log_damage(self):
        policy = RetryPolicy(max_attempts=5)
        assert not policy.should_retry(LogCorruptError("bit rot"), 1)
        assert not policy.should_retry(LogTruncatedError("torn"), 1)
        assert policy.should_retry(OSError("transient"), 1)

    def test_file_task_returns_damage_instead_of_raising(self, torn_logs):
        logs, victim = torn_logs
        payload, n, telemetry, error = _file_task(
            (str(victim), 0, 96, True, None)
        )
        assert payload is None and n == 0
        assert isinstance(error, LogTruncatedError)
        assert telemetry["reader"] is None


def rank_only(logs, rank):
    """A directory holding just one rank's file of *logs*."""
    only = logs.parent / f"only_{rank}"
    only.mkdir(exist_ok=True)
    target = rank_log_path(only, rank)
    target.write_bytes(rank_log_path(logs, rank).read_bytes())
    return only
