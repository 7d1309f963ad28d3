"""Tests for the synthesis pipeline, including the brute-force oracle."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import (
    StreamingSynthesizer,
    TileCache,
    synthesize_from_logs,
    synthesize_layers,
    synthesize_network,
)
from repro.core.pipeline import validate_place_locality
from repro.distrib import RetryPolicy, TaskPool, spatial_partition
from repro.distrib.shardsynth import shard_synthesize
from repro.errors import SynthesisError, TileCacheError
from repro.evlog import LogSet, write_rank_logs
from repro.obs import capture_spans
from repro.sim.events import events_to_grid


def brute_force_collocation(records, n_persons, t0, t1):
    """O(p² t) oracle: count shared place-hours directly."""
    _, plc = events_to_grid(records, n_persons, t0, t1)
    W = np.zeros((n_persons, n_persons), dtype=np.int64)
    for h in range(t1 - t0):
        col = plc[:, h]
        order = np.argsort(col, kind="stable")
        sc = col[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(sc[1:] != sc[:-1]) + 1, [n_persons])
        )
        for i in range(len(starts) - 1):
            members = order[starts[i] : starts[i + 1]]
            if len(members) > 1:
                W[np.ix_(members, members)] += 1
    np.fill_diagonal(W, 0)
    return W


class TestOracle:
    def test_pipeline_matches_brute_force(self, small_pop, week_result):
        t0, t1 = 0, 48
        net, _ = synthesize_network(
            week_result.records, small_pop.n_persons, t0, t1
        )
        expect = brute_force_collocation(
            week_result.records, small_pop.n_persons, t0, t1
        )
        assert (net.symmetric().toarray() == expect).all()

    def test_mid_week_window(self, small_pop, week_result):
        t0, t1 = 50, 90
        net, _ = synthesize_network(
            week_result.records, small_pop.n_persons, t0, t1
        )
        expect = brute_force_collocation(
            week_result.records, small_pop.n_persons, 0, 168
        )
        # oracle must be restricted to the window
        _, plc = events_to_grid(week_result.records, small_pop.n_persons, 0, 168)
        W = np.zeros((small_pop.n_persons,) * 2, dtype=np.int64)
        for h in range(t0, t1):
            col = plc[:, h]
            order = np.argsort(col, kind="stable")
            sc = col[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(sc[1:] != sc[:-1]) + 1, [small_pop.n_persons])
            )
            for i in range(len(starts) - 1):
                members = order[starts[i] : starts[i + 1]]
                if len(members) > 1:
                    W[np.ix_(members, members)] += 1
        np.fill_diagonal(W, 0)
        assert (net.symmetric().toarray() == W).all()


class TestOracleFuzz:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(seed=st.integers(0, 2**31), t0=st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_property_random_logs_match_brute_force(self, seed, t0):
        """For arbitrary valid event streams (not just simulator output),
        the sparse pipeline equals the O(p²t) counting oracle."""
        rng = np.random.default_rng(seed)
        n_persons = int(rng.integers(5, 40))
        n_rec = int(rng.integers(1, 120))
        start = rng.integers(0, 40, n_rec).astype(np.uint32)
        stop = start + rng.integers(1, 12, n_rec).astype(np.uint32)
        from repro.evlog import make_records

        records = make_records(
            start,
            stop,
            rng.integers(0, n_persons, n_rec),
            rng.integers(0, 4, n_rec),
            rng.integers(0, 15, n_rec),
        )
        t1 = t0 + int(rng.integers(1, 30))
        net, _ = synthesize_network(records, n_persons, t0, t1)
        # oracle counts place-hours per pair, allowing a person to appear
        # in several records at once (binary per (person, place, hour))
        W = np.zeros((n_persons, n_persons), dtype=np.int64)
        for h in range(t0, t1):
            live = records[(records["start"] <= h) & (records["stop"] > h)]
            present = {}
            for rec in live:
                present.setdefault(int(rec["place"]), set()).add(
                    int(rec["person"])
                )
            for members in present.values():
                members = sorted(members)
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        W[members[i], members[j]] += 1
                        W[members[j], members[i]] += 1
        assert (net.symmetric().toarray() == W).all()


class TestReport:
    def test_report_counts(self, small_pop, week_result):
        _, report = synthesize_network(
            week_result.records, small_pop.n_persons, 0, 168
        )
        assert report.n_records == len(week_result.records)
        assert report.n_sliced_records == len(week_result.records)
        assert report.n_places > 0
        assert report.colloc_nnz_total == small_pop.n_persons * 168
        assert "timings" in report.summary() or "slice" in report.summary()

    def test_invalid_population(self, week_result):
        with pytest.raises(SynthesisError):
            synthesize_network(week_result.records, 0, 0, 168)


class TestFromLogs:
    @pytest.fixture()
    def log_dir(self, tmp_path, small_pop):
        cfg = repro.SimulationConfig(
            scale=small_pop.scale,
            duration_hours=repro.HOURS_PER_WEEK,
            n_ranks=6,
        )
        part = spatial_partition(
            small_pop.places.coords(),
            small_pop.places.capacity.astype(float),
            6,
        )
        repro.DistributedSimulation(small_pop, cfg, part).run(log_dir=tmp_path)
        return tmp_path

    def test_batched_equals_whole(self, small_pop, week_result, log_dir):
        whole, _ = synthesize_network(
            week_result.records, small_pop.n_persons, 10, 100
        )
        batched, report = synthesize_from_logs(
            log_dir, small_pop.n_persons, 10, 100, batch_size=2
        )
        assert (whole.adjacency != batched.adjacency).nnz == 0
        assert report.batches == 3

    def test_place_locality_holds_for_rank_logs(self, log_dir):
        assert validate_place_locality(LogSet(log_dir), 2)

    def test_place_locality_fails_for_scrambled_logs(
        self, tmp_path, week_result
    ):
        """Randomly split logs spread a place across batches."""
        parts = np.array_split(week_result.records, 4)
        d = tmp_path / "scrambled"
        write_rank_logs(d, parts)
        assert not validate_place_locality(LogSet(d), 1)

    def test_empty_window(self, small_pop, log_dir):
        net, _ = synthesize_from_logs(
            log_dir, small_pop.n_persons, 10_000, 10_001, batch_size=2
        )
        assert net.n_edges == 0


class TestOnePath:
    """There is nothing left to select: the arithmetic knobs and the
    object that carried them are not arguments any more."""

    @pytest.mark.parametrize(
        "knob",
        [{"kernel": "intervals"}, {"backend": "auto"}, {"plan": None},
         {"dispatch": "zero-copy"}, {"cache": None}],
        ids=lambda knob: next(iter(knob)),
    )
    def test_knobs_are_gone(self, knob, week_result):
        rec = week_result.records
        for call in (
            lambda: synthesize_network(rec, 800, 0, 24, **knob),
            lambda: synthesize_from_logs(".", 800, 0, 24, **knob),
            lambda: StreamingSynthesizer(800, **knob),
            lambda: TileCache(".", 800, **knob),
        ):
            with pytest.raises(TypeError):
                call()

    def test_plan_is_not_exported(self):
        assert not hasattr(repro, "SynthesisPlan")
        assert not hasattr(repro.core, "DEFAULT_PLAN")

    def test_cache_pass_through_is_not_exported(self):
        """A caller holding a cache calls ``cache.query_window(t0, t1)``."""
        assert not hasattr(repro, "query_window")
        assert not hasattr(repro.core, "query_window")


class TestConfigurationErrors:
    """Bad configuration is a typed error on the keyword surface, raised
    before any work starts."""

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_bad_batch_size(self, tmp_path, batch_size):
        with capture_spans() as spans:
            for call in (
                lambda: synthesize_from_logs(
                    tmp_path, 10, 0, 24, batch_size=batch_size
                ),
                lambda: StreamingSynthesizer(10, batch_size=batch_size),
            ):
                with pytest.raises(SynthesisError, match="batch_size must be >= 1"):
                    call()
        assert spans == []  # refused before the ``synthesize`` span opened

    @pytest.mark.parametrize(
        "n_persons, t0, t1, message",
        [(800, 48, 24, r"empty time window \[48, 24\)"),
         (800, 24, 24, r"empty time window \[24, 24\)"),
         (0, 0, 24, "n_persons must be positive"),
         (-5, 0, 24, "n_persons must be positive")],
        ids=["reversed", "zero-length", "no-persons", "negative-persons"],
    )
    def test_empty_window_or_population(
        self, tmp_path, small_pop, week_result, n_persons, t0, t1, message
    ):
        """Refused at the root by every entry point, before any span opens
        and before a retrying pool could re-run the refusal in a worker."""
        rec = week_result.records
        log_dir = tmp_path / "logs"
        write_rank_logs(log_dir, np.array_split(rec, 2))
        with TaskPool(retry=RetryPolicy(max_attempts=3)) as pool:
            with capture_spans() as spans:
                for call in (
                    lambda: synthesize_from_logs(log_dir, n_persons, t0, t1, pool=pool),
                    lambda: synthesize_network(rec, n_persons, t0, t1),
                    lambda: synthesize_layers(
                        rec, small_pop.places, n_persons, t0, t1
                    ),
                    lambda: shard_synthesize(log_dir, n_persons, t0, t1, n_shards=2),
                ):
                    with pytest.raises(SynthesisError, match=message):
                        call()
            assert spans == []
            assert pool.report.n_tasks == 0

    def test_tile_hours_below_one(self, tmp_path):
        with pytest.raises(TileCacheError):
            TileCache(tmp_path, 10, tile_hours=0)
