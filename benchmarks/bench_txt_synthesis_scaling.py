"""TXT-SYNTH — synthesis pipeline scaling with workers.

Paper Sections IV-V: the R/SNOW/Rmpi pipeline distributes per-place
collocation work and nnz-balanced adjacency work across workers; batches
of log files are processed independently ("each batch of 16 can be run as
separate batch jobs").  Here we measure:

* end-to-end synthesis wall time inline and on 2 worker threads — who
  wins and by how much on this machine;
* that threaded output is bit-identical to inline (determinism);
* stage timing breakdown, mirroring the paper's 30-min-per-batch anatomy.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.distrib import TaskPool, spatial_partition

from conftest import write_report

N_RANKS = 8


@pytest.fixture(scope="module")
def rank_logs(bench_pop, tmp_path_factory):
    """One week of the bench world logged by eight ranks — the per-rank
    files the pipeline's file tasks walk."""
    log_dir = tmp_path_factory.mktemp("rank-logs")
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale, duration_hours=repro.HOURS_PER_WEEK, n_ranks=N_RANKS
    )
    part = spatial_partition(
        bench_pop.places.coords(), bench_pop.places.capacity.astype(float), N_RANKS
    )
    repro.DistributedSimulation(bench_pop, cfg, part).run(log_dir=log_dir)
    return log_dir


def test_txt_synthesis_worker_scaling(benchmark, bench_pop, rank_logs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n = bench_pop.n_persons
    t1 = repro.HOURS_PER_WEEK

    results = {}
    inline_net, inline_report = None, None
    for kind, workers in (("inline", 1), ("threads", 2)):
        with TaskPool(workers) as pool:
            t0 = time.perf_counter()
            net, report = repro.synthesize_from_logs(rank_logs, n, 0, t1, pool=pool)
            results[kind] = time.perf_counter() - t0
        if kind == "inline":
            inline_net, inline_report = net, report
        else:
            assert (net.adjacency != inline_net.adjacency).nnz == 0

    lines = [
        "TXT-SYNTH: synthesis wall time by worker count",
        f"  records={inline_report.n_records:,}  places={inline_report.n_places:,}"
        f"  rank files={N_RANKS}",
        *(
            f"  {kind:>8}: {secs:.3f} s  (speedup vs inline: "
            f"{results['inline'] / secs:.2f}x)"
            for kind, secs in results.items()
        ),
        "  --- inline stage breakdown ---",
        *("  " + ln for ln in inline_report.timings.report().splitlines()),
        "  paper: ~30 min per 16-file batch on 64 processes; batches",
        "  independent, so jobs run concurrently on the cluster queue.",
    ]
    write_report("txt_synthesis_scaling", "\n".join(lines))

    # threads must not be catastrophically slower than inline (2-CPU box;
    # only the file walks run in the threads, and they share the GIL for
    # the non-numpy parts, so the paper's cluster-scale speedups do not
    # appear here — the *shape* claim is that the pipeline parallelizes
    # without changing its output)
    assert results["threads"] < results["inline"] * 5.0


def test_txt_synthesis_batches_sum_like_one_job(
    benchmark, bench_pop, bench_week, rank_logs
):
    """Batch independence: synthesizing per-rank file batches and summing
    equals one whole-log synthesis (paper's multi-job design)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    whole, _ = repro.synthesize_network(
        bench_week.records, bench_pop.n_persons, 0, repro.HOURS_PER_WEEK
    )
    batched, report = repro.synthesize_from_logs(
        rank_logs, bench_pop.n_persons, 0, repro.HOURS_PER_WEEK, batch_size=2
    )
    assert report.batches == 4
    assert (whole.adjacency != batched.adjacency).nnz == 0


def test_txt_synthesis_throughput(benchmark, bench_pop, bench_week):
    """The headline pipeline benchmark: records → network, serial."""
    net, _ = benchmark.pedantic(
        repro.synthesize_network,
        args=(bench_week.records, bench_pop.n_persons, 0, repro.HOURS_PER_WEEK),
        rounds=3,
        iterations=1,
    )
    assert net.n_edges > 0


def test_txt_synthesis_threaded_throughput(benchmark, bench_pop, rank_logs):
    """From the rank logs, two threads walking the files."""
    with TaskPool(2) as pool:
        net, _ = benchmark.pedantic(
            repro.synthesize_from_logs,
            args=(rank_logs, bench_pop.n_persons, 0, repro.HOURS_PER_WEEK),
            kwargs={"pool": pool},
            rounds=3,
            iterations=1,
        )
    assert net.n_edges > 0
