"""Command-line interface: the full pipeline as composable subcommands.

The paper's workflow is a chain of batch jobs (simulate on the cluster →
per-rank logs → synthesis jobs → analysis scripts); this CLI mirrors that
chain so each stage can run, be inspected, and be re-run independently::

    python -m repro generate  --persons 10000 --out world.npz
    python -m repro simulate  --population world.npz --ranks 8 \\
                              --log-dir logs/ --weeks 1
    python -m repro synthesize --log-dir logs/ --population world.npz \\
                              --out week.net.npz
    python -m repro analyze   --network week.net.npz --population world.npz
    python -m repro epidemic  --population world.npz --beta 0.01 --weeks 2
    python -m repro export-ego --network week.net.npz --person 123 \\
                              --out ego.gexf
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import (
    CollocationNetwork,
    DiseaseConfig,
    HOURS_PER_WEEK,
    RetryPolicy,
    ScaleConfig,
    Simulation,
    SimulationConfig,
    DistributedSimulation,
    TaskPool,
    compare_fits,
    degree_distribution,
    ego_network,
    generate_population,
    load_population,
    save_population,
    spatial_partition,
    summarize,
    synthesize_from_logs,
)
from .core.pipeline import check_batch_size, check_window
from .errors import LogFormatError, PartitionError, SynthesisError
from .evlog import salvage_rank_logs
from .analysis import (
    age_group_degree_distributions,
    clustering_histogram,
    local_clustering,
)
from .sim import PrevalenceObserver
from .viz import ascii_histogram, ascii_loglog, ascii_series, write_gexf
from .viz.forceatlas2 import forceatlas2_layout

__all__ = ["main", "build_parser"]


def _cmd_generate(args: argparse.Namespace) -> int:
    pop = generate_population(
        ScaleConfig(n_persons=args.persons, seed=args.seed)
    )
    path = save_population(pop, args.out)
    print(f"wrote {path}")
    for key, value in pop.summary().items():
        print(f"  {key:>20}: {value}")
    return 0


def _write_metrics(path: str) -> None:
    """``--metrics-out``: the telemetry registry snapshot of this process."""
    from .obs import default_registry, write_metrics_json

    write_metrics_json(path, default_registry().snapshot())
    print(f"wrote metrics {path} (render: repro metrics --file)")


def _cmd_simulate(args: argparse.Namespace) -> int:
    pop = load_population(args.population)
    config = SimulationConfig(
        scale=pop.scale,
        duration_hours=args.weeks * HOURS_PER_WEEK,
        n_ranks=args.ranks,
        log_cache_records=args.cache,
        log_durability=args.durability,
        checkpoint_every_hours=args.checkpoint_every,
        heartbeat_timeout=args.heartbeat,
    )
    log_dir = Path(args.log_dir)
    checkpointing = args.checkpoint is not None
    if args.resume and not checkpointing:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    if args.ranks == 1:
        log_dir.mkdir(parents=True, exist_ok=True)
        log_path = log_dir / "rank_0000.evl"
        if checkpointing:
            # the per-hour engine supports snapshots; the fast path does not
            result = Simulation(pop, config).run(
                log_path=log_path,
                checkpoint_dir=args.checkpoint,
                resume=args.resume,
            )
            extra = f", {result.checkpoints_written} checkpoint(s)"
            if result.resumed_from_hour is not None:
                extra += f", resumed from hour {result.resumed_from_hour}"
            print(f"serial run: {result.n_events:,} events{extra}")
        else:
            result = Simulation(pop, config).run_fast(log_path=log_path)
            print(f"serial run: {result.n_events:,} events")
    else:
        part = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), args.ranks
        )
        result = DistributedSimulation(pop, config, part).run(
            log_dir=log_dir,
            checkpoint_dir=args.checkpoint,
            max_restarts=args.max_restarts,
        )
        print(
            f"distributed run on {args.ranks} ranks (impl {result.impl}): "
            f"{result.total_events:,} events, "
            f"{result.total_migrations:,} migrations, "
            f"{result.traffic.bytes_sent:,} comm bytes, "
            f"{result.checkpoints_written} checkpoint(s), "
            f"{result.restarts} restart(s)"
        )
    print(f"logs in {log_dir}")
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    repaired = salvage_rank_logs(args.log_dir)
    if not repaired:
        print("nothing to repair: all rank logs are clean")
        return 0
    for path, salvaged in repaired:
        detail = (
            f"{salvaged} record(s) recovered from the WAL sidecar"
            if salvaged
            else "torn tail trimmed, index/trailer rebuilt"
        )
        print(f"repaired {path}: {detail}")
    print(f"{len(repaired)} file(s) repaired")
    return 0


def _synthesize_sharded(args: argparse.Namespace, pop, t0: int, t1: int) -> int:
    from .distrib.shardsynth import shard_synthesize

    if args.checkpoint is not None or args.resume is not None:
        print(
            "error: --checkpoint/--resume are not supported with --shards",
            file=sys.stderr,
        )
        return 2
    net, report = shard_synthesize(
        args.log_dir,
        pop.n_persons,
        t0,
        t1,
        n_shards=args.shards,
        strategy=args.partition,
        strict=args.strict,
        coords=pop.places.coords(),
    )
    print(report.summary())
    if report.quarantined:
        print(
            f"warning: {len(report.quarantined)} damaged log file(s) "
            "quarantined (re-run with --strict to fail instead)"
        )
    path = net.save(args.out)
    print(f"\nwrote {path}")
    print(summarize(net).report())
    return 0


def _strict_damage(exc: LogFormatError) -> int:
    """``--strict`` met a damaged log file: one line naming it, exit 1."""
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _cmd_synthesize(args: argparse.Namespace) -> int:
    pop = load_population(args.population)
    t0 = args.t0
    t1 = args.t1 if args.t1 is not None else t0 + HOURS_PER_WEEK
    try:
        check_batch_size(args.batch_size)
        check_window(pop.n_persons, t0, t1)
        if args.shards > 1:
            return _synthesize_sharded(args, pop, t0, t1)
        retry = None
        if args.retries > 1:
            retry = RetryPolicy(
                max_attempts=args.retries, base_delay=args.retry_delay
            )
        pool = TaskPool(args.workers, retry=retry)
    except (SynthesisError, PartitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LogFormatError as exc:
        return _strict_damage(exc)
    probe = None
    profile_cm: "object" = nullcontext()
    if args.profile:
        from .obs import CollectingProbe, push_probe

        probe = CollectingProbe()
        profile_cm = push_probe(probe)
    try:
        with profile_cm:
            net, report = synthesize_from_logs(
                args.log_dir,
                pop.n_persons,
                t0,
                t1,
                batch_size=args.batch_size,
                pool=pool,
                strict=args.strict,
                checkpoint=args.checkpoint,
                resume=args.resume,
            )
    except LogFormatError as exc:
        return _strict_damage(exc)
    finally:
        pool.close()
    if probe is not None:
        from .core.kernels import backend_info

        info = {"impl": report.impl, **backend_info()}
        print("--- kernel implementation ---")
        for key, value in info.items():
            print(f"  {key:>14}: {value}")
        print("\n--- profile ---")
        for name, e in sorted(probe.stages.items()):
            print(
                f"  {name:>24}: {e['seconds']:.3f}s "
                f"over {e['calls']} call(s)"
            )
        for stage, e in sorted(probe.kernel.items()):
            print(
                f"  {'kernel.' + stage:>24}: {e['seconds']:.3f}s "
                f"over {e['tasks']} task(s)"
            )
        prof_path = Path(args.out).with_suffix(".profile.json")
        prof_path.write_text(
            json.dumps(
                {**info, **probe.to_dict()},
                indent=2,
                sort_keys=True,
                default=str,
            )
            + "\n"
        )
        print(f"wrote profile {prof_path}")
        print()
    print(report.summary())
    if report.quarantined:
        print(
            f"warning: {len(report.quarantined)} damaged log file(s) "
            "quarantined (re-run with --strict to fail instead)"
        )
    path = net.save(args.out)
    print(f"\nwrote {path}")
    print(summarize(net).report())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .core.tilecache import TileCache

    pop = load_population(args.population)
    pool = TaskPool(args.workers)
    cache = TileCache(
        args.log_dir,
        pop.n_persons,
        tile_hours=args.tile_hours,
        budget_nnz=args.budget_nnz,
        cache_dir=args.cache_dir,
        pool=pool,
        strict=args.strict,
    )
    try:
        if cache.quarantined:
            print(
                f"warning: {len(cache.quarantined)} damaged log file(s) "
                "quarantined (re-run with --strict to fail instead)"
            )
        for i, (t0, t1) in enumerate(args.window):
            net = cache.query_window(t0, t1)
            print(
                f"[{t0:>6}, {t1:>6}): {net.n_edges:,} edges, "
                f"{net.total_weight:,} collocated person-pair hours"
            )
            if args.out is not None:
                out = Path(args.out)
                if len(args.window) > 1:
                    out = out.with_name(f"{out.stem}_{t0}_{t1}{out.suffix}")
                print(f"  wrote {net.save(out)}")
        print()
        print(cache.stats.summary())
    finally:
        cache.close()
        pool.close()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    net = CollocationNetwork.load(args.network)
    print(summarize(net).report())

    dist = degree_distribution(net.degrees())
    print("\n--- Figure 3: degree distribution fits ---")
    for name, fit in compare_fits(dist).items():
        print(f"  {name:>22}: {fit!r}")
    print(ascii_loglog(dist.degrees, dist.counts, title="degree counts"))

    print("\n--- Figure 4: clustering ---")
    coeffs = local_clustering(net)
    edges, counts = clustering_histogram(coeffs, degrees=net.degrees())
    print(ascii_histogram(edges, counts, log_counts=True))

    if args.population:
        pop = load_population(args.population)
        print("\n--- Figure 5: age-group degree distributions ---")
        for label, d in age_group_degree_distributions(net, pop.persons).items():
            print(
                f"  {label:>6}: members={d.n_vertices:>8,} "
                f"mean_k={d.mean_degree:>6.1f} max_k={d.max_degree}"
            )
    if args.metrics_out:
        print()
        _write_metrics(args.metrics_out)
    return 0


def _cmd_epidemic(args: argparse.Namespace) -> int:
    pop = load_population(args.population)
    config = SimulationConfig(
        scale=pop.scale,
        duration_hours=args.weeks * HOURS_PER_WEEK,
        disease=DiseaseConfig(
            transmissibility=args.beta, initial_infected=args.seeds
        ),
    )
    observer = PrevalenceObserver()
    result = Simulation(pop, config).run(observers=[observer])
    disease = result.disease
    assert disease is not None
    print(f"final: {disease.counts()}")
    print(f"attack rate: {disease.attack_rate():.1%}")
    print(ascii_series(
        np.array(observer.series["infectious"]), title="infectious over time"
    ))
    return 0


def _cmd_export_ego(args: argparse.Namespace) -> int:
    net = CollocationNetwork.load(args.network)
    person = args.person
    if person is None:
        person = int(np.argmax(net.degrees()))
        print(f"no --person given; using max-degree person {person}")
    ego = ego_network(net, person, radius=args.radius)
    print(f"ego: {ego.n_nodes:,} nodes, {ego.n_edges:,} edges")
    positions = forceatlas2_layout(ego.matrix, iterations=args.iterations)
    path = write_gexf(
        args.out, ego.matrix, positions=positions, node_labels=ego.persons
    )
    print(f"wrote {path} (open in Gephi)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import NetworkQueryService, ServiceConfig

    pop = load_population(args.population)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        tile_hours=args.tile_hours,
        cache_budget_nnz=args.budget_nnz,
        cache_dir=args.cache_dir,
        strict=args.strict,
        tenant_budget_nnz=args.tenant_budget_nnz,
        executor_threads=args.threads,
        prefetch_tiles=args.prefetch,
        default_deadline=args.deadline,
        write_timeout=args.write_timeout,
        queue_limit=args.queue_limit,
        shed_inflight_age=args.shed_age,
        trace_log=args.trace_log,
    )
    service = NetworkQueryService(
        args.log_dir, pop.n_persons, places=pop.places, config=config
    )

    async def run() -> None:
        await service.start()
        print(
            f"serving network queries on {config.host}:{service.port} "
            f"({pop.n_persons:,} persons, logs in {args.log_dir})"
        )
        try:
            await service.wait_stopped()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\ninterrupted; drained and stopped")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .service import FailoverClient, SyncServiceClient

    if args.replicas:
        if args.op in ("reload", "shutdown"):
            print(
                f"error: {args.op!r} is not idempotent; send it to one "
                "replica with --host/--port, not --replicas",
                file=sys.stderr,
            )
            return 2
        replicas = [r.strip() for r in args.replicas.split(",") if r.strip()]
        client = SyncServiceClient(
            cls=FailoverClient, replicas=replicas, tenant=args.tenant,
            retries=args.retries, deadline=args.deadline,
        )
    else:
        client = SyncServiceClient(
            host=args.host, port=args.port, tenant=args.tenant,
            retries=args.retries, deadline=args.deadline,
        )
    try:
        op = args.op
        if op == "ping":
            print(client.ping())
        elif op == "live":
            print(client.liveness())
        elif op == "ready":
            print(client.readiness())
        elif op == "stats":
            stats = client.stats()
            for key, value in sorted(stats["stats"].items()):
                print(f"  {key:>18}: {value}")
            for tenant, usage in sorted(stats.get("tenants", {}).items()):
                print(f"  tenant {tenant}: {usage}")
        elif op == "metrics":
            from .obs import render_metrics

            print(render_metrics(client.metrics()["metrics"]))
        elif op == "reload":
            print(client.reload())
        elif op == "shutdown":
            print(client.shutdown())
        elif op == "window":
            net = client.query_window(args.t0, args.t1)
            print(
                f"[{net.t0:>6}, {net.t1:>6}): {net.n_edges:,} edges, "
                f"{net.total_weight:,} collocated person-pair hours"
            )
            if args.out:
                print(f"wrote {net.save(args.out)}")
        elif op == "layer":
            net = client.query_layer(args.kind, args.t0, args.t1)
            print(
                f"{args.kind} [{net.t0:>6}, {net.t1:>6}): "
                f"{net.n_edges:,} edges"
            )
            if args.out:
                print(f"wrote {net.save(args.out)}")
        elif op == "ego":
            ego = client.query_ego(args.person, args.t0, args.t1)
            print(
                f"ego of person {args.person}: {ego.n_nodes:,} nodes, "
                f"{ego.n_edges:,} edges"
            )
        elif op == "degrees":
            summary = client.degree_summary(args.t0, args.t1)
            for key in (
                "n_vertices", "n_isolated", "n_edges",
                "mean_degree", "max_degree",
            ):
                print(f"  {key:>12}: {summary[key]}")
        else:  # pragma: no cover - argparse restricts choices
            raise AssertionError(op)
    finally:
        client.close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import read_spans_jsonl, render_traces

    spans = read_spans_jsonl(args.spans)
    if not spans:
        print(f"no spans in {args.spans}", file=sys.stderr)
        return 1
    print(render_traces(spans, trace_id=args.id, last=args.last))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import render_metrics

    if args.file:
        snapshot = json.loads(Path(args.file).read_text())
        # accept both a raw registry snapshot and a `metrics` response
        snapshot = snapshot.get("metrics", snapshot)
    else:
        from .service import SyncServiceClient

        client = SyncServiceClient(host=args.host, port=args.port)
        try:
            snapshot = client.metrics()["metrics"]
        finally:
            client.close()
    print(render_metrics(snapshot))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Endogenous social networks from agent-based models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic population")
    p.add_argument("--persons", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("simulate", help="run the model, writing EVL logs")
    p.add_argument("--population", required=True)
    p.add_argument("--weeks", type=int, default=1)
    p.add_argument("--ranks", type=int, default=1)
    p.add_argument("--cache", type=int, default=10_000)
    p.add_argument("--log-dir", required=True)
    p.add_argument(
        "--durability", choices=["none", "fsync", "wal"], default="none",
        help="event-log durability: none (fast), fsync per chunk, or a "
        "write-ahead journal that makes every acknowledged record "
        "crash-safe",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="commit resumable snapshots to DIR (see --checkpoint-every)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=24, metavar="HOURS",
        help="simulated hours between snapshots (default: 24)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="serial only: continue from the snapshot in --checkpoint DIR",
    )
    p.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="distributed only: rank liveness deadline per collective",
    )
    p.add_argument(
        "--max-restarts", type=int, default=0,
        help="distributed only: supervised restarts from the last "
        "checkpoint after a detected rank failure",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the telemetry registry snapshot (distributed runs: "
        "distrib.rank_hours, changes, migrants_out, alltoall_bytes, "
        "per-rank loop seconds) as JSON",
    )
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "repair", help="salvage torn EVL rank logs after a crash"
    )
    p.add_argument("--log-dir", required=True)
    p.set_defaults(fn=_cmd_repair)

    p = sub.add_parser("synthesize", help="logs → collocation network")
    p.add_argument("--log-dir", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--t1", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker threads for the per-batch synthesis stages "
        "(default: 1, every task inline)",
    )
    p.add_argument(
        "--retries", type=int, default=3,
        help="total attempts per worker task (1 disables retries)",
    )
    p.add_argument(
        "--retry-delay", type=float, default=0.05,
        help="base backoff before the first retry, seconds",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="print which kernel implementation ran (C extension or "
        "numpy/scipy twin) and per-stage kernel timings alongside the "
        "synthesis report",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on the first damaged log file instead of quarantining it",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="persist a resumable checkpoint after every completed batch",
    )
    p.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume from a checkpoint directory (config must match)",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="partition places across N forked shard processes, each "
        "owning its own log slices and interval packs; the reduce stage "
        "merges per-shard CSRs bit-identically to single-process "
        "synthesis (default: 1, sharding off)",
    )
    p.add_argument(
        "--partition", choices=["spatial", "refined", "round-robin"],
        default="refined",
        help="place→shard partition strategy for --shards: weighted "
        "recursive coordinate bisection (spatial), bisection plus "
        "greedy work rebalancing (refined, default), or round-robin",
    )
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser(
        "query",
        help="arbitrary-window network queries through the temporal "
        "tile cache",
    )
    p.add_argument("--log-dir", required=True)
    p.add_argument("--population", required=True)
    p.add_argument(
        "--window", type=int, nargs=2, action="append", required=True,
        metavar=("T0", "T1"),
        help="query window [T0, T1) in simulation hours; repeatable — "
        "later windows reuse tiles built for earlier ones",
    )
    p.add_argument(
        "--tile-hours", type=int, default=24,
        help="base tile width in simulation hours (default: 24)",
    )
    p.add_argument(
        "--budget-nnz", type=int, default=None,
        help="in-memory cache budget in stored matrix nonzeros "
        "(default: unbounded)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist tiles to DIR; a stale log-set digest invalidates "
        "them automatically",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker threads for tile construction (default: 1, every "
        "task inline)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on the first damaged log file instead of quarantining it",
    )
    p.add_argument(
        "--out", default=None,
        help="save the queried network(s); multiple windows get a "
        "_T0_T1 suffix",
    )
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser(
        "serve",
        help="long-running network-query service over warm tile caches",
    )
    p.add_argument("--log-dir", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7227,
        help="listen port (0 picks an ephemeral port; default: 7227)",
    )
    p.add_argument("--tile-hours", type=int, default=24)
    p.add_argument(
        "--budget-nnz", type=int, default=None,
        help="per-cache in-memory tile budget in stored nonzeros",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist tiles under DIR (one subdirectory per cache)",
    )
    p.add_argument("--strict", action="store_true")
    p.add_argument(
        "--tenant-budget-nnz", type=int, default=None,
        help="admission control: cap each tenant's estimated in-flight "
        "result nonzeros; over-budget queries are rejected with a "
        "retry-after hint",
    )
    p.add_argument(
        "--threads", type=int, default=2,
        help="executor threads composing windows (default: 2)",
    )
    p.add_argument(
        "--prefetch", type=int, default=1,
        help="tiles to warm ahead/behind each queried span (0 disables)",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="server-side cap on every request's deadline budget (also "
        "the default for requests carrying none)",
    )
    p.add_argument(
        "--write-timeout", type=float, default=30.0, metavar="SECONDS",
        help="abort a connection whose response write stalls this long "
        "(default: 30)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=256,
        help="load shedding: max admitted-but-unfinished queries before "
        "new ones are rejected with code=overload (default: 256)",
    )
    p.add_argument(
        "--shed-age", type=float, default=None, metavar="SECONDS",
        help="load shedding: also shed while the oldest in-flight "
        "request is older than this",
    )
    p.add_argument(
        "--trace-log", default=None, metavar="FILE",
        help="append every finished request span to FILE as JSONL "
        "(render with `repro trace FILE`)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "client", help="query a running `repro serve` instance"
    )
    p.add_argument(
        "op",
        choices=[
            "ping", "live", "ready", "window", "layer", "ego", "degrees",
            "stats", "metrics", "reload", "shutdown",
        ],
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7227)
    p.add_argument(
        "--replicas", default=None, metavar="HOST:PORT,HOST:PORT,...",
        help="query a replica set with circuit-breaking failover "
        "instead of a single server (idempotent ops only)",
    )
    p.add_argument("--tenant", default="cli")
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--t1", type=int, default=HOURS_PER_WEEK)
    p.add_argument(
        "--kind", default="home",
        choices=["home", "school", "workplace", "other"],
        help="layer op: place kind to query",
    )
    p.add_argument("--person", type=int, default=0, help="ego op: center")
    p.add_argument(
        "--retries", type=int, default=3,
        help="automatic retries after admission/overload rejections "
        "(default: 3)",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request budget; the server rejects work it cannot "
        "finish in time instead of queueing it",
    )
    p.add_argument("--out", default=None, help="save the fetched network")
    p.set_defaults(fn=_cmd_client)

    p = sub.add_parser(
        "trace", help="render span trees from a JSONL trace log"
    )
    p.add_argument(
        "spans", metavar="SPANS_JSONL",
        help="trace log written by `repro serve --trace-log` or any "
        "JsonlSpanSink",
    )
    p.add_argument(
        "--id", default=None, metavar="TRACE_ID",
        help="render one trace (e.g. the trace_id echoed in a service "
        "response); default renders the most recent ones",
    )
    p.add_argument(
        "--last", type=int, default=5,
        help="without --id: how many of the most recent traces to "
        "render (default: 5)",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="dump a metrics-registry snapshot (live service or file)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7227)
    p.add_argument(
        "--file", default=None, metavar="JSON",
        help="render a saved snapshot (e.g. a --profile artifact or "
        "a saved `metrics` response) instead of querying a server",
    )
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("analyze", help="network statistics and figures")
    p.add_argument("--network", required=True)
    p.add_argument("--population", default=None)
    p.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the telemetry registry snapshot (analysis kernel "
        "seconds, triangle and ego-node counters) as JSON",
    )
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("epidemic", help="run an SEIR outbreak")
    p.add_argument("--population", required=True)
    p.add_argument("--weeks", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(fn=_cmd_epidemic)

    p = sub.add_parser("export-ego", help="ego network → GEXF for Gephi")
    p.add_argument("--network", required=True)
    p.add_argument("--person", type=int, default=None)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--iterations", type=int, default=80)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_ego)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
