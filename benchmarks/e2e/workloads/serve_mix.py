"""serve-mix: a closed loop of two clients against a ``repro serve`` child.

Set-up builds a two-week world, saves the population, starts the server as a
child process and touches every pool window once, so the server's tile cache
is fully warm.  A round is two clients, each on its own connection, each
sending its fixed plan of requests and waiting for every reply before the
next (analysis scripts do; a slow server therefore receives less load).  The
only workload where the service — admission, coalescing, executor, ``np.savez``
encode, socket, client decode — does any work.
"""

from __future__ import annotations

import asyncio
import select
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import repro
from repro import ServiceClient, TileCache
from repro.analysis import degree_distribution, ego_network
from repro.errors import ReproError
from repro.service.protocol import decode_network, encode_network

from benchenv import child_env
from harness import (
    build_world,
    same_csr,
    on_cpus,
    vm_hwm_mb,
    world_metrics,
)

NAME = "serve-mix"

WEEK = repro.HOURS_PER_WEEK
TILE_HOURS = 24
CLIENTS = 2
MIX = {"window": 0.5, "degrees": 0.3, "ego": 0.2}


def sizes(quick: bool) -> dict:
    return {
        "persons": 800 if quick else 10_000, "ranks": 4, "weeks": 2,
        "tile_hours": TILE_HOURS, "clients": CLIENTS,
        "requests_per_client": 10 if quick else 40, "mix": MIX,
    }


def window_pool(hours: int) -> list[tuple[int, int]]:
    pool = [(t0, t0 + WEEK) for t0 in range(0, hours - WEEK + 1, 24)]
    return pool + [(6, 6 + WEEK), (0, hours)]


def client_plan(seed: int, client: int, size: dict, pool) -> list[tuple]:
    """``(op, window, person)`` per request; the same plan every round.

    The mix is exact, not sampled, and each op walks the pool evenly, so two
    seeds differ in order, persons and pairing but not in the amount of work.
    """
    rng = np.random.default_rng([seed, client])
    plan = []
    for op, share in MIX.items():
        count = round(share * size["requests_per_client"])
        order = rng.permutation(len(pool))
        plan += [
            (op, pool[order[i % len(pool)]], int(rng.integers(size["persons"])))
            for i in range(count)
        ]
    return [plan[i] for i in rng.permutation(len(plan))]


def start_server(ctx, world, population_path) -> tuple[subprocess.Popen, int]:
    command = [
        sys.executable, "-m", "repro", "serve",
        "--log-dir", str(world.log_dir), "--population", str(population_path),
        "--port", "0", "--tile-hours", str(TILE_HOURS),
        "--threads", "2", "--prefetch", "1",
    ]
    with on_cpus(ctx.affinity["all"]):
        server = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.PIPE, text=True
        )
    ready, _, _ = select.select([server.stdout], [], [], 120)
    line = server.stdout.readline() if ready else ""
    if "serving network queries on" not in line:
        stop_server(server)
        raise RuntimeError(f"`repro serve` did not come up: {line!r}")
    return server, int(line.split()[4].rsplit(":", 1)[1])


def stop_server(server: subprocess.Popen) -> None:
    """Terminate the child and wait until it has ended."""
    if server.poll() is None:
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    server.stdout.close()


async def send(ctx, client, op: str, window, person: int):
    """One request; a refused, shed or expired one comes back as its error."""
    t0, t1 = window
    tic = time.perf_counter()
    try:
        with ctx.span(f"service.{op}"):
            if op == "window":
                reply = await client.query_window(t0, t1)
            elif op == "degrees":
                reply = await client.degree_summary(t0, t1)
            else:
                reply = await client.query_ego(person, t0, t1)
    except ReproError as exc:
        reply = exc
    return (op, time.perf_counter() - tic), reply


async def run_plan(ctx, client, plan):
    return [await send(ctx, client, *request) for request in plan]


def setup(ctx):
    size = sizes(ctx.quick)
    world = build_world(
        ctx, size["persons"], size["ranks"], size["weeks"], ctx.tmp / "serve-logs"
    )
    population_path = repro.save_population(world.pop, ctx.tmp / "serve-world.npz")
    pool = window_pool(world.hours)
    with ctx.span("service.start"):
        server, port = start_server(ctx, world, population_path)
    loop = asyncio.new_event_loop()
    try:
        clients = [
            loop.run_until_complete(
                ServiceClient(port=port, tenant=f"client{i}").connect()
            )
            for i in range(CLIENTS)
        ]
        with ctx.span("service.warm"):
            for t0, t1 in pool:
                loop.run_until_complete(clients[0].query_window(t0, t1))
    except BaseException:
        loop.close()
        stop_server(server)
        raise
    return SimpleNamespace(
        size=size, world=world, pool=pool, server=server, port=port, loop=loop,
        clients=clients, child_pids=[server.pid],
        plans=[client_plan(ctx.seed, i, size, pool) for i in range(CLIENTS)],
        refs=None, expected={},
    )


def teardown(ctx, state) -> None:
    try:
        for client in state.clients:
            state.loop.run_until_complete(client.close())
        state.loop.close()
    finally:
        stop_server(state.server)
        shutil.rmtree(state.world.log_dir)


def run_round(ctx, state, clients: int = CLIENTS):
    async def both():
        return await asyncio.gather(
            *(run_plan(ctx, c, p) for c, p in zip(state.clients[:clients], state.plans))
        )

    per_client = state.loop.run_until_complete(both())
    ops = [op for results in per_client for op, _ in results]
    return ops, [[reply for _, reply in results] for results in per_client]


def reply_matches(state, request, reply) -> bool:
    """Is ``reply`` bit-identical to what cold synthesis gives ``request``?"""
    op, window, person = request
    if isinstance(reply, ReproError):
        return False
    if request not in state.expected:
        ref = state.refs[window]
        if op == "window":
            state.expected[request] = ref.adjacency
        elif op == "degrees":
            dist = degree_distribution(ref.degrees())
            state.expected[request] = (dist.degrees.tolist(), dist.counts.tolist())
        else:
            state.expected[request] = ego_network(ref, person)
    want = state.expected[request]
    if op == "window":
        return (reply.t0, reply.t1) == window and same_csr(reply.adjacency, want)
    if op == "degrees":
        return (reply["degrees"], reply["counts"]) == want
    return np.array_equal(reply.persons, want.persons) and same_csr(
        reply.matrix, want.matrix
    )


def verify_round(ctx, state, replies, first: bool) -> None:
    if first:
        world = state.world
        state.refs = {
            window: repro.synthesize_from_logs(
                world.log_dir, world.pop.n_persons, *window
            )[0]
            for window in state.pool
        }
    for plan, client_replies in zip(state.plans, replies):
        for request, reply in zip(plan, client_replies):
            ctx.check(
                reply_matches(state, request, reply),
                f"serve-mix: reply to {request} differs from cold synthesis: {reply!r:.80}",
            )


def rate(state, round_wall_s: float):
    requests = CLIENTS * state.size["requests_per_client"]
    return "serve_qps", requests / round_wall_s, "1/s"


def _median_ms(fn, repeats: int = 5) -> float:
    walls = []
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - tic)
    return 1000.0 * statistics.median(walls)


def probes(ctx, state, latencies, round_wall_s: float) -> dict:
    world, loop, client = state.world, state.loop, state.clients[0]
    by_op: dict[str, list[float]] = {}
    for op, seconds in latencies:
        by_op.setdefault(op, []).append(1000.0 * seconds)
    everything = [ms for values in by_op.values() for ms in values]

    def connect_once():
        fresh = loop.run_until_complete(ServiceClient(port=state.port).connect())
        loop.run_until_complete(fresh.close())

    # counters of the server across one fixed round of both plans
    before = loop.run_until_complete(client.stats())["stats"]
    _, replies = run_round(ctx, state)
    verify_round(ctx, state, replies, first=False)
    after = loop.run_until_complete(client.stats())["stats"]
    delta = {key: after[key] - before[key] for key in after if key in before}

    single_walls = []
    for _ in range(3):
        tic = time.perf_counter()
        run_round(ctx, state, clients=1)
        single_walls.append(time.perf_counter() - tic)
    qps_1client = state.size["requests_per_client"] / statistics.median(single_walls)

    blob_bytes, blob_seconds = 0, 0.0
    for t0, t1 in state.pool:
        tic = time.perf_counter()
        _, blob = loop.run_until_complete(client.request("window", t0=t0, t1=t1))
        blob_seconds += time.perf_counter() - tic
        blob_bytes += len(blob)

    # the layer below: the same pool composed by a bench-side warm cache
    direct = TileCache(world.log_dir, world.pop.n_persons, tile_hours=TILE_HOURS)
    try:
        direct.warm(0, world.hours)
        direct_ms = []
        for repeat in range(4):
            for t0, t1 in state.pool:
                tic = time.perf_counter()
                with ctx.span("service.compose_direct"):
                    direct.query_window(t0, t1)
                if repeat:  # the first pass fills the fringe partials
                    direct_ms.append(1000.0 * (time.perf_counter() - tic))
    finally:
        direct.close()
    compose_direct_p50_ms = statistics.median(direct_ms)

    week = state.refs[state.pool[0]]
    blob = encode_network(week)
    window_p50_ms = statistics.median(by_op["window"])
    out = world_metrics(ctx, world)
    out.update(
        {
            "service.start_s": ctx.spans.median("service.start"),
            "service.warm_s": ctx.spans.median("service.warm"),
            "service.connect_ms": _median_ms(connect_once),
            "service.window_p50_ms": window_p50_ms,
            "service.degrees_p50_ms": statistics.median(by_op["degrees"]),
            "service.ego_p50_ms": statistics.median(by_op["ego"]),
            "service.p98_ms": float(np.percentile(everything, 98)),
            "service.response_mb_per_s": blob_bytes / 1e6 / blob_seconds,
            "service.qps_1client": qps_1client,
            "service.scaling_ratio": rate(state, round_wall_s)[1] / qps_1client,
            "service.compose_direct_p50_ms": compose_direct_p50_ms,
            "service.overhead_ratio": window_p50_ms / compose_direct_p50_ms,
            "service.protocol.encode_ms": _median_ms(lambda: encode_network(week)),
            "service.protocol.decode_ms": _median_ms(lambda: decode_network(blob)),
            "service.server_peak_rss_mb": vm_hwm_mb(state.server.pid),
            "service.compositions": delta["compositions"],
            "service.coalesced": delta["coalesced"],
            "service.rejected": delta["rejections"],
            "service.shed": delta["shed"],
            "service.expired": delta["expired"],
            "service.errors": delta["errors"],
        }
    )
    return out
