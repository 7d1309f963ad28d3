"""What every workload shares: the run loop, statistics, world building,
environment capture and the checks that feed ``failed``.

A workload module provides ``NAME``, ``sizes(quick)``, ``setup(ctx)``,
``teardown(ctx, state)``, ``run_round(ctx, state)``, ``verify_round(ctx,
state, payload, first)`` and ``probes(ctx, state, latencies, round_wall_s)``;
:func:`run_workload` drives them.  One whose round is a countable amount of
work also provides ``rate(state, round_wall_s)``, a ``(name, value, unit)``.
The state ``setup`` returns has a ``world`` (the logged population the rounds
use) and ``child_pids`` (processes whose peak memory counts).
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import repro
from repro.core.kernels import compiled_impl
from repro.distrib import DistributedSimulation, spatial_partition
from repro.evlog import LogSet

from benchenv import MALLOC_ENV, ROOT, child_env
from spans import SpanRecorder

BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
MIN_ROUNDS = 3

#: Every world is generated from this seed; ``--seed`` picks what is asked of
#: it (ego persons, client plans, window order).  The world is a size, not a
#: sample.  Over population seeds 1-10 the quartile distance of the round wall
#: is 26 % of its median on chain-week, 17 % on serve-mix, 16 % on
#: simlog-month, and the exact ``log_bytes_per_person_day`` moves by 0.8 %
#: against a bound of 0.01: a world that followed ``--seed`` would put the
#: across-seed spreads over their bounds.
POPULATION_SEED = 2017


# -- statistics ----------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median with the quartiles and the sample count beside it."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


# -- the machine -----------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_jiffies() -> tuple[int, int]:
    """``(steal, total)`` jiffies of all cpus since boot."""
    fields = [int(v) for v in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    return fields[7], sum(fields[:8])


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def capture_env() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "steal_jiffies": cpu_jiffies()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": compiled_impl() or "pyref",
        "git_commit": git_commit(),
        "malloc_env": {k: os.environ.get(k) for k in MALLOC_ENV},
    }


def pin_to_one_cpu() -> dict[str, list[int]]:
    """Pin this process to one cpu; a server child keeps them all.

    CPython runs one thread at a time, so the four simulated ranks gain
    nothing from a second core; but when they sit on different cores every
    hand-over of the interpreter lock crosses cores, which on a shared 2-core
    VM doubles the round wall and makes it bistable with the hypervisor's cpu
    placement.  The server is the program as its users start it, so it is
    left alone.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return {"bench": cpus[:1], "all": cpus}


@contextlib.contextmanager
def on_cpus(cpus: list[int]):
    """Widen (or move) this process's affinity for the block; a child
    started inside it inherits ``cpus``."""
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)


def program_startup() -> None:
    """Start the program once in a fresh interpreter: import ``repro`` and
    load (the first time in a checkout: build) the kernel extension.  Part
    of every set-up repeat, so import-time work shows in ``setup_s``."""
    subprocess.run(
        [
            sys.executable, "-c",
            "import repro; from repro.core.kernels import compiled_impl; compiled_impl()",
        ],
        env=child_env(), check=True,
    )


# -- one run ---------------------------------------------------------------------


@dataclass
class Ctx:
    """What a workload sees of the run."""

    seed: int
    quick: bool
    tmp: Path
    spans: SpanRecorder
    #: the one cpu this process is pinned to ("bench"), and "all" of them
    affinity: dict[str, list[int]]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def span(self, name: str):
        return self.spans.span(name)

    def check(self, ok: bool, what: str) -> None:
        """Count one verified operation; a false ``ok`` is a failed one."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class World:
    """A simulated, logged population."""

    pop: object
    config: object
    result: object
    log_dir: Path

    @property
    def hours(self) -> int:
        return self.config.duration_hours


def plan_world(ctx: Ctx, persons: int, ranks: int, weeks: int):
    """generate -> partition: ``(population, partition, config)``."""
    with ctx.span("synthpop.generate"):
        pop = repro.generate_population(
            repro.ScaleConfig(n_persons=persons, seed=POPULATION_SEED)
        )
    with ctx.span("distrib.partition"):
        partition = spatial_partition(
            pop.places.coords(), pop.places.capacity.astype(float), ranks
        )
    config = repro.SimulationConfig(
        scale=pop.scale, duration_hours=weeks * repro.HOURS_PER_WEEK, n_ranks=ranks
    )
    return pop, partition, config


def run_world(ctx: Ctx, pop, partition, config, log_dir: Path) -> World:
    """One distributed run, logging into ``log_dir``."""
    with ctx.span("distrib.run"):
        result = DistributedSimulation(pop, config, partition).run(log_dir=log_dir)
    return World(pop, config, result, log_dir)


def build_world(ctx: Ctx, persons: int, ranks: int, weeks: int, log_dir: Path) -> World:
    """generate -> partition -> distributed run, logging into ``log_dir``."""
    return run_world(ctx, *plan_world(ctx, persons, ranks, weeks), log_dir)


def same_csr(a, b) -> bool:
    """Bit-identity of two canonical CSR matrices."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def world_metrics(ctx: Ctx, world: World) -> dict[str, float]:
    """What building a world cost, and its exact counts: population, log and
    rank-exchange sizes."""
    result, pop = world.result, world.pop
    events = np.array(result.events_per_rank(), dtype=float)
    log_set = LogSet(world.log_dir)
    records, size = log_set.total_records(), log_set.total_bytes()
    return {
        "synthpop.generate_s": ctx.spans.median("synthpop.generate"),
        "distrib.partition_s": ctx.spans.median("distrib.partition"),
        "distrib.run_s": ctx.spans.median("distrib.run"),
        "synthpop.persons": pop.n_persons,
        "synthpop.places": pop.n_places,
        "synthpop.events_per_person_day": result.total_events
        / (pop.n_persons * world.hours / 24.0),
        "sim.person_hours": pop.n_persons * world.hours,
        "sim.records": result.total_events,
        "distrib.migrations": result.total_migrations,
        "distrib.traffic_messages": result.traffic.messages_sent,
        "distrib.traffic_bytes": result.traffic.bytes_sent,
        "distrib.rank_events_imbalance": float(events.max() / events.mean()),
        "evlog.records": records,
        "evlog.bytes": size,
        "evlog.bytes_per_record": size / records,
    }


def report_metrics(report) -> dict[str, float]:
    """Stage and kernel seconds a ``SynthesisReport`` carries."""
    stages, kernel = report.timings.stages, report.kernel_timings
    return {
        "core.pipeline.records_sliced": report.n_sliced_records,
        "core.pipeline.slice_s": stages.get("load", 0.0) + stages.get("slice", 0.0),
        "core.kernels.pack_s": kernel.get("pack_build", 0.0),
        "core.kernels.spgemm_s": kernel.get("spgemm", 0.0),
        "core.kernels.accumulate_s": kernel.get("accumulate", 0.0),
    }


def set_up(wl, ctx: Ctx, repeats: int, trace: bool):
    """Set the workload up ``repeats`` times; keep the last state."""
    state, walls = None, []
    for _ in range(repeats):
        if state is not None:
            wl.teardown(ctx, state)
            state = None
        ctx.spans.enabled = trace
        tic = time.perf_counter()
        with ctx.span("bench.setup"):
            program_startup()
            state = wl.setup(ctx)
        walls.append(time.perf_counter() - tic)
        ctx.spans.enabled = False
    return state, walls


def warm_up(wl, ctx: Ctx, state, seconds: float) -> float:
    """Untimed rounds for ``seconds``; returns the wall of the first.

    The heap needs a few rounds to stop growing, and first-touch page faults
    are so dear on a VM (tens of microseconds each) that a round that grows
    the heap is visibly slow.
    """
    until = time.perf_counter() + seconds
    first_round_s = None
    while first_round_s is None or time.perf_counter() < until:
        tic = time.perf_counter()
        _, payload = wl.run_round(ctx, state)
        wall = time.perf_counter() - tic
        wl.verify_round(ctx, state, payload, first=first_round_s is None)
        # drop a round's outputs before the next round allocates its own
        del payload
        first_round_s = first_round_s or wall
    return first_round_s


def timed_rounds(wl, ctx: Ctx, state, seconds: float, trace: bool):
    """Rounds for ``seconds``: ``(walls, traced?, op latencies)``.

    A traced run alternates traced and untraced rounds, so the cost of
    tracing is measured inside one process.
    """
    walls: list[float] = []
    traced: list[bool] = []
    latencies: list[tuple[str, float]] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_ROUNDS or time.perf_counter() < deadline:
        ctx.spans.enabled = trace and len(walls) % 2 == 0
        traced.append(ctx.spans.enabled)
        tic = time.perf_counter()
        with ctx.span("bench.round"):
            ops, payload = wl.run_round(ctx, state)
        walls.append(time.perf_counter() - tic)
        ctx.spans.enabled = False
        wl.verify_round(ctx, state, payload, first=False)
        del payload
        latencies.extend(ops)
    return walls, traced, latencies


def run_workload(
    wl, seed: int, seconds: float, trace: bool, quick: bool, out: Path
) -> dict:
    """Set up, warm up, time rounds for ``seconds``, verify, probe, report."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{wl.NAME}-", dir=out))
    spans = SpanRecorder(f"{wl.NAME}.seed{seed}")
    env = capture_env()
    affinity = env["affinity"] = pin_to_one_cpu()
    ctx = Ctx(seed=seed, quick=quick, tmp=tmp, spans=spans, affinity=affinity)
    steal0, total0 = cpu_jiffies()
    cpu0 = sum(os.times()[:4])
    state = None
    try:
        state, setup_walls = set_up(wl, ctx, 1 if quick else SETUP_REPEATS, trace)
        first_round_s = warm_up(wl, ctx, state, seconds / 2)
        walls, traced, latencies = timed_rounds(wl, ctx, state, seconds, trace)

        world = state.world
        round_wall = summary(walls)
        end_to_end = {
            "round_wall_s": round_wall,
            "op_p50_ms": summary([1000.0 * s for _, s in latencies]),
            "log_bytes_per_person_day": {
                "value": LogSet(world.log_dir).total_bytes()
                / (world.pop.n_persons * world.hours / 24.0)
            },
            "setup_s": summary(setup_walls),
        }
        rates = {}
        if hasattr(wl, "rate"):
            name, value, unit = wl.rate(state, round_wall["value"])
            rates[name] = {"value": value, "unit": unit}
        per_layer: dict[str, float] = {}
        if trace:
            spans.enabled = True
            per_layer.update(wl.probes(ctx, state, latencies, round_wall["value"]))
            spans.enabled = False
        # the server child, where there is one, must be read while it lives
        end_to_end["peak_rss_mb"] = {
            "value": max(vm_hwm_mb(pid) for pid in ["self", *state.child_pids])
        }
    finally:
        try:
            if state is not None:
                wl.teardown(ctx, state)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        steal1, total1 = cpu_jiffies()
        per_layer.update(
            {
                "obs.trace_overhead_share": statistics.median(
                    w for w, t in zip(walls, traced) if t
                )
                / statistics.median(w for w, t in zip(walls, traced) if not t)
                - 1.0,
                "obs.spans": len(spans.spans),
                "bench.first_round_s": first_round_s,
                "bench.round_iqr_share": (round_wall["q3"] - round_wall["q1"])
                / round_wall["value"],
                "bench.cpu_s": sum(os.times()[:4]) - cpu0,
                "bench.steal_share": (steal1 - steal0) / max(1, total1 - total0),
                "bench.loadavg_start": env["loadavg"][0],
            }
        )
        spans.write(out / f"{wl.NAME}.seed{seed}.trace.spans.json")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted((set(end_to_end) | set(per_layer)) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, entry in end_to_end.items():
        entry["unit"] = units[name]
    per_layer = {
        name: {"value": value, "unit": units[name]} for name, value in per_layer.items()
    }

    failed = len(ctx.failures)
    result = {
        "workload": wl.NAME,
        "seed": seed,
        "population_seed": POPULATION_SEED,
        "trace": trace,
        "quick": quick,
        "seconds": seconds,
        "rounds": len(walls),
        "operations": len(latencies),
        "round_walls_s": walls,
        "sizes": wl.sizes(quick),
        "env": env,
        "correct": failed == 0,
        "attempted": ctx.attempted,
        "failed": failed,
        "failed_share": failed / max(1, ctx.attempted),
        "failures": ctx.failures[:20],
        "end_to_end": end_to_end,
        "rates": rates,
        "per_layer": per_layer,
    }
    suffix = ".trace" if trace else ""
    (out / f"{wl.NAME}.seed{seed}{suffix}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    return result
