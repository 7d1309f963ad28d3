"""Shared benchmark fixtures.

One moderately sized world (the "bench world") is simulated once per
session and reused by every benchmark; per-benchmark parameter sweeps
rescale from it.  Reports comparing against the paper's numbers are
appended to ``benchmarks/reports/`` so a bench run leaves an auditable
record (EXPERIMENTS.md quotes them).
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.sim import Simulation

BENCH_PERSONS = 6_000
REPORT_DIR = Path(__file__).parent / "reports"


def write_report(name: str, text: str) -> Path:
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def bench_pop():
    return repro.generate_population(
        repro.ScaleConfig(n_persons=BENCH_PERSONS, seed=2017)
    )


@pytest.fixture(scope="session")
def bench_week(bench_pop):
    cfg = repro.SimulationConfig(
        scale=bench_pop.scale, duration_hours=repro.HOURS_PER_WEEK
    )
    return Simulation(bench_pop, cfg).run()


@pytest.fixture(scope="session")
def bench_net(bench_pop, bench_week):
    net, _ = repro.synthesize_network(
        bench_week.records, bench_pop.n_persons, 0, repro.HOURS_PER_WEEK
    )
    return net
