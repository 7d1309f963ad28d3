"""Where the benchmark lives and the environment of every process it starts.

Kept apart from the harness so that the parent process, which only spawns
one child per workload, does not import the program.
"""

from __future__ import annotations

import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"

#: glibc's allocator, pinned.  Without the thresholds the analysis stage's
#: large intermediates are mmapped and unmapped on every call; without the
#: single arena the heaps of the four rank threads are unmapped when a round
#: ends and mapped again by the next.  Either way page-fault cost (tens to
#: hundreds of microseconds a page on a VM), not the program, sets the round
#: wall.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "4294967296",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
    "MALLOC_TOP_PAD_": "268435456",
    "MALLOC_ARENA_MAX": "1",
}


def child_env() -> dict[str, str]:
    """The pinned allocator, ``src`` importable, and the kernel extension
    built under the benchmark's own ``out/`` (the program's default is
    ``~/.cache``, outside the checkout)."""
    env = dict(os.environ, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REPRO_KERNEL_CACHE"] = str(BENCH_DIR / "out" / "repro-kernels")
    env["PYTHONUNBUFFERED"] = "1"
    return env
