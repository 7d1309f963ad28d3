"""One end-to-end benchmark for the whole chain.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--out DIR]

Each workload runs in a fresh child process under a pinned glibc allocator.
The child prints every metric by name with its unit, checks its outputs, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics (0 for one the workload does not probe).  The exit code is
non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchenv import BENCH_DIR, ROOT, SRC, child_env


def print_result(result: dict) -> None:
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['rounds']} rounds  {result['operations']} operations  "
        f"{'traced' if result['trace'] else 'untraced'}"
    )
    for group in ("end_to_end", "rates", "per_layer"):
        for name, m in result[group].items():
            spread = f"  [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}]" if "q1" in m else ""
            print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}{spread}")
    print(
        f"  {'failed_share':36s} {result['failed_share']:>14.6g} "
        f"({result['failed']} of {result['attempted']} checked operations)"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def run_child(args: argparse.Namespace, spec: dict) -> int:
    from harness import run_workload
    from workloads import WORKLOADS

    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        args.quick, Path(args.out),
    )
    print_result(result)
    # the driver wants every name of the group on the last line; the result
    # file keeps only what this workload measured
    group = "per_layer" if args.trace else "end_to_end"
    measured = {name: m["value"] for name, m in result[group].items()}
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
        for m in spec[group]
    }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all five")
    parser.add_argument(
        "--seed", type=int, default=2017,
        help="what is asked of the world: ego persons, client plans, window order",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"time spent on timed rounds (default {spec['run_seconds']}, quick 1)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="a separate run that adds bench-side spans and per-layer probes",
    )
    parser.add_argument("--quick", action="store_true", help="tiny world, same code path")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: the program is not in this checkout ({SRC})", file=sys.stderr)
        return 2
    if args.child:
        return run_child(args, spec)

    status = 0
    for name in [args.workload] if args.workload else names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", args.out,
        ] + (["--quick"] if args.quick else [])
        status = max(status, subprocess.run(command, env=child_env()).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
