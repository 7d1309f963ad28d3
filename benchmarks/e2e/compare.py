"""Compare two sets of benchmark results.

    python3 benchmarks/e2e/compare.py A B

``A`` (the base) and ``B`` are result files written by ``run.py`` or
directories of them; a directory may hold several runs of a workload.  For
each workload and end-to-end metric this prints both medians, the difference
relative to ``A``, the bound from ``BENCHMARK.json`` and a verdict:

``agree``       ``B`` is not worse than ``A`` by more than the bound
``worse``       it is; also any increase of ``failed_share``
``unresolved``  the run-to-run spread of either set (distance between the
                quartiles over the median) is wider than the bound, so the
                two cannot be told apart — unless every run of ``B`` reads
                better than every run of ``A``

Exact counts of traced runs, when both sets have them, are listed as ``same``
or ``differs``.  The exit code is 1 when any row is ``worse``, 3 when none is
but some row is ``unresolved`` (the runs must be repeated), 0 when every row
agrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from benchenv import ROOT

#: per-layer metrics that must repeat exactly on one commit and one seed
EXACT_COUNTS = (
    "evlog.records",
    "evlog.bytes",
    "distrib.migrations",
    "core.pipeline.records_sliced",
    "core.tilecache.tight_evictions",
    "analysis.edges",
)


def load(path: Path) -> dict[tuple[str, bool], list[dict]]:
    """Result files under ``path``, by ``(workload, traced)``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[tuple[str, bool], list[dict]] = {}
    for file in files:
        if file.name.endswith(".spans.json"):
            continue
        result = json.loads(file.read_text())
        runs.setdefault((result["workload"], result["trace"]), []).append(result)
    return runs


def median_and_spread(runs: list[dict], metric: str) -> tuple[float, float, list[float]]:
    """Median over the runs, their spread, and the values.

    A lone run has no run-to-run spread; what stands in for it is the spread
    of its own samples — for ``op_p50_ms`` that of the round walls, because
    operations of different kinds differ by design, rounds do not.
    """
    values = [r["end_to_end"][metric]["value"] for r in runs]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return median, (q3 - q1) / median, values
    samples = runs[0]["end_to_end"]["round_wall_s" if metric == "op_p50_ms" else metric]
    spread = (samples["q3"] - samples["q1"]) / samples["value"] if "q1" in samples else 0.0
    return values[0], spread, values


def verdict(a, b, lower_is_better: bool, bound: float) -> tuple[float, str]:
    (a_median, a_spread, a_values), (b_median, b_spread, b_values) = a, b
    change = (b_median - a_median) / a_median
    if (change if lower_is_better else -change) > bound:
        return change, "worse"
    all_better = (
        max(b_values) < min(a_values) if lower_is_better
        else min(b_values) > max(a_values)
    )
    if max(a_spread, b_spread) > bound and not all_better:
        return change, "unresolved"
    return change, "agree"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(Path(argv[0])), load(Path(argv[1]))
    worse = unresolved = 0
    print(
        f"{'workload':15s} {'metric':26s} {'A':>12s} {'B':>12s} "
        f"{'(B-A)/A':>9s} {'bound':>6s}  verdict"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get((workload, False)), b_runs.get((workload, False))
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = median_and_spread(a, name), median_and_spread(b, name)
            change, word = verdict(*sides, metric["better"] == "lower", bound)
            worse += word == "worse"
            unresolved += word == "unresolved"
            print(
                f"{workload:15s} {name:26s} {sides[0][0]:12.6g} {sides[1][0]:12.6g} "
                f"{change:+9.2%} {bound:6.2f}  {word}"
                f"  (spread A {sides[0][1]:.1%}, B {sides[1][1]:.1%}, "
                f"n {len(a)}/{len(b)})"
            )
        failed = [max(r["failed_share"] for r in runs) for runs in (a, b)]
        word = "worse" if failed[1] > failed[0] else "agree"
        worse += word == "worse"
        print(
            f"{workload:15s} {'failed_share':26s} {failed[0]:12.6g} {failed[1]:12.6g} "
            f"{'':9s} {'any':>6s}  {word}"
        )
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get((workload, True)), b_runs.get((workload, True))
        if not a or not b:
            continue
        for name in EXACT_COUNTS:
            if name not in a[0]["per_layer"] or name not in b[0]["per_layer"]:
                continue  # not probed by this workload
            counts = [{r["per_layer"][name]["value"] for r in runs} for runs in (a, b)]
            word = "same" if counts[0] == counts[1] and len(counts[0]) == 1 else "differs"
            print(f"{workload:15s} {name:26s} {sorted(counts[0])} {sorted(counts[1])}  {word}")
    return 1 if worse else 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
