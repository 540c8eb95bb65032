"""Compare two result sets of the repo benchmark.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the JSON records ``perfbench/run.py`` writes to
``perfbench/results/``.  For every workload and end-to-end metric the
report gives each side's median and quartiles and a verdict:

* ``improved`` -- the change wins at least nine tenths of the pairs
  (runs paired by seed, then in the order they were made; ties count
  for neither)
  and the medians differ by more than the base's quartile distance;
* ``worse`` -- the change's median is worse than the base's by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` -- either side's quartile distance exceeds the bound,
  and not every run of the change beats every run of the base;
* ``unchanged`` -- otherwise.

Counts from traced runs (unit ``count``) are compared as counts: equal
or not, with both values.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import quartiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> list:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    # pairs match runs of the same seed, which saw the same inputs
    return sorted(records, key=lambda record: (record["seed"], record["finished_unix"]))


def _series(records: list, workload: str, trace: int, metric: str) -> list:
    return [
        record["metrics"][metric]["value"]
        for record in records
        if record["workload"] == workload
        and record["trace"] == trace
        and metric in record["metrics"]
    ]


def verdict(base: list, change: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    gain = sign * (c2 - b2)
    if gain < -bound * abs(b2):
        return "worse"
    spread_base = (b3 - b1) / abs(b2) if b2 else float("inf")
    spread_change = (c3 - c1) / abs(c2) if c2 else float("inf")
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if spread_base > bound or spread_change > bound:
        return "improved" if all_better else "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and gain > (b3 - b1):
        return "improved"
    return "unchanged"


def compare(base: list, change: list, benchmark: dict) -> list:
    lines = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    header = f"{'workload':9} {'metric':22} {'base q1/median/q3':>34} {'change q1/median/q3':>34}  verdict"
    lines.append(header)
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            b = _series(base, workload, 0, name)
            c = _series(change, workload, 0, name)
            if not b or not c:
                lines.append(f"{workload:9} {name:22} {'(no runs on one side)':>70}")
                continue
            text = [
                "/".join(f"{v:.4g}" for v in quartiles(side)) + f" n={len(side)}"
                for side in (b, c)
            ]
            result = verdict(b, c, metric["better"], metric["bound"])
            lines.append(f"{workload:9} {name:22} {text[0]:>34} {text[1]:>34}  {result}")
    lines.append("")
    lines.append("counts (traced runs):")
    for workload in workloads:
        for metric in benchmark["per_layer"]:
            if metric["unit"] != "count":
                continue
            b = sorted(set(_series(base, workload, 1, metric["name"])))
            c = sorted(set(_series(change, workload, 1, metric["name"])))
            if not b or not c:
                continue
            state = "same" if b == c else "changed"
            lines.append(f"{workload:9} {metric['name']:32} {b} -> {c}  {state}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    parser.add_argument("base", help="directory of the base commit's result records")
    parser.add_argument("change", help="directory of the change's result records")
    parser.add_argument(
        "--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
        help="benchmark definition with bounds (default: BENCHMARK.json)",
    )
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    print("\n".join(compare(load(args.base), load(args.change), benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
