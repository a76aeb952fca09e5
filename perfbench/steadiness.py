#!/usr/bin/env python3
"""Steadiness report over result files written by ``run.py``.

    python3 perfbench/steadiness.py .perfbench-out/results/*-trace0-*.json

Per workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median
and the metric's bound from ``BENCHMARK.json``.  A metric whose spread
exceeds its bound is flagged (``setup_s`` too, although the acceptance
check exempts its spread), one above a third of its bound is marked
``tight``.  Exit status 1 when anything is flagged or a run was not
correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from helpers import spread

ROOT = Path(__file__).resolve().parent.parent


def report(paths: List[Path], bench: Dict[str, object]) -> int:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    by_workload: Dict[str, List[Dict[str, object]]] = {}
    for path in paths:
        record = json.loads(path.read_text())
        if record["context"]["trace"]:
            continue
        by_workload.setdefault(record["context"]["workload"], []).append(record)
    flagged = 0
    for workload, records in sorted(by_workload.items()):
        seeds = sorted(r["context"]["seed"] for r in records)
        bad = [r for r in records if not r["correct"]]
        print(f"{workload}: {len(records)} runs, seeds {seeds}, {len(bad)} not correct")
        flagged += len(bad)
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
            if len(values) < 2:
                print(f"  {name:<16} only {len(values)} value(s)")
                flagged += 1
                continue
            s = spread(values)
            mark = ""
            if s["spread"] > meta["bound"]:
                mark = "FLAGGED"
                flagged += 1
            elif s["spread"] > meta["bound"] / 3:
                mark = "tight"
            print(
                f"  {name:<16} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                f"{s['spread']:>8.4f} {meta['bound']:>6g} {mark}"
            )
    return 1 if flagged else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="steadiness of benchmark results")
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return report(args.results, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
