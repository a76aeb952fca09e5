#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

From the root of a checkout::

    python3 perfbench/run.py --workload clip --seed 1 --seconds 20 --trace 0

Workloads: ``clip``, ``fullchip``, ``service`` (see ``BENCHMARK.json``
for why each exists).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the separate traced run that times the calls into each
layer and reports the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable table with sample counts, cache state and
the run context comes before it.  The full record (context, every
sample, gates) is written under ``.perfbench-out/results/``, and a
traced run's spans under ``.perfbench-out/spans/``.

The program is imported from ``src/`` of the same checkout; without it
the command fails.  Exit status: 0 when every correctness gate passed,
1 when one failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("clip", "fullchip", "service")
#: Reference-table section whose inputs each workload solves.
REFERENCE_SECTION = {"clip": "clip", "fullchip": "fullchip", "service": "fullchip"}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or raise."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {src}")


def end_to_end(run, quality_vs_ref: float) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_s),
        "solve_s_p50": statistics.median(run.solve_s),
        "quality_vs_ref": quality_vs_ref,
        "peak_rss_mb": run.peak_rss_mb,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        load_program()
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (RuntimeError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from helpers import Context, check_metric_name, count_failures, quality_totals, run_context, timing
    from reference import load_reference

    module = importlib.import_module(f"workload_{args.workload}")
    out_dir = ROOT / ".perfbench-out"
    ctx = Context(
        root=ROOT,
        tmp_dir=out_dir / "tmp" / f"{args.workload}-{os.getpid()}",
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    ctx.tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = module.run(ctx)
    finally:
        shutil.rmtree(ctx.tmp_dir, ignore_errors=True)

    reference = load_reference()[REFERENCE_SECTION[args.workload]]
    run.gate("reference_covers_inputs", set(run.parts) <= set(reference),
             f"no reference for {sorted(set(run.parts) - set(reference))}")
    solved = quality_totals(run.parts.values())
    pinned = quality_totals(reference[k] for k in run.parts if k in reference)
    attempted, failed = count_failures(run.outcomes)
    correct = (
        attempted >= 1
        and failed == 0
        and bool(run.solve_s)
        and all(ok for _, ok, _ in run.gates)
    )
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    values: Dict[str, float] = {}
    if correct:
        if args.trace:
            n = max(1, len(run.parts))
            values = {name["name"]: 0.0 for name in spec}
            values.update(run.per_layer)
            values["metrics.quality_score"] = solved["quality_score"] / n
            values["metrics.pvband_nm2"] = solved["pv_band_nm2"] / n
            values["metrics.epe_violations"] = solved["epe_violations"] / n
        else:
            values = end_to_end(run, solved["quality_score"] / pinned["quality_score"])
    metrics = {
        check_metric_name(m["name"]): {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec
        if m["name"] in values
    }
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    record = {
        "context": run_context(ROOT, args.workload, why, args.seed, bool(args.trace)),
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else None,
        "metrics": metrics,
        "timings": {
            "setup_s": timing(run.setup_s),
            "setup_wall_s": timing(run.setup_wall_s),
            "solve_s": timing(run.solve_s),
            "solve_wall_s": timing(run.solve_wall_s),
            **{name: timing(v) for name, v in run.timings.items()},
        },
        "samples": {
            "setup_s": run.setup_s,
            "setup_wall_s": run.setup_wall_s,
            "solve_s": run.solve_s,
            "solve_wall_s": run.solve_wall_s,
            **run.timings,
        },
        "quality": {"solved": solved, "reference": pinned, "per_input": run.parts},
        "gates": [{"name": n, "passed": ok, "detail": d} for n, ok, d in run.gates],
        "cache_state": run.cache_state,
        "not_measured": run.not_measured,
        "inputs": run.inputs,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    if run.tracer is not None:
        span_path = out_dir / "spans" / f"{stem}.spans.json"
        run.tracer.write(span_path, {"workload": args.workload, "seed": args.seed})
        problems = run.tracer.write_chrome_trace(out_dir / "spans" / f"{stem}.trace.json")
        record["span_file"] = str(span_path.relative_to(ROOT))
        record["chrome_trace_problems"] = problems
        from spans import layer_table

        record["layers"] = layer_table(run.tracer.spans)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print_report(record, run)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_report(record: Dict[str, object], run) -> None:
    ctx = record["context"]
    print(f"perfbench {ctx['workload']} seed={ctx['seed']} trace={int(ctx['trace'])}: {ctx['why']}")
    print(
        f"  repro {ctx['repro']} numpy {ctx['numpy']} scipy {ctx['scipy']} backend {ctx['backend']} "
        f"scale {ctx['scale']} cores {ctx['usable_cores']} commit {ctx['git_commit']}"
    )
    print(f"  thread env as found: {ctx['thread_env']}")
    print(f"  inputs: {' '.join(record['inputs'])}")
    timings = record["timings"]
    samples = {
        "setup_s": timings["setup_s"]["n"],
        "solve_s_p50": timings["solve_s"]["n"],
        "quality_vs_ref": len(record["quality"]["per_input"]),
    }
    wall = {"setup_s": "setup_wall_s", "solve_s_p50": "solve_wall_s"}
    for name, entry in record["metrics"].items():
        n = f"n={samples[name]}" if name in samples else ""
        raw = f"(wall p50 {timings[wall[name]]['p50']:.6g} s) " if name in wall else ""
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']:<6} {n:<5} {raw}{run.cache_state.get(name, '')}")
    for name, t in timings.items():
        if t["n"] and name not in ("setup_s", "solve_s", "setup_wall_s", "solve_wall_s"):
            tail = f", p{t['tail']['p']:g} {t['tail']['value']:.6g} s" if t["tail"] else ""
            print(f"  {name:<34} p50 {t['p50']:.6g} s{tail} n={t['n']}  {run.cache_state.get(name, '')}")
    q = record["quality"]["solved"]
    print(
        f"  quality: score {q['quality_score']:.0f} (Eq. 22 without runtime), #EPE {q['epe_violations']}, "
        f"PVB {q['pv_band_nm2']:.0f} nm^2, shapes {q['shape_violations']}; "
        f"error_rate {record['error_rate']} ({record['failed']}/{record['attempted']})"
    )
    for name, why in record["not_measured"].items():
        print(f"  not measured here: {name} ({why})")
    for layer, row in record.get("layers", {}).items():
        print(f"  layer {layer:<9} spans {row['count']:>7}  busy {row['busy_s']:9.4f} s  self {row['self_s']:9.4f} s")
    failed = [g for g in record["gates"] if not g["passed"]]
    print(f"  gates: {len(record['gates']) - len(failed)} passed, {len(failed)} failed")
    for g in failed:
        print(f"  GATE FAILED {g['name']}: {g['detail']}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
