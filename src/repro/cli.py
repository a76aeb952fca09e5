"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``solve``       — run an OPC solver on a bundled benchmark or a GLP file.
* ``batch``       — run solvers x layouts with per-cell fault isolation.
* ``fullchip``    — tiled full-chip solve: partition, parallel tiles, stitch.
* ``simulate``    — print a mask/layout through the lithography model.
* ``verify``      — solve and emit the full verification report (+SVG).
* ``report``      — render a run summary from telemetry artifacts.
* ``watch``       — live dashboard over a running fullchip telemetry dir.
* ``bench-check`` — compare fresh benchmark JSON against a baseline.
* ``benchmarks``  — list the bundled ICCAD-2013-style clips.
* ``export``      — write a bundled benchmark to a GLP file.

Layouts are bundled benchmark names (B1..B10), ``.glp`` paths, or — for
arbitrarily large synthetic canvases — ``synth:<W>x<H>[:seed]`` specs
(dimensions in nm, e.g. ``synth:2048x2048:7``).

Examples::

    python -m repro solve B1 --mode fast
    python -m repro solve my_layout.glp --mode exact --scale reduced --out results/
    python -m repro solve B1 --checkpoint-dir ckpts/       # periodic checkpoints
    python -m repro solve B1 --checkpoint-dir ckpts/ --resume
    python -m repro batch B1 B2 B4 --modes fast,rulebased --keep-going
    python -m repro fullchip synth:2048x2048 --tile-nm 1024 --workers 2
    python -m repro fullchip synth:4096x4096:3 --keep-going --csv tiles.csv
    python -m repro fullchip synth:2048x2048 --workers 2 --telemetry-dir runs/r1
    python -m repro watch runs/r1               # live dashboard (Ctrl-C to stop)
    python -m repro watch runs/r1 --once --json # one machine-readable snapshot
    python -m repro report runs/r1
    python -m repro report runs/r1 --json
    python -m repro bench-check BENCH_fullchip.json fresh.json --tolerance 0.2
    python -m repro bench-check BENCH_fullchip.json fresh.json \
        --tolerance 0.2 --tolerance tiles_per_s_speedup=0.5
    python -m repro bench-check BENCH_fullchip.json fresh.json --update
    python -m repro simulate B4
    python -m repro benchmarks
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from .config import LithoConfig, ObservabilityConfig
from .errors import ReproError
from .fullchip.engine import FullChipConfig, FullChipEngine
from .obs import Instrumentation
from .geometry.layout import Layout
from .geometry.raster import rasterize_layout
from .io.glp import write_glp
from .io.images import ascii_render, save_npz_images
from .litho.simulator import LithographySimulator
from .metrics.score import contest_score
from .tables import ColumnSpec, TextTable
from ._version import __version__
from .workloads.iccad2013 import BENCHMARK_NAMES, load_all_benchmarks, load_benchmark
from .workloads.spec import load_workload

_MODES = ("fast", "exact", "multires", "modelbased", "rulebased", "ilt", "levelset")


def _load_layout(spec: str) -> Layout:
    """Benchmark name, .glp path, or synth:<W>x<H>[:seed] -> Layout."""
    return load_workload(spec)


def _config_for(scale: str) -> LithoConfig:
    return LithoConfig.paper() if scale == "paper" else LithoConfig.reduced()


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the solve/simulate/verify commands."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress via Python logging (-v info, -vv debug)",
    )
    group.add_argument(
        "--trace", action="store_true",
        help="record hierarchical spans and print the per-phase time breakdown",
    )
    group.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the metrics registry snapshot to this JSON file",
    )
    group.add_argument(
        "--log-json", metavar="PATH",
        help="stream JSONL run events (one per iteration) to this file",
    )


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", metavar="SPEC",
        help="array backend spec, '<name>[:<precision>]' (e.g. numpy, "
        "numpy:float32, torch); default: REPRO_ARRAY_BACKEND or numpy",
    )


def _config_flag(group, flag: str, field: str, **kwargs) -> None:
    """Add a ``repro fullchip`` flag that sets ``FullChipConfig.<field>``.

    The flag stores under the field's name and takes the field's
    default, so :func:`cmd_fullchip` builds the config by field name.
    """
    default = FullChipConfig.__dataclass_fields__[field].default
    group.add_argument(flag, dest=field, default=default, **kwargs)


def _backend_from_args(args: argparse.Namespace) -> Optional[str]:
    """Validate --backend eagerly so a typo fails before any solve work."""
    spec = getattr(args, "backend", None)
    if spec is None:
        return None
    from .xp import validate_backend_spec

    return validate_backend_spec(spec)


def _obs_config_from_args(args: argparse.Namespace) -> ObservabilityConfig:
    # --telemetry-dir implies parent-side trace+metrics in timeline
    # mode: the run artifacts need the merged span stats, the merged
    # metrics snapshot, and timestamped slices for the Chrome trace.
    telemetry_dir = getattr(args, "telemetry_dir", None)
    return ObservabilityConfig(
        trace=bool(getattr(args, "trace", False) or telemetry_dir),
        metrics=bool(
            getattr(args, "trace", False)
            or getattr(args, "metrics_out", None)
            or telemetry_dir
        ),
        events_path=getattr(args, "log_json", None),
        timeline=bool(telemetry_dir),
        verbose=getattr(args, "verbose", 0),
    )


def _check_output_path(flag: str, value: Optional[str]) -> None:
    if value is not None:
        parent = Path(value).resolve().parent
        if not parent.is_dir():
            raise SystemExit(f"error: {flag}: directory {parent} does not exist")


def _setup_observability(args: argparse.Namespace) -> Instrumentation:
    """Configure logging from -v and build the instrumentation bundle."""
    _check_output_path("--metrics-out", getattr(args, "metrics_out", None))
    _check_output_path("--log-json", getattr(args, "log_json", None))
    cfg = _obs_config_from_args(args)
    level = {0: logging.WARNING, 1: logging.INFO}.get(cfg.verbose, logging.DEBUG)
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    logging.getLogger("repro").setLevel(level)
    return Instrumentation.from_config(cfg)


def _finalize_observability(
    args: argparse.Namespace,
    obs: Instrumentation,
    printed_in_report: bool = False,
) -> None:
    """Print/write the collected telemetry after a command finishes."""
    if getattr(args, "trace", False) and not printed_in_report:
        print()
        print(obs.tracer.report())
        print()
        print(obs.metrics.summary())
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        with open(metrics_out, "w") as handle:
            json.dump(obs.metrics.as_dict(), handle, indent=2)
        print(f"Wrote metrics to {metrics_out}")
    log_json = getattr(args, "log_json", None)
    obs.close()
    if log_json:
        print(f"Wrote JSONL events to {log_json}")


def _solver_for(mode: str, config: LithoConfig, sim: LithographySimulator,
                checkpoint=None):
    from .baselines import BasicILT, LevelSetILT, ModelBasedOPC, RuleBasedOPC
    from .opc.mosaic import MosaicExact, MosaicFast
    from .opc.multires import MultiResolutionSolver

    if mode == "multires":
        if checkpoint is not None:
            raise ReproError("--checkpoint-dir is not supported for --mode multires")
        return MultiResolutionSolver(config, solver_cls=MosaicFast, simulator=sim)
    factory = {
        "fast": MosaicFast,
        "exact": MosaicExact,
        "modelbased": ModelBasedOPC,
        "rulebased": RuleBasedOPC,
        "ilt": BasicILT,
        "levelset": LevelSetILT,
    }[mode]
    if checkpoint is not None:
        if mode not in ("fast", "exact"):
            raise ReproError(
                f"--checkpoint-dir is only supported for --mode fast/exact, "
                f"not {mode!r}"
            )
        return factory(config, simulator=sim, checkpoint=checkpoint)
    return factory(config, simulator=sim)


def _checkpoint_config_from_args(args: argparse.Namespace):
    """Build a CheckpointConfig from --checkpoint-dir/--checkpoint-every."""
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if not checkpoint_dir:
        return None
    from .opc.checkpoint import CheckpointConfig

    return CheckpointConfig(
        directory=checkpoint_dir, every=getattr(args, "checkpoint_every", 5)
    )


def _resume_target(args: argparse.Namespace):
    """Resolve --resume into a checkpoint path (or None)."""
    resume = getattr(args, "resume", None)
    if resume is None:
        return None
    if resume != "auto":
        return resume
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if not checkpoint_dir:
        raise ReproError("--resume without a path requires --checkpoint-dir")
    from .opc.checkpoint import latest_checkpoint

    found = latest_checkpoint(checkpoint_dir)
    if found is None:
        raise ReproError(f"--resume: no checkpoints found in {checkpoint_dir}")
    return found


def cmd_solve(args: argparse.Namespace) -> int:
    layout = _load_layout(args.layout)
    config = _config_for(args.scale)
    obs = _setup_observability(args)
    sim = LithographySimulator(config, obs=obs, backend=_backend_from_args(args))
    checkpoint = _checkpoint_config_from_args(args)
    resume_from = _resume_target(args)
    if args.recipe:
        if checkpoint is not None or resume_from is not None:
            raise ReproError("--checkpoint-dir/--resume cannot be combined with --recipe")
        from .recipe import load_recipe, solve_with_recipe

        recipe = load_recipe(args.recipe)
        print(f"Solving {layout.name} with recipe {recipe.name or args.recipe} "
              f"(mode={recipe.mode})...")
        result = solve_with_recipe(recipe, layout, config, simulator=sim)
    else:
        solver = _solver_for(args.mode, config, sim, checkpoint=checkpoint)
        if resume_from is not None and args.mode not in ("fast", "exact"):
            raise ReproError(
                f"--resume is only supported for --mode fast/exact, not {args.mode!r}"
            )
        print(f"Solving {layout.name} with {solver.mode_name} "
              f"({config.grid.shape[0]} px @ {config.grid.pixel_nm:g} nm/px)...")
        if resume_from is not None:
            print(f"Resuming from checkpoint {resume_from}")
            result = solver.solve(layout, resume_from=resume_from)
        else:
            result = solver.solve(layout)
    print(result.score)
    if args.render:
        print("\n--- optimized mask ---")
        print(ascii_render(result.mask, width=args.render_width))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        bundle = out_dir / f"{layout.name}_{args.mode}.npz"
        save_npz_images(
            bundle,
            {
                "target": result.target,
                "mask": result.mask,
                "printed": sim.print_binary(result.mask).astype(float),
                "pv_band": sim.pv_band(result.mask).astype(float),
            },
        )
        print(f"Wrote {bundle}")
    _finalize_observability(args, obs)
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from .harness import run_experiment

    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise ReproError("--modes needs at least one solver mode")
    unknown = [m for m in modes if m not in _MODES]
    if unknown:
        raise ReproError(
            f"unknown mode(s) {unknown}; choose from {', '.join(_MODES)}"
        )
    _check_output_path("--csv", getattr(args, "csv", None))
    layouts = [_load_layout(spec) for spec in args.layouts]
    config = _config_for(args.scale)
    obs = _setup_observability(args)
    sim = LithographySimulator(config, obs=obs, backend=_backend_from_args(args))
    solvers = [
        (mode, lambda mode=mode: _solver_for(mode, config, sim)) for mode in modes
    ]
    result = run_experiment(
        solvers,
        layouts,
        progress=lambda msg: print(f"  {msg}"),
        obs=obs,
        keep_going=args.keep_going,
        max_retries=args.max_retries,
        cell_timeout_s=args.cell_timeout,
    )
    print()
    print(result.format_table())
    failed = result.failed_cells()
    if failed:
        print()
        for label, name in failed:
            status = result.statuses[(label, name)]
            print(f"FAILED {label} on {name}: {status.status} "
                  f"after {status.attempts} attempt(s) — {status.error}")
    if args.csv:
        result.to_csv(args.csv)
        print(f"\nWrote per-cell CSV to {args.csv}")
    _finalize_observability(args, obs)
    return 3 if failed else 0


def cmd_fullchip(args: argparse.Namespace) -> int:
    _check_output_path("--csv", getattr(args, "csv", None))
    _check_output_path("--seam-csv", getattr(args, "seam_csv", None))
    layout = _load_layout(args.layout)
    config = _config_for(args.scale)
    obs = _setup_observability(args)
    fields = FullChipConfig.__dataclass_fields__
    fc_config = FullChipConfig(
        **{name: value for name, value in vars(args).items() if name in fields}
    )
    engine = FullChipEngine(config, config=fc_config, obs=obs)
    plan = engine.plan_for(layout)
    total_tiles = plan.num_tiles
    print(
        f"Full-chip solve of {layout.name} "
        f"({layout.clip.width:g}x{layout.clip.height:g} nm): "
        f"{plan.grid_shape[0]}x{plan.grid_shape[1]} tiles, "
        f"halo {plan.halo_nm:g} nm ({plan.halo_px} px, ambit "
        f"{engine.model.ambit_nm:g} nm), {args.workers} worker(s)"
    )
    # With -v the scheduler's completion callback prints one detailed
    # line per tile; without it the plain progress message is enough.
    done_count = [0]

    def _verbose_tile(r) -> None:
        done_count[0] += 1
        extras = " (cached)" if r.from_cache else ""
        if r.telemetry is not None:
            extras += f" iters={r.telemetry.iterations}"
        print(
            f"  [{done_count[0]}/{total_tiles}] tile r{r.index[0]}c{r.index[1]}: "
            f"{r.status.status}, {r.status.attempts} attempt(s), "
            f"{r.status.runtime_s:.1f}s{extras}"
        )

    if args.verbose:
        result = engine.solve(layout, on_tile=_verbose_tile)
    else:
        result = engine.solve(layout, progress=lambda msg: print(f"  {msg}"))
    print()
    print(result.format_table())
    print()
    print(result.seam_report.format_table())
    if args.csv:
        result.to_csv(args.csv)
        print(f"\nWrote per-tile CSV to {args.csv}")
    if args.seam_csv:
        result.seam_report.to_csv(args.seam_csv)
        print(f"Wrote seam report CSV to {args.seam_csv}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        bundle = out_dir / f"{layout.name}_fullchip.npz"
        save_npz_images(bundle, {"mask": result.mask})
        print(f"Wrote {bundle}")
    if result.telemetry_dir is not None:
        print(
            f"Wrote telemetry artifacts to {result.telemetry_dir} "
            f"(render with: python -m repro report {result.telemetry_dir})"
        )
    _finalize_observability(args, obs)
    if result.failed_tiles:
        for index in result.failed_tiles:
            tile_result = next(r for r in result.tile_results if r.index == index)
            print(
                f"FAILED tile {index}: {tile_result.status.status} "
                f"after {tile_result.status.attempts} attempt(s) — "
                f"{tile_result.status.error}"
            )
        return 3
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .fullchip.worker import run_worker

    level = {0: logging.WARNING, 1: logging.INFO}.get(args.verbose, logging.DEBUG)
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    logging.getLogger("repro").setLevel(level)
    return run_worker(
        args.run_dir,
        poll_s=args.poll,
        exit_when_drained=not args.keep_alive,
        max_jobs=args.max_jobs,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    layout = _load_layout(args.layout)
    config = _config_for(args.scale)
    obs = _setup_observability(args)
    sim = LithographySimulator(config, obs=obs, backend=_backend_from_args(args))
    target = rasterize_layout(layout, config.grid).astype(float)
    score = contest_score(sim, target, layout)
    print(f"{layout.name}: drawn-mask print (no OPC)")
    print(score)
    if args.render:
        print("\n--- printed image at nominal condition ---")
        print(ascii_render(sim.print_binary(target).astype(float), width=args.render_width))
    _finalize_observability(args, obs)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .report import verify_mask

    layout = _load_layout(args.layout)
    config = _config_for(args.scale)
    obs = _setup_observability(args)
    sim = LithographySimulator(config, obs=obs)
    solver = _solver_for(args.mode, config, sim)
    print(f"Solving {layout.name} with {solver.mode_name}...")
    result = solver.solve(layout)
    report = verify_mask(
        sim, result.mask, layout, runtime_s=result.runtime_s, obs=obs
    )
    print()
    print(report.render())
    _finalize_observability(args, obs, printed_in_report=True)
    if args.svg:
        from .io.svg import save_svg

        height, width = config.grid.extent_nm
        save_svg(
            args.svg,
            (width, height),
            layout=layout,
            mask=result.mask,
            printed=sim.print_binary(result.mask),
            pv_band=sim.pv_band(result.mask),
            grid=config.grid,
            title=f"{layout.name} {solver.mode_name}",
        )
        print(f"\nWrote figure to {args.svg}")
    return 0 if report.clean else 2


def cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import build_run_report, render_run_report

    if args.json:
        print(json.dumps(build_run_report(args.run_dir), indent=2))
    else:
        print(render_run_report(args.run_dir))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from .obs.watch import run_watch

    if args.interval <= 0:
        raise ReproError(f"--interval must be positive, got {args.interval}")
    try:
        return run_watch(
            args.run_dir,
            interval_s=args.interval,
            once=args.once,
            as_json=args.json,
        )
    except KeyboardInterrupt:
        return 0


def _load_bench_json(label: str, path: str) -> dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"{label}: cannot read benchmark JSON {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReproError(f"{label}: {path} is not a JSON object")
    return payload


def _parse_tolerances(entries) -> tuple:
    """Split repeated ``--tolerance`` values into (default, overrides).

    A bare number sets the default tolerance; ``key=fraction`` entries
    override individual benchmark keys.
    """
    default = 0.15
    overrides = {}
    for entry in entries or []:
        key, sep, value = str(entry).partition("=")
        try:
            if sep:
                overrides[key.strip()] = float(value)
            else:
                default = float(entry)
        except ValueError as exc:
            raise ReproError(
                f"bad --tolerance {entry!r} (expected a fraction or key=fraction)"
            ) from exc
    return default, overrides


def cmd_bench_check(args: argparse.Namespace) -> int:
    from .obs.report import compare_bench, render_bench_check, update_bench_baseline

    baseline = _load_bench_json("baseline", args.baseline)
    fresh = _load_bench_json("fresh", args.fresh)
    tolerance, overrides = _parse_tolerances(args.tolerance)
    deltas = compare_bench(baseline, fresh, tolerance=tolerance, overrides=overrides)
    if not deltas:
        raise ReproError(
            f"no comparable numeric keys between {args.baseline} and {args.fresh}"
        )
    print(render_bench_check(Path(args.baseline).name, deltas, tolerance))
    if args.update:
        update_bench_baseline(args.baseline, fresh)
        print(f"Updated baseline {args.baseline} (old values kept under 'previous')")
        return 0
    return 2 if any(d.regressed for d in deltas) else 0


def cmd_benchmarks(_args: argparse.Namespace) -> int:
    print(f"{'name':6s} {'shapes':>7s} {'area nm^2':>10s} {'perimeter nm':>13s}")
    for name, layout in load_all_benchmarks().items():
        print(
            f"{name:6s} {layout.num_shapes:7d} {layout.pattern_area:10.0f} "
            f"{layout.total_perimeter:13.0f}"
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    layout = load_benchmark(args.name)
    write_glp(layout, args.path)
    print(f"Wrote {args.name} to {args.path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import (
        IltService,
        RateLimitConfig,
        ServiceConfig,
        serve,
    )

    service = IltService(
        ServiceConfig(
            root=args.root,
            max_active=args.max_active,
            ratelimit=RateLimitConfig(
                rate_per_s=args.tenant_rate,
                burst=args.tenant_burst,
                max_active=args.tenant_active,
            ),
        )
    )
    server = serve(service, host=args.host, port=args.port)
    host, port = server.address
    print(f"repro ILT service v{__version__} on http://{host}:{port} (root {args.root})")
    print(f"  POST http://{host}:{port}/v1/jobs  |  GET /healthz  |  Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down...")
    finally:
        server.shutdown()
        service.close()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(
        args.url,
        tenant=args.tenant,
        timeout_s=args.request_timeout,
        retries=args.retries,
    )
    # Only the flags given travel: the service fills in its own defaults.
    payload = {"layout": args.layout}
    for key in ("mode", "scale", "tile_nm", "workers", "executor"):
        if getattr(args, key) is not None:
            payload[key] = getattr(args, key)
    job = client.submit(payload, trace_id=args.trace_id)
    state = job["state"]
    cached = " (cache hit)" if job.get("cached") else ""
    print(f"job {job['id']}: {state}{cached}")
    if job.get("trace_id"):
        print(f"  trace: {job['trace_id']}")
    if not args.wait or state in ("DONE", "FAILED", "CANCELLED"):
        return 0 if state in ("PENDING", "RUNNING", "DONE") else 3
    for record in client.events(job["id"], timeout_s=args.timeout):
        kind = record.get("kind")
        if kind == "event":
            event = record.get("event", "")
            if event == "tile":
                print(
                    f"  tile {record.get('index')} {record.get('status')} "
                    f"({record.get('runtime_s', 0):.1f}s)"
                )
        elif kind == "status":
            tiles = record.get("tiles") or {}
            print(
                f"  [{record.get('state')}] "
                f"{tiles.get('done', 0)}/{tiles.get('total', 0)} tiles, "
                f"eta {record.get('eta_s')}"
            )
        elif kind == "job":
            state = record.get("state")
            print(f"job {job['id']}: {state}"
                  + (f" — {record.get('error')}" if record.get("error") else ""))
            if record.get("score"):
                print(f"  score: {record['score']}")
    return 0 if state == "DONE" else 3


def cmd_jobs(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(args.url, tenant=args.tenant)
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    table = TextTable(
        [
            ColumnSpec("id", 14, "<"),
            ColumnSpec("tenant", 10, "<"),
            ColumnSpec("state", 10, "<"),
            ColumnSpec("layout", 22, "<"),
            ColumnSpec("cached", 6),
            ColumnSpec("error", 28, "<"),
        ]
    )
    for job in jobs:
        table.add_row(
            [
                job["id"],
                job["tenant"],
                job["state"],
                str(job["payload"].get("layout", "")),
                "yes" if job.get("cached") else "",
                (job.get("error") or "")[:28],
            ]
        )
    print(table.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .service.tracing import fuse_trace

    fused = fuse_trace(args.target, root=args.root, out=args.out)
    print(f"fused trace: {fused.path}")
    if fused.trace_id:
        print(f"  trace: {fused.trace_id}")
    for lane in fused.lanes:
        print(f"  lane pid={lane.pid} {lane.label}: {len(lane.slices)} slice(s)")
    if fused.problems:
        for problem in fused.problems:
            print(f"  problem: {problem}")
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOSAIC process-window-aware inverse lithography (DAC 2014 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run OPC on a benchmark or GLP file")
    solve.add_argument("layout", help="benchmark name (B1..B10) or .glp path")
    solve.add_argument("--mode", choices=_MODES, default="fast")
    solve.add_argument("--recipe", help="JSON recipe file (overrides --mode)")
    solve.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    _add_backend_arg(solve)
    solve.add_argument("--out", help="directory for the NPZ result bundle")
    solve.add_argument("--render", action="store_true", help="ASCII-render the mask")
    solve.add_argument("--render-width", type=int, default=56)
    fault = solve.add_argument_group("fault tolerance")
    fault.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="periodically write atomic optimizer checkpoints here "
             "(fast/exact modes); SIGINT flushes a final checkpoint",
    )
    fault.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="N",
        help="iterations between checkpoints (default: 5)",
    )
    fault.add_argument(
        "--resume", nargs="?", const="auto", metavar="CKPT",
        help="resume from a checkpoint file/directory (no value: newest "
             "checkpoint in --checkpoint-dir)",
    )
    _add_obs_args(solve)
    solve.set_defaults(func=cmd_solve)

    batch = sub.add_parser(
        "batch",
        help="run solvers x layouts with per-cell fault isolation",
    )
    batch.add_argument(
        "layouts", nargs="+", help="benchmark names (B1..B10) and/or .glp paths"
    )
    batch.add_argument(
        "--modes", default="fast",
        help="comma-separated solver modes (default: fast); "
             f"choices: {', '.join(_MODES)}",
    )
    batch.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    _add_backend_arg(batch)
    batch.add_argument(
        "--keep-going", action="store_true",
        help="tolerate failing cells: record them and continue the batch "
             "(exit code 3 when any cell failed)",
    )
    batch.add_argument(
        "--cell-timeout", type=float, metavar="SECONDS",
        help="wall-clock budget per solve attempt; over-budget cells are "
             "recorded as timeouts",
    )
    batch.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="extra solve attempts per cell after a failure (default: 0)",
    )
    batch.add_argument("--csv", help="write the per-cell CSV (includes cell status)")
    _add_obs_args(batch)
    batch.set_defaults(func=cmd_batch)

    fullchip = sub.add_parser(
        "fullchip",
        help="tiled full-chip solve: halo partition, parallel tiles, stitch",
    )
    fullchip.add_argument(
        "layout",
        help="benchmark name (B1..B10), .glp path, or synth:<W>x<H>[:seed]",
    )
    _config_flag(
        fullchip, "--tile-nm", "tile_nm", type=float, metavar="NM",
        help="tile core edge length (default: %(default)g)",
    )
    _config_flag(
        fullchip, "--halo-nm", "halo_nm", type=float, metavar="NM",
        help="halo thickness; default derives the optical ambit, the "
             "smallest halo keeping tile cores bit-equivalent to a "
             "monolithic simulation",
    )
    _config_flag(
        fullchip, "--workers", "workers", type=int, metavar="N",
        help="worker processes for tile solves (default: %(default)g = inline)",
    )
    _config_flag(
        fullchip, "--executor", "executor", choices=("pool", "queue", "serial"),
        help="tile placement: 'pool' (inline when one tile solves at a "
             "time; otherwise min(--workers, tiles) crash-recovering "
             "workers forked from this process, on the durable queue in "
             "--telemetry-dir or in a private temporary directory), "
             "'serial' (always inline), or 'queue' (--workers forked "
             "workers on the durable queue, which hand-launched 'repro "
             "worker' processes may join; needs --telemetry-dir)",
    )
    _config_flag(fullchip, "--mode", "solver_mode", choices=("fast", "exact"))
    fullchip.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    _add_backend_arg(fullchip)
    _config_flag(
        fullchip, "--keep-going", "keep_going", action="store_true",
        help="tolerate failed tiles: fall back to the no-OPC target for "
             "their core and continue (exit code 3 when any tile failed)",
    )
    _config_flag(
        fullchip, "--tile-timeout", "tile_timeout_s", type=float, metavar="SECONDS",
        help="wall-clock budget per tile solve attempt",
    )
    _config_flag(
        fullchip, "--max-retries", "max_retries", type=int, metavar="N",
        help="extra solve attempts per tile after a failure (default: %(default)g)",
    )
    _config_flag(
        fullchip, "--checkpoint-dir", "checkpoint_dir", metavar="DIR",
        help="per-tile state directory: optimizer checkpoints plus done "
             "markers (enables tile-by-tile resume)",
    )
    _config_flag(
        fullchip, "--checkpoint-every", "checkpoint_every", type=int, metavar="N",
        help="iterations between optimizer checkpoints (default: %(default)g)",
    )
    _config_flag(
        fullchip, "--resume", "resume", action="store_true",
        help="skip tiles with done markers in --checkpoint-dir and resume "
             "partially solved tiles from their newest checkpoint",
    )
    fullchip.add_argument("--csv", help="write the per-tile CSV")
    fullchip.add_argument("--seam-csv", help="write the seam-consistency CSV")
    fullchip.add_argument("--out", help="directory for the NPZ mask bundle")
    _config_flag(
        fullchip, "--telemetry-dir", "telemetry_dir", metavar="DIR",
        help="run directory for telemetry artifacts: per-tile worker "
             "spool files, merged run.json/metrics.json, a Chrome "
             "trace.json, plus the live status.json/heartbeats/resources "
             "feeds ('repro watch DIR' while running, 'repro report DIR' "
             "afterwards)",
    )
    queue_group = fullchip.add_argument_group(
        "durable queue (every run with forked workers)"
    )
    _config_flag(
        queue_group, "--lease-s", "queue_lease_s", type=float, metavar="SECONDS",
        help="lease term per tile claim, renewed for as long as the "
             "worker's process lives: the lease lapses when the worker "
             "dies, and the tile is requeued (default: %(default)g)",
    )
    _config_flag(
        queue_group, "--max-requeues", "queue_max_requeues", type=int, metavar="N",
        help="lease-expiry requeues tolerated per tile before it is "
             "quarantined (default: %(default)g)",
    )
    _config_flag(
        queue_group, "--queue-backoff", "queue_backoff_s", type=float,
        metavar="SECONDS",
        help="base re-claim backoff after a lease expiry, doubling per "
             "requeue (default: %(default)g)",
    )
    live = fullchip.add_argument_group("live monitoring (needs --telemetry-dir)")
    _config_flag(
        live, "--resource-interval", "resource_interval_s", type=float,
        metavar="SECONDS",
        help="per-process resource sampling interval (default: %(default)g; "
             "0 disables the samplers)",
    )
    _config_flag(
        live, "--watchdog-stall-factor", "watchdog_stall_factor", type=float,
        metavar="X",
        help="flag a worker stalled after X times the median iteration "
             "time without heartbeat progress (default: %(default)g)",
    )
    _config_flag(
        live, "--watchdog-min-stall", "watchdog_min_stall_s", type=float,
        metavar="SECONDS",
        help="floor on the stall threshold (default: %(default)g)",
    )
    _add_obs_args(fullchip)
    fullchip.set_defaults(func=cmd_fullchip)

    worker = sub.add_parser(
        "worker",
        help="durable-queue tile worker: claim leases from a fullchip run "
             "directory, solve, commit (launch any number; crash-safe)",
    )
    worker.add_argument(
        "run_dir",
        help="fullchip run directory (--telemetry-dir) whose queue/ was "
             "seeded by a run with forked workers: any '--executor queue' "
             "run, or a default run with --workers above 1 over more than "
             "one tile",
    )
    worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="sleep between claim attempts when nothing is claimable "
             "(default: 0.5)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after processing N claims (default: unlimited)",
    )
    worker.add_argument(
        "--keep-alive", action="store_true",
        help="keep polling after the queue drains instead of exiting "
             "(standing-fleet mode)",
    )
    worker.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log claims and commits (-v info, -vv debug)",
    )
    worker.set_defaults(func=cmd_worker)

    simulate = sub.add_parser("simulate", help="print a layout without OPC")
    simulate.add_argument("layout", help="benchmark name (B1..B10) or .glp path")
    simulate.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    _add_backend_arg(simulate)
    simulate.add_argument("--render", action="store_true")
    simulate.add_argument("--render-width", type=int, default=56)
    _add_obs_args(simulate)
    simulate.set_defaults(func=cmd_simulate)

    verify = sub.add_parser(
        "verify", help="solve + full verification report (exit 2 on violations)"
    )
    verify.add_argument("layout", help="benchmark name (B1..B10) or .glp path")
    verify.add_argument("--mode", choices=_MODES, default="fast")
    verify.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    verify.add_argument("--svg", help="write a layered SVG figure to this path")
    _add_obs_args(verify)
    verify.set_defaults(func=cmd_verify)

    report = sub.add_parser(
        "report",
        help="render a run summary from telemetry artifacts (no live objects)",
    )
    report.add_argument(
        "run_dir",
        help="telemetry run directory written by 'fullchip --telemetry-dir'",
    )
    report.add_argument(
        "--json", action="store_true",
        help="emit the structured report as JSON (same data as the text "
             "report — one shared builder)",
    )
    report.set_defaults(func=cmd_report)

    watch = sub.add_parser(
        "watch",
        help="live dashboard over a (running) fullchip telemetry directory "
             "(exit 3 when the run or any tile failed)",
    )
    watch.add_argument(
        "run_dir",
        help="telemetry run directory of a fullchip run (live or finished)",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default: 2)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render a single snapshot and exit",
    )
    watch.add_argument(
        "--json", action="store_true",
        help="emit raw JSON snapshots instead of the dashboard",
    )
    watch.set_defaults(func=cmd_watch)

    bench_check = sub.add_parser(
        "bench-check",
        help="compare fresh benchmark JSON against a checked-in baseline "
             "(exit 2 on regression)",
    )
    bench_check.add_argument("baseline", help="baseline JSON (e.g. BENCH_fullchip.json)")
    bench_check.add_argument("fresh", help="freshly produced benchmark JSON")
    bench_check.add_argument(
        "--tolerance", action="append", metavar="FRACTION|KEY=FRACTION",
        help="allowed fractional move against a key's better-direction "
             "before it counts as a regression; a bare fraction sets the "
             "default (0.15), KEY=FRACTION overrides one key (repeatable)",
    )
    bench_check.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline in place with the fresh values "
             "(old values preserved under a 'previous' key); always exits 0",
    )
    bench_check.set_defaults(func=cmd_bench_check)

    benchmarks = sub.add_parser("benchmarks", help="list bundled clips")
    benchmarks.set_defaults(func=cmd_benchmarks)

    export = sub.add_parser("export", help="write a bundled clip to GLP")
    export.add_argument("name", choices=BENCHMARK_NAMES)
    export.add_argument("path")
    export.set_defaults(func=cmd_export)

    serve_p = sub.add_parser(
        "serve", help="run the HTTP job service over the fullchip engine"
    )
    serve_p.add_argument(
        "root", help="service state directory (jobs/, cache/, service.json)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="listen port (default: 0 = ephemeral; see service.json)",
    )
    serve_p.add_argument(
        "--max-active", type=int, default=8, metavar="N",
        help="service-wide cap on live jobs (default: 8; 0 disables)",
    )
    limits = serve_p.add_argument_group("per-tenant limits")
    limits.add_argument(
        "--tenant-rate", type=float, default=2.0, metavar="PER_S",
        help="sustained submissions/s per tenant (default: 2)",
    )
    limits.add_argument(
        "--tenant-burst", type=int, default=5, metavar="N",
        help="instantaneous burst budget per tenant (default: 5)",
    )
    limits.add_argument(
        "--tenant-active", type=int, default=4, metavar="N",
        help="concurrent jobs per tenant (default: 4; 0 disables)",
    )
    serve_p.set_defaults(func=cmd_serve)

    submit = sub.add_parser("submit", help="submit a job to a running service")
    submit.add_argument("url", help="service base URL (e.g. http://127.0.0.1:8734)")
    submit.add_argument(
        "layout", help="benchmark name (B1..B10) or synth:<W>x<H>[:seed]"
    )
    submit.add_argument("--mode", choices=("fast", "exact"))
    submit.add_argument("--scale", choices=("reduced", "paper"))
    submit.add_argument("--tile-nm", type=float, metavar="NM")
    submit.add_argument("--workers", type=int, metavar="N")
    submit.add_argument("--executor", choices=("queue", "pool", "serial"))
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--wait", action="store_true",
        help="stream progress until the job settles "
             "(exit 0 DONE, 3 FAILED/CANCELLED)",
    )
    submit.add_argument("--timeout", type=float, default=3600.0, metavar="S")
    submit.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="S",
        help="per-HTTP-request timeout (default: 30)",
    )
    submit.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="connection-refused retries before giving up (default: 2)",
    )
    submit.add_argument(
        "--trace-id", metavar="ID",
        help="correlation id to reuse (default: mint a fresh one)",
    )
    submit.set_defaults(func=cmd_submit)

    jobs_p = sub.add_parser("jobs", help="list jobs on a running service")
    jobs_p.add_argument("url", help="service base URL")
    jobs_p.add_argument("--tenant", default="default")
    jobs_p.set_defaults(func=cmd_jobs)

    trace_p = sub.add_parser(
        "trace",
        help="fuse a job's access log, lifecycle, and engine/worker spans "
             "into one Chrome trace (exit 2 on validation problems)",
    )
    trace_p.add_argument(
        "target", help="job id (under --root) or a telemetry run directory"
    )
    trace_p.add_argument(
        "--root", default="service-root",
        help="service state directory for job-id targets (default: service-root)",
    )
    trace_p.add_argument(
        "--out", metavar="PATH",
        help="output path (default: <run_dir>/fused_trace.json)",
    )
    trace_p.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
