"""``fullchip``: ``FullChipEngine`` on seed-chosen two-tile canvases.

One process, ``LithoConfig.reduced()`` and the CLI defaults: one worker
(tiles solved inline), the ambit-derived halo, no telemetry dir.  Each
canvas is ``synth:2048x1024:<k>``: two 1024-nm tiles whose 372-px
windows carry dense-support kernels, then stitching and chip
evaluation.  Whole canvases run until ``--seconds`` have passed.
"""

from __future__ import annotations

import random
import time

import layers
from helpers import Context, WorkloadRun, another_unit_fits, is_binary, peak_rss_mb_self, tracing_overhead
from calibrate import HostSpeed, StealClock
from procs import time_probe
from reference import FULLCHIP_CANVASES, components
from spans import Tracer

WHY = (
    "the only path with many same-shape 372-px tile windows (dense-support "
    "kernels) plus stitching and chip evaluation on the timed path"
)
SETUP_LAUNCHES = 5


def run(ctx: Context) -> WorkloadRun:
    from repro import FullChipConfig, FullChipEngine, LithoConfig, ambit_model_for
    from repro.fullchip import model_cache_info
    from repro.workloads.spec import load_workload

    out = WorkloadRun()
    order = list(FULLCHIP_CANVASES)
    random.Random(ctx.seed).shuffle(order)
    if not ctx.trace:
        with HostSpeed() as setup_speed:
            for _ in range(SETUP_LAUNCHES):
                wall = time_probe(ctx.root, "fullchip")
                out.add_setup(wall, setup_speed.rescale(wall))
        out.timings["setup_calibration_s"] = setup_speed.points
    tracer = Tracer() if ctx.trace else None
    if tracer:
        layers.traced(tracer, "setup", "bench.setup", lambda: ambit_model_for(LithoConfig.reduced()))
    else:
        ambit_model_for(LithoConfig.reduced())
    before = model_cache_info()

    def solve(spec: str):
        layout = load_workload(spec, allow_paths=False)
        engine = FullChipEngine(LithoConfig.reduced(), config=FullChipConfig())
        with StealClock() as clock:
            result = engine.solve(layout)
        return clock, result, engine.plan_for(layout)

    def check(spec: str, result, plan) -> None:
        for tile in result.tile_results:
            out.outcomes.append("ok" if tile.ok else "tile_failed")
        out.gate("all_ok", result.all_ok, f"{spec}: failed tiles {result.failed_tiles}")
        out.gate("one_result_per_tile", len(result.tile_results) == plan.num_tiles,
                 f"{spec}: {len(result.tile_results)} results for {plan.num_tiles} tiles")
        out.gate("mask_on_chip_grid", result.mask.shape == plan.chip_shape_px and is_binary(result.mask),
                 f"{spec}: mask {result.mask.shape} vs chip {plan.chip_shape_px}")

    roots = []
    overhead = []
    start = time.perf_counter()
    done = 0
    while True:
        spec = order[done % len(order)]
        out.inputs.append(spec)
        try:
            clock, result, plan = solve(spec)
        except Exception as exc:  # noqa: BLE001 - a raising canvas fails all its tiles
            tiles = FullChipEngine(LithoConfig.reduced()).plan_for(load_workload(spec)).num_tiles
            out.outcomes.extend(["canvas_raised"] * tiles)
            out.gate("solve", False, f"{spec}: {type(exc).__name__}: {exc}")
            break
        out.add_solve(clock.wall, clock.corrected)
        out.timings.setdefault("solve_steal_s", []).append(clock.steal)
        check(spec, result, plan)
        out.parts.setdefault(spec, components(result.score))
        if tracer:
            root = f"canvas:{spec}#{done}"
            traced_clock, traced, _ = layers.traced(tracer, root, "bench.canvas", lambda: solve(spec))
            roots.append(root)
            overhead.append((traced_clock.wall, clock.wall))
            out.gate("traced_mask_equal", bool((traced.mask == result.mask).all()), spec)
        done += 1
        if not another_unit_fits(start, done, ctx.seconds):
            break
    after = model_cache_info()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    out.peak_rss_mb = peak_rss_mb_self()
    out.cache_state = {
        "setup_s": "cold: fresh process, empty ambit-model cache",
        "solve_s_p50": "warm: ambit model built by the in-process set-up",
        "peak_rss_mb": "benchmark process",
    }
    if tracer:
        out.per_layer = layers.library_metrics(tracer, roots)
        out.per_layer["litho.kernel_cache.hit_ratio"] = (after.hits - before.hits) / lookups if lookups else 0.0
        out.per_layer["obs.tracing_overhead"] = tracing_overhead(overhead)
        out.tracer = tracer
        out.not_measured = {
            "queue.*": "tiles are solved inline (workers=1); the queue runs on the service path",
            "service.*": "no service on this path",
            "obs.run_dir.*": "no telemetry dir (CLI default), so 0 by design",
        }
    return out
