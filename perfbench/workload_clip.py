"""``clip``: MosaicFast on the ten bundled clips, as a library user runs it.

One process holds a warm ``LithographySimulator(LithoConfig.reduced())``
and calls ``MosaicFast(...).solve()`` (scoring included) on B1..B10 in
a seed-chosen order: whole passes over the ten, as many as fit in
``--seconds`` and at least one.
"""

from __future__ import annotations

import random
import time

import layers
from calibrate import HostSpeed
from helpers import Context, WorkloadRun, another_unit_fits, is_binary, peak_rss_mb_self, tracing_overhead
from procs import time_probe
from reference import components
from spans import Tracer

WHY = (
    "the paper's single-clip path: 256-px optics forward/adjoint FFTs with "
    "band-limited kernels; never enters tiling, the queue or the service"
)
SETUP_LAUNCHES = 5
SOLVE_CALIBRATION_BURSTS = 2


def run(ctx: Context) -> WorkloadRun:
    from repro import BENCHMARK_NAMES, LithoConfig, LithographySimulator, MosaicFast, load_benchmark

    out = WorkloadRun()
    order = list(BENCHMARK_NAMES)
    random.Random(ctx.seed).shuffle(order)
    if not ctx.trace:
        with HostSpeed() as setup_speed:
            for _ in range(SETUP_LAUNCHES):
                wall = time_probe(ctx.root, "clip")
                out.add_setup(wall, setup_speed.rescale(wall))
        out.timings["setup_calibration_s"] = setup_speed.points
    def warm_simulator():
        sim = LithographySimulator(LithoConfig.reduced())
        sim.prewarm()
        return sim

    tracer = Tracer() if ctx.trace else None
    sim = layers.traced(tracer, "setup", "bench.setup", warm_simulator) if tracer else warm_simulator()
    before = sim.cache_info()

    def solve(name: str):
        layout = load_benchmark(name)
        t0 = time.perf_counter()
        result = MosaicFast(LithoConfig.reduced(), simulator=sim).solve(layout)
        return time.perf_counter() - t0, result

    roots = []
    overhead = []
    with HostSpeed(bursts=SOLVE_CALIBRATION_BURSTS) as speed:
        start = time.perf_counter()
        done = 0
        while True:
            name = order[done % len(order)]
            out.inputs.append(name)
            try:
                dt, result = solve(name)
            except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
                out.outcomes.append("error")
                out.gate("solve", False, f"{name}: {type(exc).__name__}: {exc}")
                break
            out.add_solve(dt, speed.rescale(dt))
            mask = result.mask
            ok = out.gate("binary_on_grid", is_binary(mask) and mask.shape == sim.grid.shape,
                          f"{name}: shape {mask.shape}")
            out.outcomes.append("ok" if ok else "bad_mask")
            out.parts.setdefault(name, components(result.score))
            if tracer:
                root = f"solve:{name}#{done}"
                dt_traced, traced = layers.traced(tracer, root, "bench.solve", lambda: solve(name))
                roots.append(root)
                overhead.append((dt_traced, dt))
                out.gate("traced_mask_equal", bool((traced.mask == mask).all()), name)
            done += 1
            # Untraced runs measure whole passes over the ten clips; traced
            # runs whole (untraced, traced) pairs.
            if tracer:
                if not another_unit_fits(start, done, ctx.seconds):
                    break
            elif done % len(order) == 0 and not another_unit_fits(start, done // len(order), ctx.seconds):
                break
        out.peak_rss_mb = peak_rss_mb_self()
    after = sim.cache_info()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    out.timings["solve_calibration_s"] = speed.points
    out.cache_state = {
        "setup_s": "cold: fresh process, empty kernel cache",
        "solve_s_p50": "warm: SOCS kernels built by the in-process set-up",
        "peak_rss_mb": "benchmark process",
    }
    if tracer:
        out.per_layer = layers.library_metrics(tracer, roots)
        out.per_layer["litho.kernel_cache.hit_ratio"] = (after.hits - before.hits) / lookups if lookups else 0.0
        out.per_layer["obs.tracing_overhead"] = tracing_overhead(overhead)
        out.tracer = tracer
        out.not_measured = {
            name: "no tiling, queue or service on this path"
            for name in ("fullchip.*", "queue.*", "service.*", "obs.run_dir.*")
        }
    return out
