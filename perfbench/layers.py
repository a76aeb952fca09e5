"""Which ``repro`` calls the traced run wraps, and the per-layer metrics
computed from the spans they leave.

Layers are the program's modules: ``optics``, ``xp``, ``litho``,
``opc``, ``mask``, ``metrics``, ``fullchip``.  Counts and times are
means per traced sample (one solve or one canvas) unless the name says
otherwise; ``optics.kernel_build.*`` and ``fullchip.ambit_build.s``
cover the whole traced process, set-up included.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence, TypeVar

from spans import Span, Tracer, self_times, union_length

FORWARD = ("optics.forward.batched_field_stacks", "optics.forward.field_stack", "optics.forward.aerial_image")
ADJOINT = ("optics.adjoint.accumulate_backprojection", "optics.adjoint.backproject_fields")
FFT = ("xp.fft2", "xp.ifft2", "xp.fft", "xp.ifft")
OBJECTIVE = ("opc.objective.value_and_gradient", "opc.objective.value")
SCORE = ("metrics.contest_score", "metrics.measure_epe")

T = TypeVar("T")


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the loaded ``repro`` package."""
    from repro.fullchip import engine as fc_engine
    from repro.fullchip.ambit import AmbitModel
    from repro.fullchip.scheduler import run_tile_jobs
    from repro.fullchip.stitch import stitch_masks
    from repro.mask.sraf import initial_mask_with_srafs
    from repro.metrics.epe import measure_epe
    from repro.metrics.score import contest_score
    from repro.opc.mosaic import MosaicSolver
    from repro.opc.objectives.composite import CompositeObjective
    from repro.opc.optimizer import GradientDescentOptimizer
    from repro.optics import hopkins
    from repro.optics.kernels import build_socs_kernels
    from repro.xp import resolve_backend

    def note_iterations(span, args, kwargs, result):
        span.attrs["iterations"] = result.optimization.iterations

    def note_points(span, args, kwargs, result):
        span.attrs["points"] = int(getattr(args[1], "size", 0))

    def note_plan(span, args, kwargs, result):
        span.attrs["tiles"] = result.num_tiles
        span.attrs["window_px"] = max(max(t.window_shape) for t in result)

    def note_tiles(span, args, kwargs, result):
        span.attrs["tile_s"] = [r.status.runtime_s for r in result]
        span.attrs["tile_ok"] = [bool(r.ok) for r in result]

    tracer.patch_function(build_socs_kernels, "optics.kernel_build", "optics")
    for fn in (hopkins.batched_field_stacks, hopkins.field_stack, hopkins.aerial_image):
        tracer.patch_function(fn, f"optics.forward.{fn.__name__}", "optics")
    for fn in (hopkins.accumulate_backprojection, hopkins.backproject_fields):
        tracer.patch_function(fn, f"optics.adjoint.{fn.__name__}", "optics")
    backend_cls = type(resolve_backend(None))
    for attr in ("fft2", "ifft2", "fft", "ifft"):
        tracer.patch_method(backend_cls, attr, f"xp.{attr}", "xp", note_points)
    tracer.patch_method(MosaicSolver, "solve", "opc.solve", "opc", note_iterations)
    tracer.patch_method(GradientDescentOptimizer, "run", "opc.optimize", "opc")
    tracer.patch_method(CompositeObjective, "value_and_gradient", OBJECTIVE[0], "opc")
    tracer.patch_method(CompositeObjective, "value", OBJECTIVE[1], "opc")
    tracer.patch_function(initial_mask_with_srafs, "mask.seed", "mask")
    tracer.patch_function(contest_score, "metrics.contest_score", "metrics")
    tracer.patch_function(measure_epe, "metrics.measure_epe", "metrics")
    tracer.patch_method(AmbitModel, "build", "fullchip.ambit_build", "fullchip")
    tracer.patch_method(fc_engine.FullChipEngine, "plan_for", "fullchip.plan", "fullchip", note_plan)
    tracer.patch_method(fc_engine.FullChipEngine, "solve", "fullchip.solve", "fullchip")
    tracer.patch_function(run_tile_jobs, "fullchip.run_tile_jobs", "fullchip", note_tiles)
    tracer.patch_function(stitch_masks, "fullchip.stitch", "fullchip")


def traced(tracer: Tracer, root: str, name: str, fn: Callable[[], T]) -> T:
    """Run ``fn`` as one traced sample with the wrappers installed only
    for its duration."""
    install(tracer)
    try:
        with tracer.sample(root, name, "bench"):
            return fn()
    finally:
        tracer.uninstall()


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _iteration_times(spans: Sequence[Span]) -> List[float]:
    """Starts of consecutive gradient evaluations inside one optimizer
    run, the last one closed by the run's end: one interval per iteration."""
    out: List[float] = []
    for run in (s for s in spans if s.name == "opc.optimize"):
        starts = sorted(
            s.start for s in spans
            if s.name == OBJECTIVE[0] and run.start <= s.start <= run.end
        )
        out.extend(b - a for a, b in zip(starts, starts[1:] + [run.end]))
    return out


def library_metrics(tracer: Tracer, roots: Sequence[str]) -> Dict[str, float]:
    """Per-layer metrics of the in-process layers over the traced samples."""
    per_root: Dict[str, List[Span]] = {r: [s for s in tracer.spans if s.root == r] for r in roots}
    selfs = self_times(tracer.spans)

    def per_sample(fn) -> float:
        return _mean([fn(spans) for spans in per_root.values()])

    def busy(names):
        return lambda spans: union_length((s.start, s.end) for s in spans if s.name in names)

    def calls(names):
        return lambda spans: sum(1 for s in spans if s.name in names)

    def evaluate_s(spans):
        solves = [s for s in spans if s.name == "fullchip.solve"]
        stitches = [s for s in spans if s.name == "fullchip.stitch"]
        return sum(
            solve.end - max(st.end for st in stitches if solve.start <= st.start <= solve.end)
            for solve in solves
            if any(solve.start <= st.start <= solve.end for st in stitches)
        )

    builds = tracer.of("optics.kernel_build")
    tile_runs = [s for s in tracer.of("fullchip.run_tile_jobs") if s.root in roots]
    tiles_s = [t for s in tile_runs for t in s.attrs["tile_s"]]
    tiles_ok = [t for s in tile_runs for t in s.attrs["tile_ok"]]
    plans = [s for s in tracer.of("fullchip.plan") if s.root in roots]
    iteration_s = _iteration_times(tracer.spans)
    return {
        "optics.kernel_build.calls": float(len(builds)),
        "optics.kernel_build.s": sum(s.duration for s in builds),
        "optics.kernel_build.loop_calls": float(sum(1 for s in builds if s.root in roots)),
        "optics.forward.calls": per_sample(calls(FORWARD)),
        "optics.forward.s": per_sample(busy(FORWARD)),
        "optics.adjoint.calls": per_sample(calls(ADJOINT)),
        "optics.adjoint.s": per_sample(busy(ADJOINT)),
        "xp.fft.calls": per_sample(calls(FFT)),
        "xp.fft.points": per_sample(lambda spans: sum(s.attrs.get("points", 0) for s in spans if s.name in FFT)),
        "xp.fft.s": per_sample(busy(FFT)),
        "opc.iterations": per_sample(lambda spans: sum(s.attrs.get("iterations", 0) for s in spans if s.name == "opc.solve")),
        "opc.objective.calls": per_sample(calls(OBJECTIVE)),
        "opc.iteration.s_p50": float(statistics.median(iteration_s)) if iteration_s else 0.0,
        "opc.self_s": per_sample(lambda spans: sum(selfs[s.id] for s in spans if s.layer == "opc")),
        "mask.seed.s": per_sample(busy(("mask.seed",))),
        "metrics.score.s": per_sample(busy(SCORE)),
        "fullchip.ambit_build.s": sum(s.duration for s in tracer.of("fullchip.ambit_build")),
        "fullchip.tiles": _mean([s.attrs["tiles"] for s in plans]),
        "fullchip.window_px": _mean([s.attrs["window_px"] for s in plans]),
        "fullchip.tile.s_p50": float(statistics.median(tiles_s)) if tiles_s else 0.0,
        "fullchip.tile.ok_ratio": (sum(tiles_ok) / len(tiles_ok)) if tiles_ok else 0.0,
        "fullchip.stitch.s": per_sample(busy(("fullchip.stitch",))),
        "fullchip.evaluate.s": per_sample(evaluate_s),
    }
