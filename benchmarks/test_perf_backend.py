"""A/B benchmark: array backends on the hot forward+adjoint loop.

Times ``simulate_all_corners`` + ``gradient_all_corners`` — one full
multi-corner forward model and its accumulated adjoint, the inner loop
of every optimizer iteration — on B1 at the bench scale, once per
registered array backend.  The ISSUE acceptance bar: numpy float32 must
deliver >= 1.3x over the float64 reference (the win comes from
single-precision scipy FFTs), with forward images inside each backend's
equivalence gate (bitwise for the reference, 1e-5 relative for
float32).  Torch/CuPy are timed when installed and skipped silently
when not — CI's torch-CPU lane exercises that path.

The float64 reference runs its transforms on ``fft_threads`` threads
(every usable core); ``float64_1thread_s`` times the same loop on one.

Results land in ``BENCH_backend.json`` at the repository root (uploaded
as a CI artifact and gated against the checked-in baseline by ``python
-m repro bench-check``: ``*_s`` keys are lower-is-better, ``speedup*``
higher-is-better, ``*floor*``/``*tol*`` config echoes).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.opc.mosaic import MosaicFast
from repro.litho.simulator import LithographySimulator
from repro.workloads.iccad2013 import load_benchmark
from repro.xp import ALL_BACKEND_SPECS, backend_available, fft_threads_scope, get_backend

from conftest import bench_scale

BENCH_JSON = Path(__file__).parent.parent / "BENCH_backend.json"

REPS = 6  # forward+adjoint evaluations per timed round
ROUNDS = 3  # best-of rounds
SPEEDUP_FLOOR = 1.3  # ISSUE acceptance: float32 vs float64 on numpy


def _backend_sim(bench_config, reference_sim, spec):
    sim = LithographySimulator(bench_config, backend=spec)
    sim._kernel_cache = reference_sim._kernel_cache
    return sim


def _workload(sim, layout, rng):
    mask = MosaicFast(sim.config, simulator=sim).initial_mask(layout)
    corners = sim.corners()
    contributions = [
        (corner, rng.standard_normal(sim.grid.shape)) for corner in corners
    ]
    return mask, corners, contributions


def _run_loop(sim, mask, corners, contributions):
    for _ in range(REPS):
        images = sim.simulate_all_corners(mask, corners)
        sim.gradient_all_corners(mask, contributions)
    return images


def _time_loop(sim, mask, corners, contributions):
    _run_loop(sim, mask, corners, contributions)  # warm device caches
    best = np.inf
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _run_loop(sim, mask, corners, contributions)
        best = min(best, time.perf_counter() - start)
    return best


def test_backend_speedup(benchmark, bench_config, bench_sim, emit):
    layout = load_benchmark("B1")
    rng = np.random.default_rng(20140601)
    mask, corners, contributions = _workload(bench_sim, layout, rng)

    reference_sim = _backend_sim(bench_config, bench_sim, "numpy")
    reference_images = reference_sim.simulate_all_corners(mask, corners)
    reference_scale = max(float(np.max(np.abs(img))) for img in reference_images)

    specs = [s for s in ALL_BACKEND_SPECS if backend_available(s)]
    times = {}
    for spec in specs:
        backend = get_backend(spec)
        sim = _backend_sim(bench_config, bench_sim, spec)

        # Equivalence gate before any timing is trusted.
        images = sim.simulate_all_corners(mask, corners)
        max_abs_diff = max(
            float(np.max(np.abs(img - ref)))
            for img, ref in zip(images, reference_images)
        )
        allowed = backend.equivalence_rtol * reference_scale
        assert max_abs_diff <= allowed, (
            f"{spec}: forward images off the reference by {max_abs_diff:.3e} "
            f"(gate {allowed:.3e})"
        )

        times[spec] = _time_loop(sim, mask, corners, contributions)

    with fft_threads_scope(1):
        float64_1thread_s = _time_loop(
            _backend_sim(bench_config, bench_sim, "numpy"), mask, corners, contributions
        )
    speedup_float32 = times["numpy"] / times["numpy:float32"]

    benchmark.pedantic(
        lambda: _run_loop(
            _backend_sim(bench_config, bench_sim, "numpy:float32"),
            mask, corners, contributions,
        ),
        rounds=1,
        iterations=1,
    )

    record = {
        "scale": bench_scale(),
        "grid_shape": list(bench_sim.grid.shape),
        "num_kernels": bench_sim.config.optics.num_kernels,
        "corners": len(corners),
        "reps": REPS,
        "rounds": ROUNDS,
        "backends_timed": specs,
        "fft_threads": get_backend("numpy").fft_threads,
        "float64_s": round(times["numpy"], 4),
        "float64_1thread_s": round(float64_1thread_s, 4),
        "float32_s": round(times["numpy:float32"], 4),
        "speedup_float32": round(speedup_float32, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "float32_rtol": get_backend("numpy:float32").equivalence_rtol,
    }
    for spec in specs:
        if spec.startswith("numpy"):
            continue
        key = spec.replace(":", "_")
        record[f"{key}_s"] = round(times[spec], 4)
        record[f"speedup_{key}"] = round(times["numpy"] / times[spec], 3)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    lines = [
        f"  {spec:16s}: {times[spec]:8.3f} s  ({REPS} forward+adjoint reps)"
        for spec in specs
    ]
    lines.append(
        f"  numpy, 1 thread : {float64_1thread_s:8.3f} s  "
        f"(float64 default: {get_backend('numpy').fft_threads} thread(s))"
    )
    lines.append(
        f"  float32 speedup: {speedup_float32:.2f}x (floor {SPEEDUP_FLOOR}x)"
    )
    emit("perf_backend", "\n".join(lines))

    assert speedup_float32 >= SPEEDUP_FLOOR
