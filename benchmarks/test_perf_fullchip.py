"""Benchmark: serial vs forked-worker tiled full-chip solves.

Runs the full-chip engine on a 2048 nm synthetic canvas (2x2 tiles at
1024 nm tile size) inline, with ``workers=2`` on the default executor
(two forked queue workers, their queue in a private temporary
directory) and on the queue executor with two local workers (its run
directory under ``tmp_path``), asserting that all three produce the
*identical* stitched mask and — when the machine actually has cores to
parallelize over — that the ``workers=2`` default wins wall-clock.
The record keeps its keys: ``parallel_s`` and ``speedup`` time the
``workers=2`` default, ``queue_s`` and ``queue_speedup`` the queue
executor.  Results land in ``BENCH_fullchip.json``
at the repository root (uploaded as a CI artifact, and gated against the
checked-in baseline by ``python -m repro bench-check``; timing keys end
in ``_s`` and ``speedup*`` keys are higher-is-better, which is how
bench-check infers regression direction).  On a one-core host the
record says why the speedup assertion was skipped (``skipped_reason``).

The scale is deliberately small (16 nm pixels, 4 kernels): the benchmark
measures scheduling overhead vs parallel speedup, not solver quality.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    GridSpec,
    LithoConfig,
    OpticsConfig,
    OptimizerConfig,
    ProcessConfig,
    ResistConfig,
)
from repro.fullchip import FullChipConfig, FullChipEngine, ambit_model_for
from repro.workloads.generator import synthetic_canvas

BENCH_JSON = Path(__file__).parent.parent / "BENCH_fullchip.json"

CANVAS_NM = 2048.0
TILE_NM = 1024.0
PIXEL_NM = 16.0
PROBE_NM = 1024.0
ITERATIONS = 30
ROUNDS = 2
SPEEDUP_FLOOR = 1.1


def _litho() -> LithoConfig:
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=PIXEL_NM),
        optics=OpticsConfig(num_kernels=4),
        resist=ResistConfig(),
        process=ProcessConfig(),
    )


def _engine(litho: LithoConfig, workers: int, **config) -> FullChipEngine:
    return FullChipEngine(
        litho,
        optimizer=OptimizerConfig(max_iterations=ITERATIONS, use_jump=False),
        config=FullChipConfig(
            tile_nm=TILE_NM, workers=workers, probe_extent_nm=PROBE_NM, **config
        ),
    )


def _time_solve(litho: LithoConfig, layout, workers: int, run_dir=None):
    """Best of ``ROUNDS`` solves; a queue run gets a fresh directory each round."""
    best = np.inf
    result = None
    for k in range(ROUNDS):
        config = {}
        if run_dir is not None:
            config = {"executor": "queue", "telemetry_dir": str(run_dir / f"round{k}")}
        start = time.perf_counter()
        result = _engine(litho, workers, **config).solve(layout)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fullchip_parallel_speedup(benchmark, emit, tmp_path):
    litho = _litho()
    layout = synthetic_canvas(CANVAS_NM, CANVAS_NM, seed=11)
    # Build the shared stencils outside the clock: every mode inherits
    # the warmed module cache, so none pays the one-time cost.
    ambit_model_for(litho, probe_extent_nm=PROBE_NM)

    serial_s, serial_result = _time_solve(litho, layout, workers=1)
    parallel_s, parallel_result = _time_solve(litho, layout, workers=2)
    queue_s, queue_result = _time_solve(litho, layout, workers=2, run_dir=tmp_path)
    speedup = serial_s / parallel_s
    queue_speedup = serial_s / queue_s

    # Equivalence gate: scheduling must not change the optimization.
    assert serial_result.all_ok and parallel_result.all_ok and queue_result.all_ok
    assert serial_result.plan.num_tiles >= 4
    assert np.array_equal(serial_result.mask, parallel_result.mask)
    assert np.array_equal(serial_result.mask, queue_result.mask)

    benchmark.pedantic(
        lambda: _engine(litho, workers=1).solve(layout), rounds=1, iterations=1
    )

    cores = len(os.sched_getaffinity(0))
    record = {
        "canvas_nm": CANVAS_NM,
        "tile_nm": TILE_NM,
        "pixel_nm": PIXEL_NM,
        "tiles": serial_result.plan.num_tiles,
        "iterations": ITERATIONS,
        "rounds": ROUNDS,
        "cores": cores,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 3),
        "queue_s": round(queue_s, 4),
        "queue_speedup": round(queue_speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "masks_identical": True,
    }
    skipped_reason = None
    if cores < 2:
        skipped_reason = f"only {cores} core available — speedup assertion skipped"
        record["skipped_reason"] = skipped_reason
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    emit(
        "perf_fullchip",
        "\n".join(
            [
                f"  tiles: {serial_result.plan.num_tiles} "
                f"({serial_result.plan.grid_shape[0]}x"
                f"{serial_result.plan.grid_shape[1]}), "
                f"halo {serial_result.plan.halo_nm:g} nm",
                f"  serial   (1 worker, inline):         {serial_s:8.2f} s",
                f"  parallel (2 workers, private queue): {parallel_s:8.2f} s",
                f"  queue    (2 workers, run-dir queue): {queue_s:8.2f} s",
                f"  speedup: parallel {speedup:.2f}x (floor {SPEEDUP_FLOOR}x), "
                f"queue {queue_speedup:.2f}x, {cores} core(s) available",
            ]
        ),
    )

    if skipped_reason is not None:
        pytest.skip(skipped_reason)
    assert speedup >= SPEEDUP_FLOOR
