"""Tiled full-chip engine: halo partitioning, parallel solves, stitching.

The first horizontal-scaling layer of the stack: arbitrarily large
layouts are partitioned into core tiles with an optical-ambit halo,
solved independently (process-parallel, fault-isolated, resumable
tile-by-tile) and stitched back into one mask whose core images are
bit-equivalent to a monolithic simulation.  See ``docs/fullchip.md``.
"""

from .ambit import (
    DEFAULT_ENERGY_TOL,
    DEFAULT_PROBE_EXTENT_NM,
    AmbitModel,
    FocusStencils,
    ModelCacheInfo,
    WindowSimulator,
    ambit_model_for,
    model_cache_info,
)
from .engine import FullChipConfig, FullChipEngine, FullChipResult
from .executor import (
    ExecutionContext,
    QueueWorkerExecutor,
    SerialExecutor,
    TileExecutor,
    executor_for,
)
from .queue import ClaimedJob, QueueConfig, TileJobQueue, load_queue_state
from .scheduler import (
    TileJob,
    TileResult,
    run_tile_jobs,
    solve_tile_job,
)
from .worker import run_worker
from .stitch import (
    SeamDelta,
    SeamReport,
    build_seam_report,
    seam_lines,
    seam_mask_deltas,
    stitch_masks,
)
from .tiling import TilePlan, TileSpec, build_tile_plan

__all__ = [
    "DEFAULT_ENERGY_TOL",
    "DEFAULT_PROBE_EXTENT_NM",
    "AmbitModel",
    "FocusStencils",
    "ModelCacheInfo",
    "WindowSimulator",
    "ambit_model_for",
    "model_cache_info",
    "FullChipConfig",
    "FullChipEngine",
    "FullChipResult",
    "ExecutionContext",
    "QueueWorkerExecutor",
    "SerialExecutor",
    "TileExecutor",
    "executor_for",
    "ClaimedJob",
    "QueueConfig",
    "TileJobQueue",
    "load_queue_state",
    "TileJob",
    "TileResult",
    "run_tile_jobs",
    "solve_tile_job",
    "run_worker",
    "SeamDelta",
    "SeamReport",
    "build_seam_report",
    "seam_lines",
    "seam_mask_deltas",
    "stitch_masks",
    "TilePlan",
    "TileSpec",
    "build_tile_plan",
]
