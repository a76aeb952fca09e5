"""Process-parallel execution of tile solves.

Each tile is an independent :class:`TileJob` — a picklable bundle of the
clipped window layout plus the run's
:class:`~repro.fullchip.engine.FullChipConfig` — executed by the
module-level :func:`solve_tile_job` through a pluggable
:class:`~repro.fullchip.executor.TileExecutor`: inline
(``SerialExecutor``) or over the durable file-backed job queue
(``QueueWorkerExecutor`` + :mod:`repro.fullchip.queue`, forked local
workers plus any number of hand-launched ``repro worker`` processes).

Fault isolation mirrors the batch harness: per-tile retries, a per-tile
wall-clock budget (:func:`repro.harness.call_with_budget` inside the
worker process), and keep-going semantics where a failed tile is *data*
(a failed :class:`TileResult`), never an exception escaping a worker.

Resume is tile-granular: with a checkpoint directory every tile gets its
own subdirectory for optimizer checkpoints plus an atomically-written
``done.npz`` result marker, so a killed full-chip run re-executes only
the unfinished tiles — and a tile interrupted mid-optimization resumes
from its newest optimizer checkpoint.  The markers are the one resume:
every run seeds its tile queue afresh, and :func:`solve_tile_job`
reads and writes them wherever it runs, queue workers included.

The expensive shared state — the :class:`~repro.fullchip.AmbitModel`
stencils — is looked up by the engine before any worker forks; with the
``fork`` start method (the default here when available) workers inherit
the model through copy-on-write instead of reading or rebuilding it.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import socket
import stat
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import LithoConfig, OptimizerConfig
from ..errors import CellTimeoutError, FullChipError
from ..geometry.clipping import clip_polygon_to_rect
from ..geometry.layout import Layout
from ..geometry.rect import Rect
from ..harness import CellStatus, call_with_budget
from ..obs import Instrumentation
from ..obs.distributed import (
    TileTelemetry,
    WorkerTelemetryConfig,
    summarize_worker,
    worker_instrumentation,
    write_spool,
)
from ..opc.checkpoint import CheckpointConfig, latest_checkpoint
from ..opc.mosaic import MosaicExact, MosaicFast, MosaicResult, MosaicSolver
from ..utils.io import write_npz_atomic
from ..xp import fft_threads_scope
from .ambit import lookup_ambit_model
from .tiling import TileSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (live imports us not)
    from ..obs.live import LivenessWatchdog, StatusWriter
    from .engine import FullChipConfig
    from .executor import TileExecutor

logger = logging.getLogger(__name__)

#: Name of the per-tile completed-result marker file.
DONE_MARKER = "done.npz"

_SOLVER_MODES: Dict[str, type] = {"fast": MosaicFast, "exact": MosaicExact}


@dataclass(frozen=True)
class TileJob:
    """Everything one worker needs to solve one tile.

    Attributes:
        tile: the tile geometry.
        layout: the window layout (already clipped and re-based).
        litho: chip-level configuration (grid shape is ignored; pixel
            size, optics, resist and process apply to the window).
        config: the run's settings, validated when it was built: solver
            mode, SRAF seeding, ambit tolerances, array backend,
            checkpointing and resume, retries and the per-attempt
            budget are read from it.
        optimizer: optional descent settings (None = mode defaults).
        telemetry: worker-side telemetry settings; None keeps the
            worker on the null-twin path (no bundle, no spool file).
        fft_threads: threads each transform and engine stage of the
            solve may split across (see :func:`repro.xp.fft_threads_scope`); the
            engine sets usable cores divided by the solver processes it
            runs at once.  ``None`` uses every core the solving process
            may run on.
    """

    tile: TileSpec
    layout: Layout
    litho: LithoConfig
    config: "FullChipConfig"
    optimizer: Optional[OptimizerConfig] = None
    telemetry: Optional[WorkerTelemetryConfig] = None
    fft_threads: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fft_threads is not None and self.fft_threads < 1:
            raise FullChipError(f"fft_threads must be >= 1, got {self.fft_threads}")


@dataclass
class TileResult:
    """Outcome of one tile solve.

    Attributes:
        index: the tile's plan index.
        status: harness-style execution record.
        mask: optimized window mask (None when the tile failed).
        epe_violations / pv_band_nm2 / score_total: the tile's own
            contest-score components, measured on its window.
        from_cache: the result came from a prior run's done marker.
        telemetry: compact worker-telemetry summary (None when the job
            ran without telemetry, came from cache, or died before the
            worker could summarize).
        fft_threads: threads the solve's engine stages split across (None
            when no solve ran: an empty or cached tile).
        model_tier: where the solving process found the ambit model:
            ``"memory"``, ``"disk"`` or ``"built"`` (None when no solve
            ran).
    """

    index: Tuple[int, int]
    status: CellStatus
    mask: Optional[np.ndarray] = None
    epe_violations: int = 0
    pv_band_nm2: float = 0.0
    score_total: float = 0.0
    from_cache: bool = False
    telemetry: Optional[TileTelemetry] = None
    fft_threads: Optional[int] = None
    model_tier: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status.ok


def _tile_state_dir(job: TileJob) -> Optional[Path]:
    if job.config.checkpoint_dir is None:
        return None
    return Path(job.config.checkpoint_dir) / job.tile.name


def _write_done_marker(state_dir: Path, result: TileResult) -> None:
    """Atomically persist a completed tile result (tmp + rename)."""
    meta = {
        "index": list(result.index),
        "status": result.status.status,
        "attempts": result.status.attempts,
        "runtime_s": result.status.runtime_s,
        "epe_violations": result.epe_violations,
        "pv_band_nm2": result.pv_band_nm2,
        "score_total": result.score_total,
    }
    write_npz_atomic(
        state_dir / DONE_MARKER, mask=result.mask, meta_json=json.dumps(meta)
    )


def _load_done_marker(state_dir: Path, tile: TileSpec) -> Optional[TileResult]:
    marker = state_dir / DONE_MARKER
    if not marker.is_file():
        return None
    try:
        with np.load(marker, allow_pickle=False) as archive:
            mask = archive["mask"]
            meta = json.loads(str(archive["meta_json"]))
    except Exception as exc:  # noqa: BLE001 - a torn/alien file means re-solve
        logger.warning("ignoring unreadable done marker %s: %s", marker, exc)
        return None
    if mask.shape != tile.window_shape:
        logger.warning(
            "done marker %s has stale shape %s (want %s); re-solving",
            marker, mask.shape, tile.window_shape,
        )
        return None
    return TileResult(
        index=tile.index,
        status=CellStatus(
            status=meta.get("status", "ok"),
            attempts=int(meta.get("attempts", 1)),
            runtime_s=float(meta.get("runtime_s", 0.0)),
        ),
        mask=mask,
        epe_violations=int(meta.get("epe_violations", 0)),
        pv_band_nm2=float(meta.get("pv_band_nm2", 0.0)),
        score_total=float(meta.get("score_total", 0.0)),
        from_cache=True,
    )


def _valid_region(window_shape: Tuple[int, int], margin_px: int) -> Optional[np.ndarray]:
    """Penalty weight confining the objective to the wrap-free region.

    A window is imaged by *periodic* convolution, so pixels within the
    ambit of the window edge see wrapped stencil tails — and geometry cut
    by the window boundary is unprintable there.  Left in the objective,
    that unfixable residual dominates the max-normalized descent and
    starves the interior (the tile's actual deliverable).  Zero-weighting
    the outer ring keeps the target geometry visible to the solver (the
    seed and the mask still cover the full window) while the penalty —
    and the EPE control points — stay where the physics is exact.
    """
    if margin_px <= 0:
        return None
    region = np.zeros(window_shape, dtype=np.float64)
    region[margin_px:-margin_px, margin_px:-margin_px] = 1.0
    return region


def _core_in_window(tile: TileSpec) -> Rect:
    """The tile's core rectangle in window-local (re-based) coordinates."""
    return tile.core.translated(-tile.window.x0, -tile.window.y0)


def _solve_once(
    job: TileJob,
    state_dir: Optional[Path],
    obs: Optional[Instrumentation] = None,
    attempt: int = 1,
) -> Tuple[MosaicResult, int, str]:
    """One solve attempt on the window simulator (runs in the worker).

    Returns the result, the thread count its transforms split across and
    the tier that served the ambit model.
    """
    # Imported here: processes that never solve a tile (the service
    # front, the CLI's other verbs) skip loading the testing package.
    from ..testing.faults import fire_tile_fault

    fire_tile_fault(
        job.tile.index, attempt, obs.heartbeat if obs is not None else None
    )
    cfg = job.config
    model, model_tier = lookup_ambit_model(
        job.litho, energy_tol=cfg.energy_tol, probe_extent_nm=cfg.probe_extent_nm
    )
    sim = model.simulator_for(job.tile.window_shape, obs=obs, backend=cfg.backend)
    checkpoint = None
    resume_from = None
    if state_dir is not None:
        checkpoint = CheckpointConfig(directory=state_dir, every=cfg.checkpoint_every)
        if cfg.resume:
            resume_from = latest_checkpoint(state_dir)
    solver_cls = _SOLVER_MODES[cfg.solver_mode]
    solver: MosaicSolver = solver_cls(
        litho_config=sim.config,
        optimizer_config=job.optimizer,
        use_sraf=cfg.use_sraf,
        simulator=sim,
        checkpoint=checkpoint,
        objective_region=_valid_region(
            job.tile.window_shape, min(model.ambit_px, job.tile.halo_px)
        ),
    )
    # Scoped here, not around the retry loop: a budgeted attempt runs on
    # its own thread, which starts with a fresh context.
    with fft_threads_scope(job.fft_threads):
        solved = solver.solve(job.layout, resume_from=resume_from)
        return solved, sim.xp.fft_threads, model_tier


def solve_tile_job(
    job: TileJob,
    attempt_base: int = 0,
    on_beat=None,
) -> TileResult:
    """Solve one tile with retries/timeout; never raises on solve faults.

    Every failure mode is folded into the returned :class:`TileResult`
    so keep-going decisions happen in the supervising process, on data.
    Empty tiles (no geometry in the window) short-circuit to an
    all-dark mask without spinning up a solver.

    ``attempt_base`` offsets the attempt numbering for queue workers
    re-running a requeued job (generation N starts at attempt N+1, so
    one-shot fault injection armed for attempt 1 stays quiet on the
    recovery run, and heartbeats carry the right attempt version);
    ``on_beat`` is forwarded to the worker's heartbeat writer — the
    queue executor's lease-renewal hook.
    """
    tile = job.tile
    state_dir = _tile_state_dir(job)
    if job.config.resume and state_dir is not None:
        cached = _load_done_marker(state_dir, tile)
        if cached is not None:
            return cached
    # A tile whose core holds no geometry contributes a dark core to the
    # stitch no matter what the halo contains (only cores are kept), so
    # skip the solve.  This also covers windows that are entirely empty.
    core_local = _core_in_window(tile)
    if not any(
        p.bbox.intersects(core_local) and clip_polygon_to_rect(p, core_local)
        for p in job.layout.polygons
    ):
        result = TileResult(
            index=tile.index,
            status=CellStatus(status="ok", attempts=1, runtime_s=0.0),
            mask=np.zeros(tile.window_shape, dtype=np.float64),
        )
        if state_dir is not None:
            _write_done_marker(state_dir, result)
        return result

    # Worker-side telemetry: a live bundle local to this process whose
    # spans/metrics/events spool to an atomic per-tile file afterwards.
    # Without job.telemetry the solve stays on the null-twin path.
    worker_obs: Optional[Instrumentation] = None
    worker_events: List[Dict[str, object]] = []
    sampler = None
    if job.telemetry is not None:
        worker_obs, worker_events = worker_instrumentation(
            job.telemetry,
            tile=tile.name,
            attempt=attempt_base + 1,
            on_beat=on_beat,
        )
        if job.telemetry.resource_dir and job.telemetry.resource_interval_s > 0:
            from ..obs.resources import ResourceSampler, resources_filename

            try:
                # One timeline per pid: a queue worker reused across tiles
                # appends to one continuous file.
                sampler = ResourceSampler(
                    Path(job.telemetry.resource_dir) / resources_filename(os.getpid()),
                    interval_s=job.telemetry.resource_interval_s,
                    metrics=worker_obs.metrics,
                ).start()
            except Exception as exc:  # noqa: BLE001 - telemetry must not fail tiles
                logger.warning("tile %s: resource sampler failed: %s", tile.index, exc)
                sampler = None

    start = time.perf_counter()
    last_error: Optional[BaseException] = None
    attempts = 0
    solved: Optional[MosaicResult] = None
    fft_threads: Optional[int] = None
    model_tier: Optional[str] = None
    tile_span = (
        worker_obs.tracer.span(f"tile:{tile.name}")
        if worker_obs is not None
        else nullcontext()
    )
    try:
        with tile_span:
            for attempt in range(job.config.max_retries + 1):
                attempts = attempt + 1
                overall_attempt = attempt_base + attempts
                try:
                    solved, fft_threads, model_tier = call_with_budget(
                        lambda: _solve_once(
                            job, state_dir, obs=worker_obs, attempt=overall_attempt
                        ),
                        job.config.tile_timeout_s,
                    )
                    last_error = None
                    break
                except KeyboardInterrupt:
                    raise
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    last_error = exc
                    logger.warning(
                        "tile %s failed (attempt %d/%d): %s",
                        tile.index, attempts, job.config.max_retries + 1, exc,
                    )
    finally:
        if sampler is not None:
            sampler.stop()
        if worker_obs is not None:
            worker_obs.heartbeat.beat(
                phase="done" if solved is not None else "failed"
            )
    runtime = time.perf_counter() - start

    telemetry: Optional[TileTelemetry] = None
    if worker_obs is not None:
        try:
            write_spool(
                job.telemetry.spool_dir,
                tile.name,
                worker_obs,
                worker_events,
                trace_id=job.telemetry.trace_id,
            )
            telemetry = summarize_worker(tile.name, worker_obs, worker_events)
        except Exception as exc:  # noqa: BLE001 - telemetry must not fail tiles
            logger.warning("tile %s: telemetry spool failed: %s", tile.index, exc)

    if solved is None:
        timed_out = isinstance(last_error, CellTimeoutError)
        return TileResult(
            index=tile.index,
            status=CellStatus(
                status="timeout" if timed_out else "failed",
                attempts=attempts,
                runtime_s=runtime,
                error=f"{type(last_error).__name__}: {last_error}",
            ),
            telemetry=telemetry,
        )
    result = TileResult(
        index=tile.index,
        status=CellStatus(
            status="ok" if attempts == 1 else "recovered",
            attempts=attempts,
            runtime_s=runtime,
        ),
        mask=np.asarray(solved.mask, dtype=np.float64),
        epe_violations=solved.score.epe_violations,
        pv_band_nm2=solved.score.pv_band_nm2,
        score_total=solved.score.total,
        telemetry=telemetry,
        fft_threads=fft_threads,
        model_tier=model_tier,
    )
    if state_dir is not None:
        _write_done_marker(state_dir, result)
    return result


def _pool_context():
    """Prefer fork (inherits the parent's model cache); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def release_inherited_sockets() -> None:
    """Point every inet socket descriptor of this process at ``/dev/null``.

    The first call of a forked tile process.  A fork of ``repro serve``
    inherits the listening socket and other clients' connections; a
    tile process needs none of them, and holding them would keep the
    port bound and those connections open for as long as it lives.  The
    descriptors are redirected rather than closed, so a stale socket
    object closing its number later cannot close a file opened since.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir(fd_dir):
            fd = int(name)
            try:
                if fd == devnull or not stat.S_ISSOCK(os.fstat(fd).st_mode):
                    continue
                probe = socket.socket(fileno=fd)
            except OSError:  # closed since the listing (the listing's own)
                continue
            family = probe.family
            probe.detach()
            if family in (socket.AF_INET, socket.AF_INET6):
                os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _clear_stale_heartbeats(
    heartbeat_dir: Optional[str], jobs: Sequence[TileJob]
) -> None:
    """Remove prior-attempt heartbeat files for this batch's tiles.

    A resumed (or requeued) run would otherwise expose the previous
    attempt's last ``heartbeat_<tile>.json`` to the watchdog before the
    new worker's first pulse — an instant false "stalled" flag.
    No worker for these tiles has started yet, so anything present is
    stale by construction.
    """
    if heartbeat_dir is None:
        return
    from ..obs.live import heartbeat_filename

    for job in jobs:
        path = Path(heartbeat_dir) / heartbeat_filename(job.tile.name)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        except OSError as exc:  # pragma: no cover - permissions etc.
            logger.warning("stale heartbeat cleanup failed for %s: %s", path, exc)


def run_tile_jobs(
    jobs: Sequence[TileJob],
    keep_going: bool = False,
    obs: Optional[Instrumentation] = None,
    progress: Callable[[str], None] = lambda msg: None,
    on_tile: Optional[Callable[[TileResult], None]] = None,
    watchdog: Optional["LivenessWatchdog"] = None,
    status: Optional["StatusWriter"] = None,
    heartbeat_dir: Optional[str] = None,
    executor: Optional["TileExecutor"] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> List[TileResult]:
    """Execute tile jobs through a :class:`TileExecutor`.

    Args:
        jobs: the tiles to solve.
        keep_going: tolerate failed tiles (they come back as failed
            :class:`TileResult`s); when False the first failure raises
            :class:`~repro.errors.FullChipError` after the in-flight
            tiles settle.
        obs: optional instrumentation — ``fullchip_tiles_total`` /
            ``fullchip_tiles_failed`` / ``fullchip_tile_retries`` /
            ``fullchip_tiles_cached`` counters, a ``fullchip.tiles``
            span, and one ``tile`` event per finished tile.  Worker
            telemetry summaries (jobs built with ``telemetry``) are
            merged in as each tile completes, so the bundle's metrics
            and span report cover the workers' solves too.
        progress: callback receiving one message per finished tile.
        on_tile: callback receiving each completed :class:`TileResult`
            as it settles (completion order, not job order) — the hook
            behind the CLI's per-tile ``-v`` progress lines.
        watchdog: optional parent-side liveness watchdog; fed the
            heartbeat files on every round of the queue supervisor (at
            most its ``poll_s`` apart).  A flagged worker is reported
            (a progress line and a stalled status), never killed.
        status: optional live ``status.json`` writer; updated on every
            watchdog poll and tile completion.
        heartbeat_dir: where the tile workers write their heartbeat
            files (read here for the watchdog and the status feed).
        executor: the :class:`~repro.fullchip.executor.TileExecutor`
            placing the tiles (see
            :func:`~repro.fullchip.executor.executor_for`); None solves
            them inline, in order.
        cancel: optional cooperative-cancel probe; executors poll it
            between placements and raise
            :class:`~repro.errors.FullChipCancelled` once it returns
            True (settled tiles stay settled).

    Returns:
        Tile results in the order of ``jobs``.
    """
    if not jobs:
        raise FullChipError("run_tile_jobs needs at least one job")
    obs = obs or Instrumentation.disabled()
    # Imported lazily: executor.py imports solve_tile_job & co from here.
    from .executor import ExecutionContext, SerialExecutor

    if executor is None:
        executor = SerialExecutor()
    ctx = ExecutionContext(
        jobs=jobs,
        keep_going=keep_going,
        obs=obs,
        progress=progress,
        on_tile=on_tile,
        watchdog=watchdog,
        status=status,
        heartbeat_dir=heartbeat_dir,
        cancel=cancel,
    )
    _clear_stale_heartbeats(heartbeat_dir, jobs)
    with obs.tracer.span("fullchip.tiles"):
        results = executor.run(jobs, ctx)
    return [results[job.tile.index] for job in jobs]
