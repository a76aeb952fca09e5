"""Full-chip facade: plan, solve, stitch, verify, aggregate.

:class:`FullChipEngine` drives the whole tiled flow:

1. derive (or accept) the halo from the optical ambit,
2. partition the chip into a :class:`~repro.fullchip.tiling.TilePlan`,
3. solve every tile through the scheduler: inline, or on forked
   workers pulling from the durable tile queue,
4. stitch the core masks into one full-chip mask,
5. evaluate the stitched mask under the *linear-convolution* full-chip
   model (mask padded by the ambit, imaged once, cropped — the same
   model every tile window used, so tiled and monolithic images agree
   to FFT rounding), and
6. report per-tile status, aggregate contest-score components, and the
   seam-consistency diagnostics.

Failed tiles under ``keep_going`` fall back to the rasterized target
(no-OPC) for their core so the chip mask stays complete and the failure
stays visible in the tile table instead of leaving a hole in the mask.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .._version import __version__
from ..config import GridSpec, LithoConfig, OptimizerConfig
from ..errors import FullChipCancelled, FullChipError
from ..geometry.layout import Layout
from ..geometry.raster import rasterize_layout
from ..metrics.epe import measure_epe
from ..metrics.score import ScoreBreakdown
from ..metrics.shapes import count_shape_violations
from ..obs import Instrumentation
from ..obs.distributed import (
    SPOOL_DIRNAME,
    WorkerTelemetryConfig,
    iter_spool_files,
    read_spool,
)
from ..obs.export import TraceLane, write_chrome_trace
from ..obs.live import (
    HEARTBEAT_DIRNAME,
    LivenessWatchdog,
    StatusWriter,
    WatchdogConfig,
)
from ..obs.report import METRICS_FILENAME, RUN_FILENAME, TRACE_FILENAME
from ..obs.resources import RESOURCES_DIRNAME, ResourceSampler, resources_filename
from ..process.corners import ProcessCorner
from ..process.pvband import pv_band_area
from ..tables import ColumnSpec, TextTable, write_csv_rows
from ..utils.io import write_json_atomic
from ..utils.timer import Timer
from ..xp import usable_cores
from .ambit import (
    DEFAULT_ENERGY_TOL,
    DEFAULT_PROBE_EXTENT_NM,
    AmbitModel,
    lookup_ambit_model,
    model_cache_info,
)
from .executor import executor_for
from .queue import QueueConfig
from .scheduler import _SOLVER_MODES, TileJob, TileResult, run_tile_jobs
from .stitch import SeamReport, build_seam_report, stitch_masks
from .tiling import TilePlan, build_tile_plan

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FullChipConfig:
    """Knobs of a tiled full-chip run.

    Attributes:
        tile_nm: core edge length of a tile.
        halo_nm: halo thickness; None derives it from the optical ambit
            (the smallest halo that keeps tile cores bit-equivalent to a
            monolithic simulation).
        workers: tile solves run at once.  A run with no
            ``telemetry_dir`` and at most one solver at once
            (``min(workers, tiles) <= 1``) solves its tiles inline;
            every other run forks ``min(workers, tiles)`` workers from
            this process, pulling tiles from a durable queue under
            ``<telemetry_dir>/queue/`` (which hand-launched ``repro
            worker`` processes may join) or, with no ``telemetry_dir``,
            in a private temporary directory removed when the run ends.
        solver_mode: ``"fast"`` (MOSAIC_fast) or ``"exact"``.
        use_sraf: seed tiles with rule-based SRAFs.
        keep_going: tolerate failed tiles (target fallback + visible
            failed status) instead of aborting the run.
        max_retries: extra solve attempts per tile.
        tile_timeout_s: wall-clock budget per tile attempt.
        checkpoint_dir: state directory for per-tile optimizer
            checkpoints and done markers (enables resume).
        checkpoint_every: iterations between optimizer checkpoints.
        resume: reuse done markers / optimizer checkpoints found in
            ``checkpoint_dir``.
        energy_tol: ambit retained-energy tolerance.
        probe_extent_nm: ambit probe-grid extent.
        telemetry_dir: run directory receiving telemetry artifacts —
            per-tile spool files (``spool/``), the merged ``run.json`` /
            ``metrics.json``, the Chrome ``trace.json``, and the live
            monitoring files (``status.json``, ``heartbeats/``,
            ``resources/``); None (the default) disables worker
            telemetry entirely.
        resource_interval_s: sampling interval of the per-process
            resource timelines (parent + every worker); ``0`` disables
            resource sampling.  Only active with a ``telemetry_dir``.
        watchdog_stall_factor: a worker is flagged stalled after this
            many times the observed median iteration time without
            heartbeat progress.
        watchdog_min_stall_s: floor on the stall threshold.
        backend: array-backend spec for every tile's window simulator
            (see :mod:`repro.xp`; e.g. ``"numpy:float32"``); ``None``
            defers to the optics config / ``REPRO_ARRAY_BACKEND`` /
            numpy-reference chain.  Unknown specs raise
            :class:`~repro.errors.OpticsError` at construction.
        queue_lease_s: lease term granted to a worker per claim, in
            every run with forked workers; a lease not renewed within
            this window is swept and the tile requeued.
        queue_max_requeues: lease-expiry requeues tolerated per tile
            before it is quarantined (terminal, the rasterized-target
            fallback covers its core).
        queue_backoff_s: base of the exponential re-claim backoff after
            a lease expiry (doubles per requeue).
        trace_id: request correlation id propagated into worker
            telemetry, queue history, and ``run.json``; None for runs
            with no originating request (CLI solves mint nothing).

    The fields named in :data:`RESULT_FIELDS` decide the stitched mask;
    the others only place, pace or watch the work.
    """

    tile_nm: float = 1024.0
    halo_nm: Optional[float] = None
    workers: int = 1
    solver_mode: str = "fast"
    use_sraf: bool = True
    keep_going: bool = False
    max_retries: int = 0
    tile_timeout_s: Optional[float] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 5
    resume: bool = False
    energy_tol: float = DEFAULT_ENERGY_TOL
    probe_extent_nm: float = DEFAULT_PROBE_EXTENT_NM
    telemetry_dir: Optional[str] = None
    resource_interval_s: float = 0.5
    watchdog_stall_factor: float = WatchdogConfig.stall_factor
    watchdog_min_stall_s: float = WatchdogConfig.min_stall_s
    backend: Optional[str] = None
    queue_lease_s: float = QueueConfig.lease_s
    queue_max_requeues: int = QueueConfig.max_requeues
    queue_backoff_s: float = QueueConfig.backoff_s
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            from ..xp import validate_backend_spec

            object.__setattr__(self, "backend", validate_backend_spec(self.backend))
        if not (math.isfinite(self.tile_nm) and self.tile_nm > 0):
            raise FullChipError(
                f"tile_nm must be a finite number > 0, got {self.tile_nm}"
            )
        if self.halo_nm is not None and not (
            math.isfinite(self.halo_nm) and self.halo_nm >= 0
        ):
            raise FullChipError(
                f"halo_nm must be a finite number >= 0, got {self.halo_nm}"
            )
        if self.workers < 1:
            raise FullChipError(f"workers must be >= 1, got {self.workers}")
        if self.solver_mode not in _SOLVER_MODES:
            raise FullChipError(
                f"solver_mode must be one of {sorted(_SOLVER_MODES)}, "
                f"got {self.solver_mode!r}"
            )
        if self.max_retries < 0:
            raise FullChipError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.tile_timeout_s is not None and self.tile_timeout_s <= 0:
            raise FullChipError(
                f"tile_timeout_s must be positive, got {self.tile_timeout_s}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise FullChipError("resume needs a checkpoint_dir to resume from")
        if self.resource_interval_s < 0:
            raise FullChipError(
                f"resource_interval_s must be >= 0, got {self.resource_interval_s}"
            )
        # QueueConfig and WatchdogConfig validate their own knobs; build
        # them eagerly so a bad value fails at config time, not mid-run.
        self.queue_config()
        self.watchdog_config()

    def watchdog_config(self) -> WatchdogConfig:
        """The liveness-watchdog settings as a :class:`WatchdogConfig`."""
        return WatchdogConfig(
            stall_factor=self.watchdog_stall_factor,
            min_stall_s=self.watchdog_min_stall_s,
        )

    def queue_config(self) -> QueueConfig:
        """The durable-queue settings as a :class:`QueueConfig`."""
        return QueueConfig(
            lease_s=self.queue_lease_s,
            max_requeues=self.queue_max_requeues,
            backoff_s=self.queue_backoff_s,
        )


#: The :class:`FullChipConfig` fields that decide the stitched mask.  The
#: others place, pace or watch the work: a run that solves every tile
#: gives the same mask bit for bit whatever they are, so the job
#: service's result cache keys on these alone.
RESULT_FIELDS = (
    "tile_nm",
    "halo_nm",
    "solver_mode",
    "use_sraf",
    "energy_tol",
    "probe_extent_nm",
    "backend",
)


@dataclass
class FullChipResult:
    """Everything a tiled full-chip run produced.

    Attributes:
        layout_name: the chip layout's name.
        plan: the tile plan that was executed.
        mask: the stitched full-chip mask (chip pixel grid).
        tile_results: per-tile outcomes, plan order.
        seam_report: seam-consistency diagnostics.
        score: aggregate contest-score components, measured on the
            stitched mask under the full-chip linear-convolution model.
        runtime_s: end-to-end wall clock of the run.
        telemetry_dir: where telemetry artifacts were written (None
            when telemetry was off).
        fft_threads: threads the chip evaluation's engine stages split
            across, in this process.
        model_tier: where this process found the ambit model (see
            :attr:`FullChipEngine.model_tier`).
    """

    layout_name: str
    plan: TilePlan
    mask: np.ndarray
    tile_results: List[TileResult]
    seam_report: SeamReport
    score: ScoreBreakdown
    runtime_s: float
    telemetry_dir: Optional[Path] = None
    fft_threads: Optional[int] = None
    model_tier: Optional[str] = None

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.tile_results)

    @property
    def failed_tiles(self) -> List[Tuple[int, int]]:
        return [r.index for r in self.tile_results if not r.ok]

    def format_table(self) -> str:
        """Per-tile status/score table plus the chip summary line."""
        table = TextTable(
            [
                ColumnSpec("tile", 12, "<"),
                ColumnSpec("status", 10, "<"),
                ColumnSpec("attempts", 8),
                ColumnSpec("#EPE", 6),
                ColumnSpec("PVB", 10),
                ColumnSpec("score", 10),
                ColumnSpec("runtime", 9),
            ]
        )
        for r in self.tile_results:
            label = f"r{r.index[0]}c{r.index[1]}"
            if r.ok:
                table.add_row(
                    [
                        label,
                        r.status.status + ("*" if r.from_cache else ""),
                        str(r.status.attempts),
                        str(r.epe_violations),
                        f"{r.pv_band_nm2:.0f}",
                        f"{r.score_total:.0f}",
                        f"{r.status.runtime_s:.1f}s",
                    ]
                )
            else:
                table.add_row(
                    [label, r.status.status, str(r.status.attempts),
                     None, None, None, f"{r.status.runtime_s:.1f}s"]
                )
        cache = model_cache_info()
        summary = (
            f"chip: {self.score} | seams: max|dM|="
            f"{self.seam_report.max_abs_mask_delta:.3e}, "
            f"{self.seam_report.seam_epe_violations} seam EPE violation(s)"
            f" | ambit model: {self.model_tier or '?'}; cache: {cache.hits} "
            f"hit(s), {cache.misses} miss(es), {cache.disk_hits} from disk, "
            f"{cache.entries} model(s)"
        )
        return table.render() + "\n" + summary

    def to_csv(self, path: Union[str, Path]) -> None:
        """One CSV row per tile, failures included."""
        rows: List[List[object]] = []
        for r in self.tile_results:
            rows.append(
                [
                    f"r{r.index[0]}c{r.index[1]}",
                    r.status.status,
                    r.status.attempts,
                    r.epe_violations if r.ok else "",
                    f"{r.pv_band_nm2:.1f}" if r.ok else "",
                    f"{r.score_total:.1f}" if r.ok else "",
                    f"{r.status.runtime_s:.3f}",
                    int(r.from_cache),
                    r.status.error or "",
                ]
            )
        write_csv_rows(
            path,
            ["tile", "status", "attempts", "epe_violations", "pv_band_nm2",
             "score", "runtime_s", "cached", "error"],
            rows,
        )


class FullChipEngine:
    """Facade running the tiled flow end to end.

    Args:
        litho: chip-level lithography configuration; the grid's shape is
            ignored (tiles get their own window grids), its pixel size
            rules every derived grid.
        optimizer: optional descent settings shared by every tile
            (None = each mode's defaults).
        config: tiling/scheduling knobs.
        obs: optional instrumentation bundle.
    """

    def __init__(
        self,
        litho: LithoConfig,
        optimizer: Optional[OptimizerConfig] = None,
        config: Optional[FullChipConfig] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.litho = litho
        self.optimizer = optimizer
        self.config = config or FullChipConfig()
        self.obs = obs or Instrumentation.disabled()
        #: The tier that served this engine's first model lookup:
        #: ``"memory"`` (already in this process), ``"disk"`` or
        #: ``"built"``; None until the model is first needed.
        self.model_tier: Optional[str] = None

    @property
    def model(self) -> AmbitModel:
        """The shared ambit model (read or built on first access)."""
        model, tier = lookup_ambit_model(
            self.litho,
            energy_tol=self.config.energy_tol,
            probe_extent_nm=self.config.probe_extent_nm,
        )
        if self.model_tier is None:
            self.model_tier = tier
        return model

    @property
    def halo_nm(self) -> float:
        """Effective halo: configured value, or the derived ambit."""
        if self.config.halo_nm is not None:
            return self.config.halo_nm
        # Round the ambit up to whole pixels (it already is by
        # construction; the guard keeps custom models honest).
        return self.model.ambit_nm

    def plan_for(self, layout: Layout) -> TilePlan:
        """The tile plan the engine would execute for a layout."""
        return build_tile_plan(
            layout.clip,
            tile_nm=self.config.tile_nm,
            halo_nm=self.halo_nm,
            pixel_nm=self.litho.grid.pixel_nm,
        )

    # -- tiled/monolithic forward evaluation ---------------------------------

    def aerial_monolithic(
        self, mask: np.ndarray, corner: Optional[ProcessCorner] = None
    ) -> np.ndarray:
        """Full-chip aerial image under the linear-convolution model.

        The mask is zero-padded by the ambit and imaged in one window;
        cropping the padding back off leaves the exact linear
        convolution with the truncated stencils at every chip pixel —
        the reference the tiled evaluation must (and does) match.
        """
        model = self.model
        pad = model.ambit_px
        padded = np.pad(np.asarray(mask, dtype=np.float64), pad)
        sim = model.simulator_for(
            padded.shape, obs=self.obs, backend=self.config.backend
        )
        aerial = sim.aerial(padded, corner)
        return aerial[pad:-pad, pad:-pad] if pad else aerial

    def aerial_tiled(
        self,
        mask: np.ndarray,
        plan: Optional[TilePlan] = None,
        corner: Optional[ProcessCorner] = None,
    ) -> np.ndarray:
        """Full-chip aerial image assembled from per-tile window images.

        Each tile window images its slice of the (zero-padded) mask and
        contributes only its core — overlap-discard.  With a halo at
        least the ambit this is pixel-identical to
        :meth:`aerial_monolithic` up to FFT rounding.
        """
        mask = np.asarray(mask, dtype=np.float64)
        if plan is None:
            rows, cols = mask.shape
            pixel = self.litho.grid.pixel_nm
            from ..geometry.rect import Rect

            plan = build_tile_plan(
                Rect(0.0, 0.0, cols * pixel, rows * pixel),
                tile_nm=self.config.tile_nm,
                halo_nm=self.halo_nm,
                pixel_nm=pixel,
            )
        if mask.shape != plan.chip_shape_px:
            raise FullChipError(
                f"mask shape {mask.shape} != chip grid {plan.chip_shape_px}"
            )
        model = self.model
        halo = plan.halo_px
        padded = np.pad(mask, halo)
        out = np.zeros_like(mask)
        sims: Dict[Tuple[int, int], object] = {}
        for tile in plan:
            r_lo = tile.core_rows[0]
            c_lo = tile.core_cols[0]
            rows, cols = tile.window_shape
            window_mask = padded[r_lo : r_lo + rows, c_lo : c_lo + cols]
            sim = sims.get(tile.window_shape)
            if sim is None:
                sim = model.simulator_for(
                    tile.window_shape, obs=self.obs, backend=self.config.backend
                )
                sims[tile.window_shape] = sim
            aerial = sim.aerial(window_mask, corner)
            rs, cs = tile.core_slices_in_window()
            out[
                tile.core_rows[0] : tile.core_rows[1],
                tile.core_cols[0] : tile.core_cols[1],
            ] = aerial[rs, cs]
        return out

    # -- the main flow -------------------------------------------------------

    def solve(
        self,
        layout: Layout,
        progress: Callable[[str], None] = lambda msg: None,
        on_tile: Optional[Callable[[TileResult], None]] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> FullChipResult:
        """Run the tiled full-chip flow on one layout.

        Args:
            layout: the chip layout (any clip origin; results are
                reported on a grid re-based to the clip's lower-left).
            progress: callback receiving one message per finished tile.
            on_tile: callback receiving each completed
                :class:`TileResult` in completion order (the CLI's
                per-tile ``-v`` progress hook).
            cancel: optional cooperative-cancel probe polled between
                tile placements; once it returns True the run raises
                :class:`~repro.errors.FullChipCancelled` and the
                status feed finalizes as ``"cancelled"``.

        Returns:
            The stitched mask with per-tile, seam, and aggregate reports.

        Raises:
            FullChipError: a tile failed and ``keep_going`` is off.
            FullChipCancelled: the ``cancel`` probe fired mid-run.
        """
        cfg = self.config
        telemetry_cfg: Optional[WorkerTelemetryConfig] = None
        status: Optional[StatusWriter] = None
        watchdog: Optional[LivenessWatchdog] = None
        sampler: Optional[ResourceSampler] = None
        if cfg.telemetry_dir is not None:
            run_dir = Path(cfg.telemetry_dir)
            resource_dir = (
                str(run_dir / RESOURCES_DIRNAME)
                if cfg.resource_interval_s > 0
                else None
            )
            telemetry_cfg = WorkerTelemetryConfig(
                spool_dir=str(run_dir / SPOOL_DIRNAME),
                heartbeat_dir=str(run_dir / HEARTBEAT_DIRNAME),
                resource_dir=resource_dir,
                resource_interval_s=cfg.resource_interval_s,
                trace_id=cfg.trace_id,
            )
        with Timer() as total, self.obs.tracer.span("fullchip.solve"):
            model = self.model
            plan = self.plan_for(layout)
            if plan.halo_px < model.ambit_px:
                logger.warning(
                    "halo %d px is below the optical ambit %d px — tile cores "
                    "will deviate from the monolithic image",
                    plan.halo_px, model.ambit_px,
                )
            logger.info(
                "full-chip run: %dx%d tiles, halo %g nm (%d px), %d worker(s)",
                plan.grid_shape[0], plan.grid_shape[1],
                plan.halo_nm, plan.halo_px, cfg.workers,
            )
            if cfg.telemetry_dir is not None:
                run_dir = Path(cfg.telemetry_dir)
                # Live monitoring: the status feed (seeded with every
                # planned tile so `repro watch` sees the full map from
                # the first write), the liveness watchdog, and the
                # parent's own resource timeline.
                status = StatusWriter(
                    run_dir,
                    {tile.name: tile.index for tile in plan},
                    layout=layout.name,
                    workers=cfg.workers,
                )
                status.write()
                watchdog = LivenessWatchdog(cfg.watchdog_config(), obs=self.obs)
                if cfg.resource_interval_s > 0:
                    try:
                        sampler = ResourceSampler(
                            run_dir / RESOURCES_DIRNAME
                            / resources_filename(os.getpid()),
                            interval_s=cfg.resource_interval_s,
                            metrics=self.obs.metrics,
                        ).start()
                    except Exception as exc:  # noqa: BLE001 - telemetry only
                        logger.warning("parent resource sampler failed: %s", exc)
                        sampler = None
            try:
                executor = executor_for(
                    cfg.workers,
                    plan.num_tiles,
                    run_dir=cfg.telemetry_dir,
                    queue_config=cfg.queue_config(),
                )
                # Solver processes running at once share the cores evenly.
                fft_threads = max(
                    1, usable_cores() // executor.solvers_at_once(plan.num_tiles)
                )
                jobs = [
                    TileJob(
                        tile=tile,
                        layout=tile.clip_layout(layout),
                        litho=self.litho,
                        config=cfg,
                        optimizer=self.optimizer,
                        telemetry=telemetry_cfg,
                        fft_threads=fft_threads,
                    )
                    for tile in plan
                ]
                results = run_tile_jobs(
                    jobs,
                    keep_going=cfg.keep_going,
                    obs=self.obs,
                    progress=progress,
                    on_tile=on_tile,
                    watchdog=watchdog,
                    status=status,
                    heartbeat_dir=(
                        telemetry_cfg.heartbeat_dir if telemetry_cfg else None
                    ),
                    executor=executor,
                    cancel=cancel,
                )
            except FullChipCancelled:
                if status is not None:
                    status.finalize(state="cancelled")
                    status.write()
                raise
            except BaseException:
                # The feed outlives an aborted run: readers see a
                # terminal "failed" state instead of an eternal
                # "running".
                if status is not None:
                    status.finalize(state="failed")
                    status.write()
                raise
            finally:
                if sampler is not None:
                    sampler.stop()
            # Failed tiles fall back to the no-OPC target so the chip
            # mask stays complete; the failure remains visible in the
            # tile table and in all_ok/failed_tiles.
            masks: Dict[Tuple[int, int], np.ndarray] = {}
            for job, result in zip(jobs, results):
                if result.ok and result.mask is not None:
                    masks[result.index] = result.mask
                else:
                    masks[result.index] = rasterize_layout(
                        job.layout, job.tile.window_grid(plan.pixel_nm)
                    ).astype(np.float64)
            with self.obs.tracer.span("fullchip.stitch"):
                stitched = stitch_masks(plan, masks)
            chip_layout = layout.clip_to(layout.clip, name=layout.name)
            chip_grid = GridSpec.for_clip(
                layout.clip.width, layout.clip.height, plan.pixel_nm
            )
            with self.obs.tracer.span("fullchip.evaluate"):
                binary = (stitched > 0.5).astype(np.float64)
                pad = model.ambit_px
                padded = np.pad(binary, pad)
                sim = model.simulator_for(
                    padded.shape, obs=self.obs, backend=self.config.backend
                )
                corners = sim.corners()
                printed_by_corner = [
                    img[pad:-pad, pad:-pad] if pad else img
                    for img in sim.print_all_corners(padded, corners)
                ]
                printed_nominal = printed_by_corner[0]
                epe_report = measure_epe(printed_nominal, chip_layout, chip_grid)
                target = rasterize_layout(chip_layout, chip_grid)
                score = ScoreBreakdown(
                    runtime_s=sum(r.status.runtime_s for r in results),
                    pv_band_nm2=pv_band_area(printed_by_corner, plan.pixel_nm),
                    epe_violations=epe_report.num_violations,
                    shape_violations=count_shape_violations(printed_nominal, target),
                )
                seam_report = build_seam_report(
                    plan,
                    {r.index: r.mask for r in results if r.mask is not None},
                    stitched,
                    printed=printed_nominal,
                    layout=chip_layout,
                    grid=chip_grid,
                )
            self.obs.events.emit(
                "fullchip",
                layout=layout.name,
                tiles=plan.num_tiles,
                failed=len([r for r in results if not r.ok]),
                score=score.total,
                max_seam_delta=seam_report.max_abs_mask_delta,
            )
        result = FullChipResult(
            layout_name=layout.name,
            plan=plan,
            mask=stitched,
            tile_results=results,
            seam_report=seam_report,
            score=score,
            runtime_s=total.elapsed,
            fft_threads=sim.xp.fft_threads,
            model_tier=self.model_tier,
        )
        if status is not None:
            status.finalize(
                score={
                    "total": score.total,
                    "epe_violations": score.epe_violations,
                    "pv_band_nm2": score.pv_band_nm2,
                    "shape_violations": score.shape_violations,
                }
            )
            status.write()
        if cfg.telemetry_dir is not None:
            # Written after the fullchip.solve span closed so the
            # persisted span stats include the whole run.
            result.telemetry_dir = self._write_telemetry_artifacts(
                Path(cfg.telemetry_dir), result
            )
        return result

    def _write_telemetry_artifacts(
        self, run_dir: Path, result: FullChipResult
    ) -> Path:
        """Persist run.json / metrics.json / trace.json into ``run_dir``.

        The per-tile spool files are already there (the workers wrote
        them); this adds the parent's merged view: the run manifest the
        ``repro report`` renderer consumes, the merged metrics
        snapshot, and the Chrome trace assembling the parent lane with
        one lane per worker pid read back from the spools.
        """
        cfg = self.config
        tiles: List[Dict[str, object]] = []
        for r in result.tile_results:
            tiles.append(
                {
                    "index": list(r.index),
                    "name": f"tile_r{r.index[0]}_c{r.index[1]}",
                    "status": r.status.status,
                    "attempts": r.status.attempts,
                    "runtime_s": r.status.runtime_s,
                    "epe_violations": r.epe_violations,
                    "pv_band_nm2": r.pv_band_nm2,
                    "score_total": r.score_total,
                    "cached": r.from_cache,
                    "error": r.status.error,
                    "fft_threads": r.fft_threads,
                    "model_tier": r.model_tier,
                    "telemetry": r.telemetry.as_dict() if r.telemetry else None,
                }
            )
        run = {
            "schema": 1,
            "kind": "fullchip_run",
            "version": __version__,
            "layout": result.layout_name,
            "grid": list(result.plan.grid_shape),
            "workers": cfg.workers,
            "fft_threads": result.fft_threads,
            "solver_mode": cfg.solver_mode,
            "tile_nm": cfg.tile_nm,
            "halo_nm": result.plan.halo_nm,
            "parent_pid": os.getpid(),
            "trace_id": cfg.trace_id,
            "runtime_s": result.runtime_s,
            "score": {
                "total": result.score.total,
                "epe_violations": result.score.epe_violations,
                "pv_band_nm2": result.score.pv_band_nm2,
                "shape_violations": result.score.shape_violations,
                "runtime_s": result.score.runtime_s,
            },
            "seams": {
                "max_abs_mask_delta": result.seam_report.max_abs_mask_delta,
                "seam_epe_violations": result.seam_report.seam_epe_violations,
            },
            "model_tier": result.model_tier,
            "ambit_cache": model_cache_info().as_dict(),
            "tiles": tiles,
            "span_stats": [
                s.as_dict() for s in self.obs.tracer.stats().values()
            ],
        }
        write_json_atomic(run_dir / RUN_FILENAME, run)
        write_json_atomic(run_dir / METRICS_FILENAME, self.obs.metrics.as_dict())
        lanes = [
            TraceLane(
                pid=os.getpid(),
                label="parent",
                slices=self.obs.tracer.slices(),
                sort_index=0,
            )
        ]
        for i, spool_path in enumerate(iter_spool_files(run_dir / SPOOL_DIRNAME)):
            spool = read_spool(spool_path)
            lanes.append(
                TraceLane(
                    pid=spool.pid,
                    label=spool.tile or spool_path.stem,
                    slices=spool.slices,
                    sort_index=i + 1,
                )
            )
        write_chrome_trace(run_dir / TRACE_FILENAME, lanes)
        return run_dir
