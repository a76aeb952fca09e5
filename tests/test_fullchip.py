"""Tests for the tiled full-chip engine: ambit, tiling, stitch, scheduler.

Everything runs at a deliberately tiny scale — 16 nm pixels, 4 SOCS
kernels, a 1024 nm ambit probe — so the whole file stays in tier-1
time.  The seam-equivalence test is the load-bearing one: it pins the
core claim that tiled and monolithic imaging agree to FFT rounding when
the halo is at least the optical ambit, and that the claim has teeth
(a short halo measurably breaks it).
"""

import json
import os
import threading

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
from repro.errors import FullChipError
from repro.fullchip import (
    AmbitModel,
    FullChipConfig,
    FullChipEngine,
    QueueConfig,
    TileJob,
    ambit_model_for,
    build_tile_plan,
    run_tile_jobs,
    seam_mask_deltas,
    solve_tile_job,
    stitch_masks,
)
from repro.fullchip.stitch import build_seam_report, seam_lines
from repro.geometry.rect import Rect
from repro.geometry.raster import rasterize_layout
from repro.harness import CellStatus
from repro.obs.live import WatchdogConfig
from repro.testing.faults import TILE_FAULTS_ENV
from repro.workloads.generator import synthetic_canvas

PIXEL_NM = 16.0
PROBE_NM = 1024.0


@pytest.fixture(scope="module")
def fc_litho() -> LithoConfig:
    """Tiny full-chip configuration: 16 nm/px, 4 kernels."""
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=PIXEL_NM),
        optics=OpticsConfig(num_kernels=4),
        resist=ResistConfig(),
        process=ProcessConfig(),
    )


@pytest.fixture(scope="module")
def fc_model(fc_litho) -> AmbitModel:
    return ambit_model_for(fc_litho, probe_extent_nm=PROBE_NM)


@pytest.fixture(scope="module")
def fc_engine(fc_litho) -> FullChipEngine:
    return FullChipEngine(
        fc_litho,
        config=FullChipConfig(tile_nm=1024.0, probe_extent_nm=PROBE_NM),
    )


def _fast_config(**overrides) -> FullChipConfig:
    base = dict(tile_nm=1024.0, probe_extent_nm=PROBE_NM)
    base.update(overrides)
    return FullChipConfig(**base)


def _fast_optimizer() -> OptimizerConfig:
    return OptimizerConfig(max_iterations=3, use_jump=False)


class TestAmbitModel:
    def test_basic_shape(self, fc_model):
        assert fc_model.ambit_px > 0
        assert fc_model.ambit_nm == fc_model.ambit_px * PIXEL_NM
        for defocus, stencils in fc_model.focus_stencils.items():
            assert stencils.radius_px == fc_model.ambit_px
            h, rows, cols = stencils.stencils.shape
            assert rows == cols == 2 * fc_model.ambit_px + 1

    def test_covers_every_process_defocus(self, fc_model, fc_litho):
        expected = {0.0, fc_litho.process.defocus_range_nm}
        assert set(fc_model.defocus_values_nm) == expected

    def test_open_frame_prints_unit_intensity(self, fc_model):
        # The truncated weights are renormalized so an all-ones mask
        # images to 1.0 — truncation must not dim the model.
        sim = fc_model.simulator_for((48, 48))
        aerial = sim.aerial(np.ones((48, 48)))
        assert aerial == pytest.approx(np.ones((48, 48)), abs=1e-12)

    def test_window_too_small_for_stencil_rejected(self, fc_model):
        tiny = fc_model.min_window_px - 1
        with pytest.raises(FullChipError):
            fc_model.window_kernels((tiny, tiny))

    def test_rectangular_window_simulates(self, fc_model):
        # Regression for rectangular grids: the whole forward stack
        # must accept (rows != cols) windows — edge tiles are not square.
        grid = GridSpec.for_clip(1024.0, 512.0, PIXEL_NM)
        assert grid.shape == (32, 64)
        sim = fc_model.simulator_for(grid.shape)
        mask = np.zeros(grid.shape)
        mask[12:20, 16:48] = 1.0
        aerial = sim.aerial(mask)
        assert aerial.shape == grid.shape
        assert np.all(np.isfinite(aerial))
        assert aerial.max() > 0.1

    def test_models_are_cached_by_configuration(self, fc_litho, fc_model):
        assert ambit_model_for(fc_litho, probe_extent_nm=PROBE_NM) is fc_model


class TestSeamEquivalence:
    """Tiled == monolithic inside the cores — the subsystem's contract."""

    @pytest.fixture(scope="class")
    def chip_mask(self):
        layout = synthetic_canvas(2048.0, 2048.0, seed=3)
        grid = GridSpec.for_clip(2048.0, 2048.0, PIXEL_NM)
        return rasterize_layout(layout, grid).astype(np.float64)

    def test_cores_match_monolithic_at_ambit_halo(self, fc_engine, chip_mask):
        mono = fc_engine.aerial_monolithic(chip_mask)
        tiled = fc_engine.aerial_tiled(chip_mask)
        assert np.max(np.abs(mono - tiled)) <= 1e-9

    def test_cores_match_at_a_process_corner(self, fc_engine, chip_mask):
        model = fc_engine.model
        corner = model.simulator_for((64, 64)).corners()[-1]
        mono = fc_engine.aerial_monolithic(chip_mask, corner)
        tiled = fc_engine.aerial_tiled(chip_mask, corner=corner)
        assert np.max(np.abs(mono - tiled)) <= 1e-9

    def test_short_halo_breaks_equivalence(self, fc_litho, fc_engine, chip_mask):
        # Negative control: the test above has teeth only if an
        # undersized halo produces a measurable deviation.
        short = FullChipEngine(
            fc_litho,
            config=_fast_config(
                halo_nm=(fc_engine.model.ambit_px // 4) * PIXEL_NM
            ),
        )
        mono = short.aerial_monolithic(chip_mask)
        tiled = short.aerial_tiled(chip_mask)
        assert np.max(np.abs(mono - tiled)) > 1e-6


class TestTilePlan:
    def test_cores_partition_the_chip(self):
        plan = build_tile_plan(Rect(0, 0, 2048, 2048), 1024.0, 192.0, PIXEL_NM)
        assert plan.grid_shape == (2, 2)
        covered = np.zeros(plan.chip_shape_px, dtype=int)
        for tile in plan:
            covered[
                tile.core_rows[0] : tile.core_rows[1],
                tile.core_cols[0] : tile.core_cols[1],
            ] += 1
        assert np.all(covered == 1)

    def test_ragged_last_row_and_column(self):
        plan = build_tile_plan(Rect(0, 0, 1536, 2048), 1024.0, 128.0, PIXEL_NM)
        assert plan.grid_shape == (2, 2)
        wide = plan.tile_at((0, 0))
        narrow = plan.tile_at((0, 1))
        assert wide.core.width == 1024.0
        assert narrow.core.width == 512.0
        # Windows still carry the full halo on every side.
        assert narrow.window_shape == (64 + 16, 32 + 16)

    def test_windows_extend_past_the_chip(self):
        plan = build_tile_plan(Rect(0, 0, 2048, 2048), 1024.0, 192.0, PIXEL_NM)
        first = plan.tile_at((0, 0))
        assert first.window.x0 == -192.0 and first.window.y0 == -192.0

    def test_chip_offset_preserved(self):
        plan = build_tile_plan(Rect(512, 256, 2560, 2304), 1024.0, 192.0, PIXEL_NM)
        assert plan.tile_at((0, 0)).core.x0 == 512.0
        assert plan.tile_at((0, 0)).core.y0 == 256.0

    def test_neighbors_each_pair_once(self):
        plan = build_tile_plan(Rect(0, 0, 2048, 2048), 1024.0, 192.0, PIXEL_NM)
        pairs = list(plan.neighbors())
        assert len(pairs) == 4  # 2 horizontal + 2 vertical in a 2x2 plan
        assert len({(a.index, b.index) for a, b in pairs}) == 4

    def test_off_lattice_dimensions_rejected(self):
        with pytest.raises(FullChipError):
            build_tile_plan(Rect(0, 0, 2040, 2048), 1024.0, 192.0, PIXEL_NM)
        with pytest.raises(FullChipError):
            build_tile_plan(Rect(0, 0, 2048, 2048), 1000.0, 192.0, PIXEL_NM)
        with pytest.raises(FullChipError):
            build_tile_plan(Rect(0, 0, 2048, 2048), 1024.0, 100.0, PIXEL_NM)

    def test_unknown_tile_rejected(self):
        plan = build_tile_plan(Rect(0, 0, 2048, 2048), 1024.0, 192.0, PIXEL_NM)
        with pytest.raises(FullChipError):
            plan.tile_at((5, 5))


class TestStitch:
    @pytest.fixture()
    def plan(self):
        return build_tile_plan(Rect(0, 0, 2048, 2048), 1024.0, 192.0, PIXEL_NM)

    def test_each_core_keeps_its_own_values(self, plan):
        masks = {
            tile.index: np.full(tile.window_shape, float(i))
            for i, tile in enumerate(plan)
        }
        stitched = stitch_masks(plan, masks)
        for i, tile in enumerate(plan):
            core = stitched[
                tile.core_rows[0] : tile.core_rows[1],
                tile.core_cols[0] : tile.core_cols[1],
            ]
            assert np.all(core == float(i))

    def test_missing_tile_rejected(self, plan):
        masks = {tile.index: np.zeros(tile.window_shape) for tile in plan}
        del masks[(1, 1)]
        with pytest.raises(FullChipError):
            stitch_masks(plan, masks)

    def test_wrong_shape_rejected(self, plan):
        masks = {tile.index: np.zeros(tile.window_shape) for tile in plan}
        masks[(0, 0)] = np.zeros((10, 10))
        with pytest.raises(FullChipError):
            stitch_masks(plan, masks)

    def test_seam_deltas_measure_halo_disagreement(self, plan):
        # Constant-valued windows: tile i's halo disagrees with the
        # owning core by exactly |i - j|.
        masks = {
            tile.index: np.full(tile.window_shape, float(i))
            for i, tile in enumerate(plan)
        }
        stitched = stitch_masks(plan, masks)
        deltas = {
            (d.a_index, d.b_index): d for d in seam_mask_deltas(plan, masks, stitched)
        }
        assert deltas[((0, 0), (0, 1))].max_abs_delta == 1.0
        assert deltas[((0, 0), (1, 0))].max_abs_delta == 2.0
        assert all(d.num_pixels > 0 for d in deltas.values())

    def test_identical_windows_have_zero_delta(self, plan):
        full = np.arange(128 * 128, dtype=np.float64).reshape(128, 128)
        padded = np.pad(full, plan.halo_px)
        masks = {}
        for tile in plan:
            rows, cols = tile.window_shape
            masks[tile.index] = padded[
                tile.core_rows[0] : tile.core_rows[0] + rows,
                tile.core_cols[0] : tile.core_cols[0] + cols,
            ]
        stitched = stitch_masks(plan, masks)
        assert np.array_equal(stitched, full)
        report = build_seam_report(plan, masks, stitched)
        assert report.max_abs_mask_delta == 0.0

    def test_seam_lines_are_interior_only(self, plan):
        xs, ys = seam_lines(plan)
        assert xs == [1024.0] and ys == [1024.0]


class TestScheduler:
    def test_empty_tile_short_circuits(self, fc_litho):
        plan = build_tile_plan(Rect(0, 0, 2048, 2048), 1024.0, 192.0, PIXEL_NM)
        tile = plan.tile_at((0, 0))
        empty = synthetic_canvas(2048.0, 2048.0, seed=1).clip_to(
            Rect(10000, 10000, 11024, 12048)
        )
        job = TileJob(tile=tile, layout=empty, litho=fc_litho,
                      config=_fast_config())
        result = solve_tile_job(job)
        assert result.ok
        assert result.mask.shape == tile.window_shape
        assert np.all(result.mask == 0.0)

    def test_halo_only_geometry_short_circuits(self, fc_litho):
        # A shape that lives entirely in the halo (it belongs to the
        # neighboring tile's core) must not trigger a solve: only cores
        # survive stitching, so the tile's contribution is all-dark.
        from repro.geometry.layout import Layout

        plan = build_tile_plan(Rect(0, 0, 2048, 1024), 1024.0, 192.0, PIXEL_NM)
        tile = plan.tile_at((0, 0))
        layout = Layout.from_rects(
            "halo-only", [Rect(1100, 500, 1200, 600)], clip=Rect(0, 0, 2048, 1024)
        )
        job = TileJob(
            tile=tile,
            layout=tile.clip_layout(layout),
            litho=fc_litho,
            config=_fast_config(),
        )
        result = solve_tile_job(job)
        assert result.ok
        assert np.all(result.mask == 0.0)
        # The same shape sits in tile (0, 1)'s core, so that tile solves.
        other = plan.tile_at((0, 1))
        assert any(
            p.bbox.intersects(other.core) for p in layout.polygons
        )

    def test_valid_region_marks_the_wrap_free_interior(self):
        from repro.fullchip.scheduler import _valid_region

        region = _valid_region((10, 8), 2)
        assert region.shape == (10, 8)
        assert np.all(region[2:-2, 2:-2] == 1.0)
        assert region.sum() == 6 * 4
        assert _valid_region((10, 8), 0) is None

    def test_solver_penalty_confined_to_valid_region(self, fc_litho):
        # The worker passes the wrap-free window interior as the
        # objective region; check the plumbing end to end by inspecting
        # the built objective's weights.
        from repro.fullchip.scheduler import _valid_region
        from repro.opc.mosaic import MosaicFast

        model = ambit_model_for(fc_litho, probe_extent_nm=PROBE_NM)
        plan = build_tile_plan(Rect(0, 0, 2048, 1024), 1024.0, 192.0, PIXEL_NM)
        tile = plan.tile_at((0, 0))
        region = _valid_region(
            tile.window_shape, min(model.ambit_px, tile.halo_px)
        )
        sim = model.simulator_for(tile.window_shape)
        solver = MosaicFast(
            litho_config=sim.config, simulator=sim, objective_region=region
        )
        layout = tile.clip_layout(synthetic_canvas(2048.0, 1024.0, seed=2))
        target = rasterize_layout(layout, sim.grid).astype(float)
        objective = solver.build_objective(target, layout)
        weights = [term.weight for _, term in objective.terms]
        assert all(w is not None and np.array_equal(w, region) for w in weights)

    def test_injected_failure_keep_going(self, fc_litho, monkeypatch):
        monkeypatch.setenv(TILE_FAULTS_ENV, "fail@0,1")
        plan = build_tile_plan(Rect(0, 0, 2048, 1024), 1024.0, 192.0, PIXEL_NM)
        layout = synthetic_canvas(2048.0, 1024.0, seed=2)
        jobs = [
            TileJob(
                tile=tile,
                layout=tile.clip_layout(layout),
                litho=fc_litho,
                config=_fast_config(),
                optimizer=_fast_optimizer(),
            )
            for tile in plan
        ]
        results = run_tile_jobs(jobs, keep_going=True)
        by_index = {r.index: r for r in results}
        assert not by_index[(0, 1)].ok
        assert "injected failure" in by_index[(0, 1)].status.error
        assert by_index[(0, 0)].ok

    def test_injected_failure_raises_without_keep_going(self, fc_litho, monkeypatch):
        monkeypatch.setenv(TILE_FAULTS_ENV, "fail@0,0")
        plan = build_tile_plan(Rect(0, 0, 1024, 1024), 1024.0, 192.0, PIXEL_NM)
        layout = synthetic_canvas(1024.0, 1024.0, seed=2)
        jobs = [
            TileJob(
                tile=tile,
                layout=tile.clip_layout(layout),
                litho=fc_litho,
                config=_fast_config(),
                optimizer=_fast_optimizer(),
            )
            for tile in plan
        ]
        with pytest.raises(FullChipError, match="injected failure"):
            run_tile_jobs(jobs, keep_going=False)

    def test_retry_recovers_after_transient_failure(self, fc_litho, tmp_path):
        # A done marker left by a previous run short-circuits the solve
        # entirely under resume=True.
        plan = build_tile_plan(Rect(0, 0, 1024, 1024), 1024.0, 192.0, PIXEL_NM)
        tile = plan.tile_at((0, 0))
        layout = synthetic_canvas(1024.0, 1024.0, seed=4)
        job = TileJob(
            tile=tile,
            layout=tile.clip_layout(layout),
            litho=fc_litho,
            config=_fast_config(checkpoint_dir=str(tmp_path)),
            optimizer=_fast_optimizer(),
        )
        first = solve_tile_job(job)
        assert first.ok and not first.from_cache
        assert (tmp_path / tile.name / "done.npz").is_file()

        resumed = solve_tile_job(
            TileJob(
                tile=job.tile,
                layout=job.layout,
                litho=job.litho,
                config=_fast_config(checkpoint_dir=str(tmp_path), resume=True),
                optimizer=job.optimizer,
            )
        )
        assert resumed.ok and resumed.from_cache
        assert np.array_equal(resumed.mask, first.mask)

    def test_stale_done_marker_is_resolved(self, fc_litho, tmp_path):
        # A marker whose mask shape no longer matches the plan must be
        # ignored, not trusted.
        plan = build_tile_plan(Rect(0, 0, 1024, 1024), 1024.0, 192.0, PIXEL_NM)
        tile = plan.tile_at((0, 0))
        state = tmp_path / tile.name
        state.mkdir()
        np.savez(state / "done.npz", mask=np.zeros((3, 3)), meta_json="{}")
        layout = synthetic_canvas(1024.0, 1024.0, seed=4).clip_to(
            Rect(10000, 10000, 11024, 11024)
        )
        job = TileJob(
            tile=tile, layout=layout, litho=fc_litho,
            config=_fast_config(checkpoint_dir=str(tmp_path), resume=True),
        )
        result = solve_tile_job(job)
        assert result.ok and not result.from_cache
        assert result.mask.shape == tile.window_shape


class TestEngine:
    def test_end_to_end_solve(self, fc_litho, tmp_path):
        layout = synthetic_canvas(2048.0, 2048.0, seed=5)
        engine = FullChipEngine(
            fc_litho,
            optimizer=_fast_optimizer(),
            config=_fast_config(checkpoint_dir=str(tmp_path)),
        )
        result = engine.solve(layout)
        assert result.all_ok
        assert result.mask.shape == (128, 128)
        assert result.plan.grid_shape == (2, 2)
        assert len(result.tile_results) == 4
        assert result.seam_report.max_abs_mask_delta <= 1.0
        table = result.format_table()
        assert "chip:" in table and "r0c0" in table
        csv_path = tmp_path / "tiles.csv"
        result.to_csv(csv_path)
        assert csv_path.read_text().startswith("tile,status,attempts")

        # Second run resumes every tile from its done marker.
        resumed_engine = FullChipEngine(
            fc_litho,
            optimizer=_fast_optimizer(),
            config=_fast_config(checkpoint_dir=str(tmp_path), resume=True),
        )
        resumed = resumed_engine.solve(layout)
        assert all(r.from_cache for r in resumed.tile_results)
        assert np.array_equal(resumed.mask, result.mask)

    def test_failed_tile_falls_back_to_target(self, fc_litho, monkeypatch):
        monkeypatch.setenv(TILE_FAULTS_ENV, "fail@1,1")
        layout = synthetic_canvas(2048.0, 2048.0, seed=5)
        engine = FullChipEngine(
            fc_litho,
            optimizer=_fast_optimizer(),
            config=_fast_config(keep_going=True),
        )
        result = engine.solve(layout)
        assert result.failed_tiles == [(1, 1)]
        assert not result.all_ok
        # The failed core is the rasterized target, not a hole.
        tile = result.plan.tile_at((1, 1))
        core = result.mask[
            tile.core_rows[0] : tile.core_rows[1],
            tile.core_cols[0] : tile.core_cols[1],
        ]
        grid = GridSpec.for_clip(2048.0, 2048.0, PIXEL_NM)
        target = rasterize_layout(layout, grid)
        expected = target[
            tile.core_rows[0] : tile.core_rows[1],
            tile.core_cols[0] : tile.core_cols[1],
        ]
        assert np.array_equal(core, expected)
        assert "--" in result.format_table()

    def test_halo_defaults_to_the_ambit(self, fc_engine):
        assert fc_engine.halo_nm == fc_engine.model.ambit_nm

    def test_queue_and_watchdog_defaults_come_from_their_configs(self):
        assert FullChipConfig().queue_config() == QueueConfig()
        assert FullChipConfig().watchdog_config() == WatchdogConfig()

    def test_config_validation(self):
        with pytest.raises(FullChipError):
            FullChipConfig(workers=0)
        with pytest.raises(FullChipError):
            FullChipConfig(halo_nm=-1.0)
        with pytest.raises(FullChipError):
            FullChipConfig(resume=True)
        for bad in (
            dict(solver_mode="heroic"),
            dict(max_retries=-1),
            dict(tile_timeout_s=0),
            dict(tile_nm=0.0),
            dict(tile_nm=float("nan")),
            dict(tile_nm=float("inf")),
            dict(halo_nm=float("nan")),
            dict(halo_nm=float("inf")),
        ):
            with pytest.raises(FullChipError):
                FullChipConfig(**bad)

    def test_run_failing_before_any_tile_settles_as_failed(
        self, fc_litho, tmp_path, monkeypatch
    ):
        from repro.fullchip import engine as engine_module

        def no_executor(*args, **kwargs):
            raise FullChipError("no executor")

        def samplers():
            return {t for t in threading.enumerate() if t.name == "resource-sampler"}

        monkeypatch.setattr(engine_module, "executor_for", no_executor)
        engine = FullChipEngine(
            fc_litho,
            optimizer=_fast_optimizer(),
            config=_fast_config(telemetry_dir=str(tmp_path)),
        )
        before = samplers()
        with pytest.raises(FullChipError, match="no executor"):
            engine.solve(synthetic_canvas(1024.0, 1024.0, seed=5))
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["state"] == "failed"
        assert samplers() <= before


def test_cell_status_is_reused_from_harness():
    # The scheduler speaks the batch harness's status vocabulary so
    # downstream tooling (tables, CSV) treats tiles like batch cells.
    status = CellStatus(status="ok", attempts=1, runtime_s=0.1)
    assert status.ok
