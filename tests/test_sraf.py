"""Unit tests for repro.mask.sraf (assist-feature insertion)."""

import numpy as np
import pytest

from scipy import ndimage

from repro.config import GridSpec, LithoConfig
from repro.geometry.layout import Layout
from repro.geometry.raster import rasterize_layout
from repro.geometry.rect import Rect
from repro.mask.sraf import clearance_keepout, initial_mask_with_srafs, insert_srafs
from repro.workloads.generator import line_grating
from repro.workloads.iccad2013 import BENCHMARK_NAMES, load_benchmark

GRID = GridSpec(shape=(256, 256), pixel_nm=4.0)
CLIP = Rect(0, 0, 1024, 1024)


def iso_line_layout():
    return Layout.from_rects("iso", [Rect(262, 476, 762, 548)], clip=CLIP)


class TestInsertSrafs:
    def test_isolated_line_gets_bars(self):
        srafs = insert_srafs(iso_line_layout(), GRID)
        assert srafs.sum() > 0

    def test_bars_do_not_touch_target(self):
        layout = iso_line_layout()
        target = rasterize_layout(layout, GRID)
        srafs = insert_srafs(layout, GRID)
        assert not np.any(srafs & target)

    def test_clearance_respected(self):
        layout = iso_line_layout()
        target = rasterize_layout(layout, GRID)
        srafs = insert_srafs(layout, GRID, clearance_nm=40.0)
        from scipy import ndimage

        # Distance from every SRAF pixel to the target exceeds clearance.
        dist = ndimage.distance_transform_edt(~target) * GRID.pixel_nm
        assert dist[srafs].min() >= 40.0 - GRID.pixel_nm

    def test_dense_grating_interior_gets_no_bars(self):
        layout = Layout("dense", clip=CLIP)
        layout.extend(line_grating(212, 232, num_lines=5, width=60, pitch=130, length=600))
        srafs = insert_srafs(layout, GRID)
        # Edges between grating lines are not isolated: bars may only
        # appear outside the grating envelope.
        envelope_rows = (slice(int(232 / 4) + 2, int((232 + 4 * 130 + 60) / 4) - 2),)
        interior = srafs[envelope_rows[0], int(240 / 4): int(780 / 4)]
        assert interior.sum() == 0

    def test_short_edges_skipped(self):
        layout = Layout.from_rects("dot", [Rect(500, 500, 530, 530)], clip=CLIP)
        srafs = insert_srafs(layout, GRID, min_edge_nm=50.0)
        assert srafs.sum() == 0

    def test_srafs_do_not_print(self, sim):
        # Sub-resolution property: the assist bars alone stay below the
        # resist threshold at every process corner.
        layout = iso_line_layout()
        srafs = insert_srafs(layout, GRID).astype(float)
        for corner in sim.corners():
            printed = sim.print_binary(srafs, corner)
            assert printed.sum() == 0


class TestInitialMask:
    def test_contains_target(self):
        layout = iso_line_layout()
        target = rasterize_layout(layout, GRID)
        seed = initial_mask_with_srafs(layout, GRID)
        assert np.all(seed[target] == 1.0)

    def test_adds_assist_area(self):
        layout = iso_line_layout()
        target = rasterize_layout(layout, GRID)
        seed = initial_mask_with_srafs(layout, GRID)
        assert seed.sum() > target.sum()

    def test_float_binary_values(self):
        seed = initial_mask_with_srafs(iso_line_layout(), GRID)
        assert set(np.unique(seed)) <= {0.0, 1.0}


def box_dilation(target, clear_px):
    """The keep-out as ``insert_srafs`` first computed it: one 2-D dilation."""
    size = 2 * clear_px + 1
    return ndimage.binary_dilation(target, structure=np.ones((size, size), dtype=bool))


class TestClearanceKeepout:
    """The keep-out equals the full box dilation on every bundled clip."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_matches_box_dilation_at_reduced_scale(self, name):
        grid = LithoConfig.reduced().grid
        clear_px = max(grid.nm_to_px(35.0), 1)
        target = rasterize_layout(load_benchmark(name), grid)
        assert np.array_equal(clearance_keepout(target, clear_px), box_dilation(target, clear_px))

    def test_reaches_the_border(self):
        target = np.zeros((12, 12), dtype=bool)
        target[0, 11] = target[6, 6] = True
        assert np.array_equal(clearance_keepout(target, 2), box_dilation(target, 2))

    @pytest.mark.slow
    def test_matches_box_dilation_at_paper_scale(self):
        grid = LithoConfig.paper().grid
        clear_px = max(grid.nm_to_px(35.0), 1)
        target = rasterize_layout(load_benchmark("B4"), grid)
        assert np.array_equal(clearance_keepout(target, clear_px), box_dilation(target, clear_px))
