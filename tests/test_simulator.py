"""Unit tests for repro.litho.simulator (shared reduced-scale simulator)."""

import numpy as np
import pytest

from repro.fullchip.ambit import AmbitModel
from repro.obs import Instrumentation
from repro.process.corners import ProcessCorner, nominal_corner


@pytest.fixture()
def line_mask(sim):
    mask = np.zeros(sim.grid.shape)
    mask[119:137, 64:192] = 1.0  # 72 nm x 512 nm line at 4 nm/px
    return mask


class TestKernelCache:
    def test_same_defocus_cached(self, sim):
        assert sim.kernels_at(0.0) is sim.kernels_at(0.0)

    def test_distinct_defocus_distinct_kernels(self, sim):
        assert sim.kernels_at(0.0) is not sim.kernels_at(25.0)

    def test_prewarm_builds_all(self, sim):
        defocus_values = {c.defocus_nm for c in sim.corners()}
        for d in defocus_values:
            assert d in sim._kernel_cache


class TestWindowKernelCache:
    """A full-chip window takes its kernels from the ambit model but
    accounts for them exactly like the base simulator's cache."""

    def test_window_lookups_are_cache_accounted(self, tiny_config):
        model = AmbitModel.build(tiny_config, probe_extent_nm=1024.0)
        window = model.simulator_for((64, 64), obs=Instrumentation.collecting())
        first = window.kernels_at(0.0)
        assert window.kernels_at(0.0) is first
        assert first is model.window_kernels((64, 64), 0.0)
        info = window.cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        metrics = window.obs.metrics
        assert metrics.counter("kernel_cache_hits").value == 1
        assert metrics.counter("kernel_cache_misses").value == 1
        stats = window.obs.tracer.stats()
        assert stats["window_kernel_embed"].count == 1
        assert "kernel_build" not in stats


class TestForward:
    def test_aerial_defaults_to_nominal(self, sim, line_mask):
        assert np.array_equal(
            sim.aerial(line_mask), sim.aerial(line_mask, nominal_corner())
        )

    def test_wide_line_prints(self, sim):
        mask = np.zeros(sim.grid.shape)
        mask[96:160, 64:192] = 1.0  # 256 nm wide: safely printable
        printed = sim.print_binary(mask)
        assert printed[128, 128]

    def test_narrow_target_fails_to_print(self, sim, line_mask):
        # A 72 nm line printed from the raw target mask never clears the
        # resist threshold: the motivation for OPC.
        printed = sim.print_binary(line_mask)
        assert printed.sum() == 0

    def test_medium_target_underprints(self, sim):
        # A 128 nm line prints, but thinner than drawn.
        mask = np.zeros(sim.grid.shape)
        mask[112:144, 64:192] = 1.0
        printed = sim.print_binary(mask)
        assert 0 < printed.sum() < mask.sum()

    def test_soft_and_hard_consistent(self, sim, line_mask):
        soft = sim.print_soft(line_mask)
        hard = sim.print_binary(line_mask)
        assert np.array_equal(soft > 0.5, hard)

    def test_higher_dose_prints_more(self, sim, line_mask):
        low = sim.print_binary(line_mask, ProcessCorner("lo", 0.0, 0.98))
        high = sim.print_binary(line_mask, ProcessCorner("hi", 0.0, 1.02))
        assert high.sum() >= low.sum()

    def test_defocus_blurs(self, sim, line_mask):
        focused = sim.aerial(line_mask)
        defocused = sim.aerial(line_mask, ProcessCorner("df", 25.0, 1.0))
        # Defocus lowers peak intensity of a narrow feature.
        assert defocused.max() < focused.max() + 1e-12

    def test_print_all_corners_count(self, sim, line_mask):
        images = sim.print_all_corners(line_mask)
        assert len(images) == len(sim.corners())


class TestPVBandPaths:
    def test_empty_mask_zero_band(self, sim):
        assert sim.pv_band_area(np.zeros(sim.grid.shape)) == 0.0

    def test_band_mask_matches_area(self, sim, line_mask):
        band = sim.pv_band(line_mask)
        area = sim.pv_band_area(line_mask)
        assert area == band.sum() * sim.grid.pixel_nm**2
