"""Unit tests for repro.metrics.score (contest scoring, Eq. 22)."""

import numpy as np
import pytest

from repro.geometry.layout import Layout
from repro.geometry.raster import rasterize_layout
from repro.geometry.rect import Rect
from repro.mask.sraf import initial_mask_with_srafs
from repro.metrics.epe import measure_epe
from repro.metrics.pvband import pv_band_area_for_mask
from repro.metrics.score import ScoreBreakdown, contest_score
from repro.metrics.shapes import count_shape_violations
from repro.workloads.iccad2013 import BENCHMARK_NAMES, load_benchmark


def per_kernel_breakdown(sim, mask, layout, runtime_s=0.0):
    """The score with nominal printed through the per-kernel forward and
    the corners imaged again for the PV band."""
    binary = (np.asarray(mask, dtype=np.float64) > 0.5).astype(np.float64)
    printed = sim.print_binary(binary)
    target = rasterize_layout(layout, sim.grid)
    return ScoreBreakdown(
        runtime_s=runtime_s,
        pv_band_nm2=pv_band_area_for_mask(sim, binary),
        epe_violations=measure_epe(printed, layout, sim.grid).num_violations,
        shape_violations=count_shape_violations(printed, target),
    )


class TestScoreBreakdown:
    def test_weights(self):
        s = ScoreBreakdown(
            runtime_s=10.0, pv_band_nm2=100.0, epe_violations=2, shape_violations=1
        )
        assert s.total == 10.0 + 4 * 100.0 + 5000 * 2 + 10000 * 1

    def test_zero_everything(self):
        s = ScoreBreakdown(0.0, 0.0, 0, 0)
        assert s.total == 0.0

    def test_str_contains_components(self):
        s = ScoreBreakdown(1.5, 200.0, 3, 0)
        text = str(s)
        assert "#EPE=3" in text
        assert "PVB=200" in text

    def test_epe_dominates_small_pvb(self):
        # One EPE violation outweighs 1000 nm^2 of PV band (5000 > 4000):
        # the weighting that drives MOSAIC's alpha/beta choice.
        with_epe = ScoreBreakdown(0, 0, 1, 0)
        with_pvb = ScoreBreakdown(0, 1000, 0, 0)
        assert with_epe.total > with_pvb.total


class TestContestScore:
    def test_biased_wide_square_scores_clean(self, sim):
        # Even a huge square under-prints from the raw target (edge
        # intensity sits well below threshold — the iso-dense bias that
        # motivates OPC); a 16 nm uniform bias fixes it completely.
        from repro.mask.rules import apply_edge_bias

        layout = Layout.from_rects("big", [Rect(256, 256, 768, 768)])
        target = rasterize_layout(layout, sim.grid).astype(float)
        raw = contest_score(sim, target, layout)
        assert raw.epe_violations > 0
        biased = apply_edge_bias(target, 16.0, sim.grid)
        s = contest_score(sim, biased, layout, runtime_s=2.0)
        assert s.epe_violations == 0
        assert s.shape_violations == 0
        assert s.runtime_s == 2.0
        assert s.pv_band_nm2 > 0  # edges always move a little across corners

    def test_binarizes_continuous_mask(self, sim):
        layout = Layout.from_rects("big", [Rect(256, 256, 768, 768)])
        target = rasterize_layout(layout, sim.grid).astype(float)
        soft = np.clip(target * 0.9 + 0.05, 0, 1)  # continuous in (0,1)
        s_soft = contest_score(sim, soft, layout)
        s_hard = contest_score(sim, target, layout)
        assert s_soft.pv_band_nm2 == s_hard.pv_band_nm2
        assert s_soft.epe_violations == s_hard.epe_violations

    def test_empty_mask_all_violations(self, sim):
        layout = Layout.from_rects("big", [Rect(256, 256, 768, 768)])
        s = contest_score(sim, np.zeros(sim.grid.shape), layout)
        assert s.epe_violations > 0
        assert s.total >= 5000 * s.epe_violations


class TestOneForwardScore:
    """Every print of the score comes from one batched forward, and the
    breakdown equals the per-kernel nominal print's on every clip."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_matches_per_kernel_breakdown(self, sim, name, rng):
        layout = load_benchmark(name)
        seed = initial_mask_with_srafs(layout, sim.grid)
        noisy = np.clip(seed + 0.6 * rng.standard_normal(seed.shape), 0.0, 1.0)
        for mask in (seed, noisy):
            assert contest_score(sim, mask, layout, runtime_s=1.5) == per_kernel_breakdown(
                sim, mask, layout, runtime_s=1.5
            )
