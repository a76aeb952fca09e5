"""Unit tests for the per-iteration forward cache (ForwardContext)."""

import numpy as np
import pytest

from repro.opc.state import ForwardContext
from repro.process.corners import ProcessCorner, nominal_corner


@pytest.fixture()
def mask(tiny_sim):
    m = np.zeros(tiny_sim.grid.shape)
    m[24:40, 24:40] = 0.8
    return m


class TestCaching:
    def test_fields_computed_once_per_focus(self, tiny_sim, mask):
        ctx = ForwardContext(mask, tiny_sim)
        # Two dose corners at the same focus share one field stack.
        a = ctx.fields(ProcessCorner("a", 25.0, 0.98))
        b = ctx.fields(ProcessCorner("b", 25.0, 1.02))
        nom = ctx.fields(nominal_corner())
        assert a is b  # identical object: served from cache
        assert nom is not a
        assert sorted(ctx._fields) == [0.0, 25.0]
        # The batched engine computed fft2(M) exactly once for both foci.
        assert ctx.cache_info().mask_ffts == 1

    def test_aerial_cached_per_dose(self, tiny_sim, mask):
        ctx = ForwardContext(mask, tiny_sim)
        a = ctx.aerial(ProcessCorner("a", 0.0, 0.98))
        b = ctx.aerial(ProcessCorner("b", 0.0, 0.98))
        assert a is b  # identical object: served from cache

    def test_soft_image_cached(self, tiny_sim, mask):
        ctx = ForwardContext(mask, tiny_sim)
        assert ctx.soft_image() is ctx.soft_image()

    def test_dose_scales_within_shared_fields(self, tiny_sim, mask):
        ctx = ForwardContext(mask, tiny_sim)
        lo = ctx.aerial(ProcessCorner("lo", 0.0, 0.98))
        hi = ctx.aerial(ProcessCorner("hi", 0.0, 1.02))
        assert np.allclose(hi, lo * (1.02 / 0.98))


class TestGradientPath:
    def test_zero_intensity_gradient_zero_mask_gradient(self, tiny_sim, mask):
        ctx = ForwardContext(mask, tiny_sim)
        grad = ctx.accumulate_intensity_gradients(
            [(None, np.zeros(tiny_sim.grid.shape))]
        )
        assert np.allclose(grad, 0.0)

    def test_gradient_is_real_and_shaped(self, tiny_sim, mask):
        ctx = ForwardContext(mask, tiny_sim)
        df_di = np.ones(tiny_sim.grid.shape)
        grad = ctx.accumulate_intensity_gradients([(None, df_di)])
        assert grad.shape == mask.shape
        assert grad.dtype == np.float64

    def test_dose_factor_applied(self, tiny_sim, mask):
        ctx = ForwardContext(mask, tiny_sim)
        df_di = np.ones(tiny_sim.grid.shape)
        base = ctx.accumulate_intensity_gradients(
            [(ProcessCorner("x", 0.0, 1.0), df_di)]
        )
        scaled = ctx.accumulate_intensity_gradients(
            [(ProcessCorner("y", 0.0, 1.02), df_di)]
        )
        assert np.allclose(scaled, 1.02 * base)
