"""Unit tests for repro.optics.hopkins, including the adjoint gradient check.

The whole module is parametrized over every registered array backend
(see the ``backend`` fixture in ``conftest.py``): numpy float64 is the
bitwise reference, numpy float32 exercises the single-precision policy,
and torch/cupy run wherever those libraries are installed.  Comparison
floors widen from the float64 values to the float32 noise floor when the
backend's policy dtype is single precision.
"""

import numpy as np
import pytest

from repro.config import GridSpec, OpticsConfig
from repro.errors import GridError
from repro.optics.hopkins import (
    aerial_image,
    backproject_fields,
    field_stack,
)
from repro.optics.kernels import build_socs_kernels
from repro.xp import get_backend

GRID = GridSpec(shape=(64, 64), pixel_nm=16.0)
OPTICS = OpticsConfig(num_kernels=4)


@pytest.fixture(scope="module")
def kernels():
    return build_socs_kernels(GRID, OPTICS)


@pytest.fixture()
def mask():
    m = np.zeros(GRID.shape)
    m[24:40, 28:36] = 1.0
    return m


def atol_for(backend, tight=1e-10):
    """Absolute comparison floor: tight for float64, float32 noise else."""
    return tight if backend.precision == "float64" else 2e-6


class TestAerialImage:
    def test_non_negative(self, kernels, mask, backend):
        assert aerial_image(mask, kernels, xp=backend).min() >= 0.0

    def test_dose_scales_linearly(self, kernels, mask, backend):
        base = aerial_image(mask, kernels, dose=1.0, xp=backend)
        hot = aerial_image(mask, kernels, dose=1.02, xp=backend)
        assert np.allclose(hot, 1.02 * base, atol=atol_for(backend, 1e-12))

    def test_shift_invariance(self, kernels, mask, backend):
        shifted_mask = np.roll(mask, (5, -3), axis=(0, 1))
        base = aerial_image(mask, kernels, xp=backend)
        shifted = aerial_image(shifted_mask, kernels, xp=backend)
        assert np.allclose(
            np.roll(base, (5, -3), axis=(0, 1)), shifted, atol=atol_for(backend)
        )

    def test_reuses_precomputed_fields(self, kernels, mask, backend):
        fields = field_stack(mask, kernels, xp=backend)
        direct = aerial_image(mask, kernels, xp=backend)
        reused = aerial_image(mask, kernels, fields=fields, xp=backend)
        assert np.array_equal(direct, reused)

    def test_shape_mismatch_rejected(self, kernels, backend):
        with pytest.raises(GridError):
            aerial_image(np.zeros((32, 32)), kernels, xp=backend)

    def test_intensity_additive_for_disjoint_far_features(self, kernels, backend):
        # Features far beyond the coherence length image independently.
        a = np.zeros(GRID.shape)
        a[4:8, 4:8] = 1.0
        b = np.zeros(GRID.shape)
        b[56:60, 56:60] = 1.0
        together = aerial_image(a + b, kernels, xp=backend)
        separate = aerial_image(a, kernels, xp=backend) + aerial_image(
            b, kernels, xp=backend
        )
        # Compare near feature a only (far from cross-terms).
        assert np.allclose(together[:16, :16], separate[:16, :16], atol=5e-3)

    def test_matches_reference_backend(self, kernels, mask, backend, backend_close):
        reference = aerial_image(mask, kernels, xp="numpy")
        image = aerial_image(mask, kernels, xp=backend)
        backend_close(image, reference, backend, what="aerial image")


class TestFieldStack:
    def test_shape(self, kernels, mask, backend):
        fields = field_stack(mask, kernels, xp=backend)
        assert tuple(fields.shape) == (kernels.num_kernels,) + GRID.shape

    def test_intensity_consistency(self, kernels, mask, backend):
        fields = backend.to_numpy(field_stack(mask, kernels, xp=backend))
        manual = np.einsum("k,kij->ij", kernels.weights, np.abs(fields) ** 2)
        image = aerial_image(mask, kernels, xp=backend)
        assert np.allclose(manual, image, atol=atol_for(backend, 1e-12))

    def test_matches_reference_backend(self, kernels, mask, backend, backend_close):
        reference = field_stack(mask, kernels, xp="numpy")
        fields = backend.to_numpy(field_stack(mask, kernels, xp=backend))
        backend_close(fields, reference, backend, what="field stack")


class TestAdjointGradient:
    """Finite-difference check of the imaging-operator adjoint — the
    foundation of every objective gradient in the library.

    Central differences with ``eps = 1e-6`` are meaningless below
    float32 resolution, so single-precision backends are instead held
    to the float64 reference gradient within the float32 gate."""

    def _analytic_gradient(self, kernels, mask, target, backend):
        # Analytic gradient: dF/dI = 2 (I - target); backproject.
        fields = field_stack(mask, kernels, xp=backend)
        intensity = aerial_image(mask, kernels, fields=fields, xp=backend)
        df_di = 2.0 * (intensity - target)
        weighted = backend.asarray(df_di, "float")[None, :, :] * fields
        return backproject_fields(weighted, kernels, xp=backend)

    def test_gradient_matches_finite_difference(self, kernels, mask, backend):
        target = np.roll(mask, 1, axis=0)
        grad = self._analytic_gradient(kernels, mask, target, backend)

        if backend.precision != "float64":
            reference = self._analytic_gradient(
                kernels, mask, target, get_backend("numpy")
            )
            scale = np.max(np.abs(reference))
            assert np.allclose(
                grad, reference, rtol=backend.equivalence_rtol,
                atol=backend.equivalence_rtol * scale,
            )
            return

        def objective(m: np.ndarray) -> float:
            return float(np.sum((aerial_image(m, kernels, xp=backend) - target) ** 2))

        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(8):
            i, j = rng.integers(0, GRID.shape[0]), rng.integers(0, GRID.shape[1])
            bumped = mask.copy()
            bumped[i, j] += eps
            fd = (objective(bumped) - objective(mask)) / eps
            assert fd == pytest.approx(grad[i, j], rel=1e-3, abs=1e-8)

    def test_weighted_fields_shape_checked(self, kernels, mask, backend):
        with pytest.raises(GridError):
            backproject_fields(
                np.zeros((2,) + GRID.shape, dtype=complex), kernels, xp=backend
            )

    def test_backprojection_is_real(self, kernels, mask, backend):
        fields = field_stack(mask, kernels, xp=backend)
        out = backproject_fields(fields, kernels, xp=backend)
        assert out.dtype == backend.float_dtype
