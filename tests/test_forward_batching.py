"""Equivalence and accounting tests for the batched multi-corner engine.

The batched forward path (one shared ``fft2(M)``, one vectorized
``ifft2`` across all (focus x kernel) spectra, one accumulated adjoint
pass) is pinned to per-corner references built from the per-kernel
hopkins primitives (:func:`aerial_image`, :func:`field_stack`,
:func:`backproject_fields`).  On the numpy float64 reference backend the
aerial images are bitwise equal to the reference — on the tiny grid, on
the 256-px reduced grid (row-pruned inverse FFT) and on a 372-px
full-chip window (dense support, unpruned inverse FFT) — and gradients
reassociate only at the 1e-12 level.

The cross-backend comparisons are parametrized over every registered
array backend (``backend`` fixture): the reference side always runs on
the numpy float64 backend, so the float64 tolerances apply to float64
backends while single-precision backends are held to the float32
forward gate instead.
"""

import numpy as np
import pytest

from repro.config import LithoConfig
from repro.errors import OpticsError
from repro.fullchip.ambit import AmbitModel
from repro.litho.simulator import LithographySimulator
from repro.obs import Instrumentation
from repro.opc.objectives import (
    CompositeObjective,
    ImageDifferenceObjective,
    PVBandObjective,
)
from repro.optics.hopkins import (
    ForwardCache,
    accumulate_backprojection,
    aerial_image,
    backproject_fields,
    batched_field_stacks,
    field_stack,
    weight_fields,
)
from repro.optics.kernels import common_grid_shape
from repro.process.corners import ProcessCorner, nominal_corner
from repro.process.pvband import pv_band, pv_band_area

AERIAL_TOL = 1e-10  # max abs diff on aerial images for float64 backends
GRAD_RTOL = 1e-9  # gradients only reassociate floating-point sums

#: Window edge of a default full-chip tile at reduced scale: a 256-px
#: core plus two 58-px ambit halos.
WINDOW_PX = 372


def aerial_atol(backend, scale=1.0):
    """Max-abs-diff floor vs a float64 reference for this backend."""
    if backend.precision == "float64":
        return AERIAL_TOL
    return backend.equivalence_rtol * scale


def grad_tols(backend, scale=1.0):
    """(rtol, atol) for gradient comparisons vs a float64 reference."""
    if backend.precision == "float64":
        return GRAD_RTOL, GRAD_RTOL * scale
    return backend.equivalence_rtol, backend.equivalence_rtol * scale


def reference_aerials(sim, mask, corners):
    """Per-corner aerial images from the per-kernel hopkins reference."""
    return [
        aerial_image(mask, sim.kernels_at(c.defocus_nm), dose=c.dose, xp="numpy")
        for c in corners
    ]


def reference_gradient(sim, mask, contributions, xp="numpy"):
    """Per-corner adjoints of ``(corner, dF/dI_eff)`` pairs, summed.

    Each contribution goes through the resist-diffusion adjoint, then
    the per-kernel SOCS adjoint, then the corner's dose factor — one
    back-projection per corner, nothing shared.
    """
    total = np.zeros(sim.grid.shape)
    for corner, df_di in contributions:
        kernels = sim.kernels_at(corner.defocus_nm)
        weighted = weight_fields(
            sim.resist.diffuse(df_di), field_stack(mask, kernels, xp=xp), xp
        )
        total += corner.dose * backproject_fields(weighted, kernels, xp=xp)
    return total


def random_mask(rng, shape):
    """A structured random mask: blocky features plus continuous noise."""
    mask = 0.3 * rng.random(shape)
    r0, c0 = rng.integers(8, shape[0] // 2, size=2)
    mask[r0 : r0 + 16, c0 : c0 + 16] += 0.6
    return np.clip(mask, 0.0, 1.0)


ASYMMETRIC_CORNERS = [
    ProcessCorner("fminus_dplus", 25.0, 1.02),
    ProcessCorner("nom", 0.0, 1.0),
    ProcessCorner("fminus_dminus", 25.0, 0.98),
    ProcessCorner("odd_focus", 12.5, 1.01),
]


@pytest.fixture(scope="module")
def window_sim():
    """A full-chip window simulator on the numpy float64 backend.

    A 1024-nm probe grid keeps the model build cheap; window kernels
    have dense frequency support whatever the probe size, so the engine
    runs its unpruned inverse FFT here.
    """
    model = AmbitModel.build(LithoConfig.reduced(), probe_extent_nm=1024.0)
    return model.simulator_for((WINDOW_PX, WINDOW_PX), backend="numpy")


@pytest.fixture(params=["tiny", "reduced", "window"])
def pinned_sim(request):
    """Every grid type the engine runs on, each on the numpy backend."""
    fixture = {"tiny": "tiny_sim", "reduced": "sim", "window": "window_sim"}
    return request.getfixturevalue(fixture[request.param])


class TestReferencePin:
    """The engine against the per-kernel reference on every grid type."""

    def test_simulate_all_corners_bitwise(self, pinned_sim, rng):
        mask = random_mask(rng, pinned_sim.grid.shape)
        corners = pinned_sim.corners()
        images = pinned_sim.simulate_all_corners(mask, corners)
        references = reference_aerials(pinned_sim, mask, corners)
        for image, reference in zip(images, references):
            assert np.array_equal(image, reference)

    def test_gradient_all_corners_matches(self, pinned_sim, rng):
        mask = random_mask(rng, pinned_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(pinned_sim.grid.shape))
            for corner in pinned_sim.corners()
        ]
        grad = pinned_sim.gradient_all_corners(mask, contributions)
        reference = reference_gradient(pinned_sim, mask, contributions)
        scale = np.max(np.abs(reference))
        assert np.allclose(grad, reference, rtol=GRAD_RTOL, atol=GRAD_RTOL * scale)


class TestHopkinsBatching:
    """Unit-level equivalence of the batched hopkins primitives."""

    def test_batched_field_stacks_match_field_stack(self, tiny_sim, rng, backend):
        mask = random_mask(rng, tiny_sim.grid.shape)
        kernel_sets = [tiny_sim.kernels_at(f) for f in (0.0, 25.0)]
        stacks = batched_field_stacks(ForwardCache(mask, xp=backend), kernel_sets)
        for kernels, batched in zip(kernel_sets, stacks):
            reference = field_stack(mask, kernels, xp="numpy")
            diff = np.max(np.abs(backend.to_numpy(batched) - reference))
            assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_accumulate_matches_backprojection_sum(self, tiny_sim, rng, backend):
        mask = random_mask(rng, tiny_sim.grid.shape)
        groups = []
        reference = np.zeros(tiny_sim.grid.shape)
        for focus in (0.0, 25.0):
            kernels = tiny_sim.kernels_at(focus)
            df_di = rng.standard_normal(tiny_sim.grid.shape)
            groups.append(
                (weight_fields(df_di, field_stack(mask, kernels, xp=backend), backend),
                 kernels)
            )
            reference += backproject_fields(
                weight_fields(
                    df_di, field_stack(mask, kernels, xp="numpy"), "numpy"
                ),
                kernels,
                xp="numpy",
            )
        batched = accumulate_backprojection(groups, xp=backend)
        rtol, atol = grad_tols(backend, np.max(np.abs(reference)))
        assert np.allclose(batched, reference, rtol=rtol, atol=max(atol, 1e-12))

    def test_single_set_degenerate_case(self, tiny_sim, rng, backend):
        mask = random_mask(rng, tiny_sim.grid.shape)
        kernels = tiny_sim.kernels_at(0.0)
        (batched,) = batched_field_stacks(ForwardCache(mask, xp=backend), [kernels])
        reference = field_stack(mask, kernels, xp="numpy")
        diff = np.max(np.abs(backend.to_numpy(batched) - reference))
        assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_empty_kernel_sets(self, tiny_sim, rng):
        assert batched_field_stacks(ForwardCache(random_mask(rng, (64, 64))), []) == []
        with pytest.raises(OpticsError):
            accumulate_backprojection([])

    def test_mixed_grids_rejected(self, tiny_sim, sim):
        with pytest.raises(OpticsError):
            common_grid_shape([tiny_sim.kernels_at(0.0), sim.kernels_at(0.0)])


class TestSimulatorEquivalence:
    """simulate_all_corners / gradient_all_corners vs the per-kernel reference.

    The engine runs on the parametrized backend; the reference stays on
    the numpy float64 backend, so this doubles as the cross-backend
    forward-model equivalence battery."""

    def test_aerial_images_match_per_corner(self, backend_tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        corners = backend_tiny_sim.corners()
        batched = backend_tiny_sim.simulate_all_corners(mask, corners)
        reference = reference_aerials(backend_tiny_sim, mask, corners)
        for b, ref in zip(batched, reference):
            diff = np.max(np.abs(b - ref))
            assert diff <= aerial_atol(backend, np.max(np.abs(ref)))

    def test_asymmetric_corner_set(self, backend_tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        batched = backend_tiny_sim.simulate_all_corners(mask, ASYMMETRIC_CORNERS)
        for corner, image in zip(ASYMMETRIC_CORNERS, batched):
            reference = backend_tiny_sim.aerial(mask, corner)
            diff = np.max(np.abs(image - reference))
            # Same backend on both sides: float64-tight for f64, float32
            # reassociation noise for single precision.
            assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_single_corner_degenerate_case(self, backend_tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        corner = ProcessCorner("solo", 25.0, 0.97)
        (image,) = backend_tiny_sim.simulate_all_corners(mask, [corner])
        reference = backend_tiny_sim.aerial(mask, corner)
        diff = np.max(np.abs(image - reference))
        assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_print_soft_matches(self, backend_tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        # The resist sigmoid amplifies aerial-image error by at most
        # steepness/4; fold that into the float32 floor.
        slope = backend_tiny_sim.config.resist.theta_z / 4.0
        corners = backend_tiny_sim.corners()
        aerials = reference_aerials(backend_tiny_sim, mask, corners)
        for corner, aerial in zip(corners, aerials):
            batched = backend_tiny_sim.context(mask).soft_image(corner)
            reference = backend_tiny_sim.resist.develop_soft(aerial)
            tol = aerial_atol(backend, max(1.0, slope))
            assert np.max(np.abs(batched - reference)) <= tol

    def test_pv_band_matches(self, backend_tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        band = backend_tiny_sim.pv_band(mask)
        corners = backend_tiny_sim.corners()
        printed = [
            backend_tiny_sim.resist.develop(aerial)
            for aerial in reference_aerials(backend_tiny_sim, mask, corners)
        ]
        reference = pv_band(printed)
        if backend.is_reference:
            assert np.array_equal(band, reference)
            assert backend_tiny_sim.pv_band_area(mask) == pv_band_area(
                printed, backend_tiny_sim.grid.pixel_nm
            )
        else:
            # Binarization can flip pixels whose soft image sits within
            # the backend's noise floor of the threshold; demand the
            # flips stay negligible rather than exactly zero.
            assert np.mean(band != reference) <= 1e-3

    def test_gradient_all_corners_matches_per_corner(self, backend_tiny_sim,
                                                     backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(backend_tiny_sim.grid.shape))
            for corner in ASYMMETRIC_CORNERS
        ]
        batched = backend_tiny_sim.gradient_all_corners(mask, contributions)
        # Same backend on both sides: only the summation order differs.
        reference = reference_gradient(
            backend_tiny_sim, mask, contributions, xp=backend_tiny_sim.xp
        )
        rtol, atol = grad_tols(backend, np.max(np.abs(reference)))
        assert np.allclose(batched, reference, rtol=rtol, atol=atol)

    def test_gradient_matches_reference_backend(self, backend_tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(backend_tiny_sim.grid.shape))
            for corner in ASYMMETRIC_CORNERS
        ]
        batched = backend_tiny_sim.gradient_all_corners(mask, contributions)
        reference = reference_gradient(backend_tiny_sim, mask, contributions)
        rtol, atol = grad_tols(backend, np.max(np.abs(reference)))
        assert np.allclose(batched, reference, rtol=rtol, atol=atol)

    def test_gradient_empty_contributions(self, backend_tiny_sim):
        grad = backend_tiny_sim.gradient_all_corners(
            np.zeros(backend_tiny_sim.grid.shape), []
        )
        assert np.array_equal(grad, np.zeros(backend_tiny_sim.grid.shape))


class TestContextEquivalence:
    """ForwardContext over whole objectives vs the per-kernel reference."""

    def _target(self, tiny_sim):
        target = np.zeros(tiny_sim.grid.shape)
        target[24:40, 24:40] = 1.0
        return target

    def _composite(self, target):
        return CompositeObjective(
            [
                (100.0, ImageDifferenceObjective(target, gamma=4)),
                (1.0, PVBandObjective(target)),
            ]
        )

    def test_composite_value_and_gradient_match(self, tiny_sim, rng):
        target = self._target(tiny_sim)
        mask = np.clip(target + 0.1 * rng.standard_normal(target.shape), 0.05, 0.95)
        composite = self._composite(target)
        ctx = tiny_sim.context(mask)
        value, grad = composite.value_and_gradient(ctx)
        # The images every term reads are the reference images ...
        corners = tiny_sim.corners()
        for corner, aerial in zip(corners, reference_aerials(tiny_sim, mask, corners)):
            assert np.array_equal(ctx.aerial(corner), aerial)
        # ... and the merged adjoint equals one per-kernel adjoint per
        # (term x corner) contribution.
        ref_value = 0.0
        merged = []
        for weight, term in composite.terms:
            term_value, contributions = term.intensity_contributions(ctx)
            ref_value += weight * term_value
            merged.extend((corner, weight * df_di) for corner, df_di in contributions)
        reference = reference_gradient(tiny_sim, mask, merged)
        assert value == pytest.approx(ref_value, rel=1e-12)
        scale = np.max(np.abs(reference))
        assert np.allclose(grad, reference, rtol=GRAD_RTOL, atol=GRAD_RTOL * scale)

    def test_accumulate_matches_sequential_backprojection(self, tiny_sim, rng):
        mask = random_mask(rng, tiny_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(tiny_sim.grid.shape))
            for corner in tiny_sim.corners()
        ]
        batched = tiny_sim.context(mask).accumulate_intensity_gradients(contributions)
        reference = reference_gradient(tiny_sim, mask, contributions)
        scale = np.max(np.abs(reference))
        assert np.allclose(batched, reference, rtol=GRAD_RTOL, atol=GRAD_RTOL * scale)


class TestFFTAccounting:
    """Exactly one fft2(M) per mask per iteration, observable end to end."""

    def _instrumented_sim(self, tiny_config):
        simulator = LithographySimulator(tiny_config, obs=Instrumentation.collecting())
        simulator.prewarm()
        return simulator

    def test_simulate_all_corners_one_mask_fft(self, tiny_config, rng):
        sim = self._instrumented_sim(tiny_config)
        mask = random_mask(rng, sim.grid.shape)
        sim.simulate_all_corners(mask)
        assert sim.obs.metrics.counter("forward_mask_ffts").value == 1
        assert sim.obs.metrics.counter("forward_fft_reuse").value >= 1

    def test_full_objective_evaluation_one_mask_fft(self, tiny_config, rng):
        """A whole composite iteration (values + gradients at the nominal
        condition and all four corners) shares a single mask FFT."""
        sim = self._instrumented_sim(tiny_config)
        target = np.zeros(sim.grid.shape)
        target[24:40, 24:40] = 1.0
        mask = np.clip(target + 0.1 * rng.standard_normal(target.shape), 0.05, 0.95)
        objective = CompositeObjective(
            [
                (100.0, ImageDifferenceObjective(target, gamma=4)),
                (1.0, PVBandObjective(target)),
            ]
        )
        ctx = sim.context(mask)
        objective.value_and_gradient(ctx)
        info = ctx.cache_info()
        assert info.mask_ffts == 1
        assert info.reuses >= 1
        assert sim.obs.metrics.counter("forward_mask_ffts").value == 1
        assert sim.obs.metrics.counter("forward_fft_reuse").value == info.reuses

    def test_forward_batched_span_recorded(self, tiny_config, rng):
        sim = self._instrumented_sim(tiny_config)
        sim.simulate_all_corners(random_mask(rng, sim.grid.shape))
        assert "forward.batched" in sim.obs.tracer.stats()

    def test_backproject_batched_span_recorded(self, tiny_config, rng):
        sim = self._instrumented_sim(tiny_config)
        mask = random_mask(rng, sim.grid.shape)
        sim.gradient_all_corners(
            mask, [(nominal_corner(), np.ones(sim.grid.shape))]
        )
        assert "backproject.batched" in sim.obs.tracer.stats()

    def test_distinct_masks_get_distinct_ffts(self, tiny_config, rng):
        sim = self._instrumented_sim(tiny_config)
        sim.simulate_all_corners(random_mask(rng, sim.grid.shape))
        sim.simulate_all_corners(random_mask(rng, sim.grid.shape))
        assert sim.obs.metrics.counter("forward_mask_ffts").value == 2


class TestKernelCacheInfoOrdering:
    """Satellite: cache snapshots must compare deterministically."""

    def test_defocus_values_sorted_regardless_of_build_order(self, tiny_config):
        sim = LithographySimulator(tiny_config)
        sim.kernels_at(25.0)  # deliberately built out of order
        sim.kernels_at(0.0)
        assert sim.cache_info().defocus_values_nm == (0.0, 25.0)

    def test_two_build_orders_give_equal_snapshots(self, tiny_config):
        forward = LithographySimulator(tiny_config)
        forward.kernels_at(0.0)
        forward.kernels_at(25.0)
        backward = LithographySimulator(tiny_config)
        backward.kernels_at(25.0)
        backward.kernels_at(0.0)
        assert (
            forward.cache_info().defocus_values_nm
            == backward.cache_info().defocus_values_nm
        )
