"""Equivalence and accounting tests for the batched multi-corner engine.

The batched forward path (one shared ``fft2(M)``, one vectorized
``ifft2`` across all (focus x kernel) spectra, one accumulated adjoint
pass) is pinned to per-corner references built from the per-kernel
hopkins primitives (:func:`aerial_image`, :func:`field_stack`,
:func:`backproject_fields`).  On the numpy float64 reference backend the
aerial images are bitwise equal to the reference — on the tiny grid, on
the 256-px reduced grid (row-pruned inverse FFT) and on a 372-px
full-chip window (dense support, unpruned inverse FFT) — and gradients
reassociate only at the 1e-12 level.  The bitwise pins hold at one
thread and at two, where the batched transforms split across threads.
``TestParentEnginePin`` holds the engine, gradients included, to a
verbatim copy of the parent engine's numpy expressions at one to four
threads, and ``TestParentCompositePin`` holds the composite objective to
a frozen copy of its terms, their merge and the adjoint.

The cross-backend comparisons are parametrized over every registered
array backend (``backend`` fixture): the reference side always runs on
the numpy float64 backend, so the float64 tolerances apply to float64
backends while single-precision backends are held to the float32
forward gate instead.
"""

import os
import threading

import numpy as np
import pytest

from repro.config import LithoConfig, OptimizerConfig
from repro.errors import OpticsError
from repro.fullchip.ambit import AmbitModel
from repro.fullchip.engine import FullChipConfig, FullChipEngine
from repro.geometry.layout import Layout
from repro.geometry.raster import rasterize_layout
from repro.geometry.rect import Rect
from repro.litho.simulator import LithographySimulator
from repro.obs import Instrumentation
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import Tracer
from repro.opc.mosaic import MosaicFast
from repro.opc.objectives import (
    CompositeObjective,
    EPEObjective,
    ImageDifferenceObjective,
    PVBandObjective,
)
from repro.opc.state import ForwardContext
from repro.optics.hopkins import (
    ForwardCache,
    accumulate_backprojection,
    aerial_image,
    backproject_fields,
    batched_field_stacks,
    field_stack,
)
from repro.optics.kernels import SOCSKernels, common_grid_shape
from repro.optics.tcc import FrequencySupport
from repro.process.corners import ProcessCorner, nominal_corner
from repro.process.pvband import pv_band, pv_band_area
from repro.utils.validation import sigmoid
from repro.workloads.generator import synthetic_canvas
from repro.workloads.iccad2013 import load_benchmark
from repro.xp import fft_threads_scope, resolve_backend

#: Thread counts the bitwise pins run the float64 transforms at.
FFT_THREADS = (1, 2)

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
    backend = resolve_backend(xp)
    total = np.zeros(sim.grid.shape)
    for corner, df_di in contributions:
        kernels = sim.kernels_at(corner.defocus_nm)
        weight = backend.asarray(sim.resist.diffuse(df_di), "float")
        weighted = weight[None, :, :] * field_stack(mask, kernels, xp=backend)
        total += corner.dose * backproject_fields(weighted, kernels, xp=backend)
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
    """The engine against the per-kernel reference on every grid type.

    Each case runs at every count in ``FFT_THREADS``: the batched
    transforms split across threads must not move a bit.
    """

    def test_simulate_all_corners_bitwise(self, pinned_sim, rng):
        mask = random_mask(rng, pinned_sim.grid.shape)
        corners = pinned_sim.corners()
        references = reference_aerials(pinned_sim, mask, corners)
        for threads in FFT_THREADS:
            with fft_threads_scope(threads):
                images = pinned_sim.simulate_all_corners(mask, corners)
            for image, reference in zip(images, references):
                assert np.array_equal(image, reference), f"{threads} thread(s)"

    def test_gradient_all_corners_matches(self, pinned_sim, rng):
        mask = random_mask(rng, pinned_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(pinned_sim.grid.shape))
            for corner in pinned_sim.corners()
        ]
        grads = []
        for threads in FFT_THREADS:
            with fft_threads_scope(threads):
                grads.append(pinned_sim.gradient_all_corners(mask, contributions))
        for grad in grads[1:]:
            assert np.array_equal(grad, grads[0])
        reference = reference_gradient(pinned_sim, mask, contributions)
        scale = np.max(np.abs(reference))
        assert np.allclose(grads[0], reference, rtol=GRAD_RTOL, atol=GRAD_RTOL * scale)

    def test_mosaic_fast_mask_bitwise(self, sim):
        layout = load_benchmark("B1")
        masks = []
        for threads in FFT_THREADS:
            with fft_threads_scope(threads):
                masks.append(MosaicFast(sim.config, simulator=sim).solve(layout).mask)
        for mask in masks[1:]:
            assert np.array_equal(mask, masks[0])


def with_index_arrays(kernels, pixel_nm):
    """The same kernel set with its support spelled out as index arrays.

    Lists every frequency of the grid in row-major order, each with its
    row/column index and its spatial frequency.  The weights and spectra
    are shared with ``kernels``, so only the form of the support differs.
    """
    rows, cols = kernels.shape
    fxx, fyy = np.meshgrid(
        np.fft.fftfreq(cols, d=pixel_nm), np.fft.fftfreq(rows, d=pixel_nm)
    )
    support = FrequencySupport(
        rows=np.repeat(np.arange(rows), cols),
        cols=np.tile(np.arange(cols), rows),
        fx=fxx.ravel(),
        fy=fyy.ravel(),
        shape=(rows, cols),
        freq_step=kernels.support.freq_step,
    )
    return SOCSKernels(
        support=support,
        weights=kernels.weights,
        spectra=kernels.spectra,
        defocus_nm=kernels.defocus_nm,
    )


@pytest.fixture(scope="module")
def index_window_sim(window_sim):
    """``window_sim``'s window, imaged through index-array supports."""
    simulator = window_sim.model.simulator_for(window_sim.grid.shape, backend="numpy")
    simulator._kernel_cache = {
        focus: with_index_arrays(window_sim.kernels_at(focus), window_sim.grid.pixel_nm)
        for focus in window_sim.model.defocus_values_nm
    }
    return simulator


class TestWindowSupportFormPin:
    """A tile window images bit for bit alike whatever form its support takes.

    Window kernels cover every frequency of their grid.  The shipped
    kernels and the same kernels with the support given as explicit index
    arrays must produce identical aerials, gradients and stitched masks.
    The shipped side runs at every count in ``FFT_THREADS``, the indexed
    side at one thread, so the pin also spans thread counts.
    """

    def test_simulate_all_corners_bitwise(self, window_sim, index_window_sim, rng):
        mask = random_mask(rng, window_sim.grid.shape)
        with fft_threads_scope(1):
            indexed = index_window_sim.simulate_all_corners(mask)
        for threads in FFT_THREADS:
            with fft_threads_scope(threads):
                shipped = window_sim.simulate_all_corners(mask)
            for image, reference in zip(shipped, indexed):
                assert np.array_equal(image, reference), f"{threads} thread(s)"

    def test_gradient_all_corners_bitwise(self, window_sim, index_window_sim, rng):
        mask = random_mask(rng, window_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(window_sim.grid.shape))
            for corner in window_sim.corners()
        ]
        with fft_threads_scope(1):
            indexed = index_window_sim.gradient_all_corners(mask, contributions)
        for threads in FFT_THREADS:
            with fft_threads_scope(threads):
                shipped = window_sim.gradient_all_corners(mask, contributions)
            assert np.array_equal(shipped, indexed), f"{threads} thread(s)"

    def test_one_tile_stitched_mask_bitwise(self, monkeypatch):
        # One tile solves in-process on every usable core, so the thread
        # count is set through the cores the process may use.
        litho = LithoConfig.reduced()
        engine = FullChipEngine(
            litho,
            optimizer=OptimizerConfig(max_iterations=2, use_jump=False),
            config=FullChipConfig(probe_extent_nm=1024.0, backend="numpy"),
        )
        layout = synthetic_canvas(1024.0, 1024.0, seed=4)
        assert engine.plan_for(layout).num_tiles == 1
        shipped = {}
        for threads in FFT_THREADS:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=threads: set(range(n)))
            result = engine.solve(layout)
            assert [r.fft_threads for r in result.tile_results] == [threads]
            shipped[threads] = result.mask

        shipped_kernels = AmbitModel.window_kernels

        def indexed_kernels(model, shape, defocus_nm=0.0):
            kernels = shipped_kernels(model, shape, defocus_nm)
            return with_index_arrays(kernels, model.pixel_nm)

        monkeypatch.setattr(AmbitModel, "window_kernels", indexed_kernels)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        indexed = engine.solve(layout).mask
        for threads, mask in shipped.items():
            assert np.array_equal(mask, indexed), f"{threads} thread(s)"


# -- the parent engine, verbatim -------------------------------------------
#
# The batched forward, the intensity einsum, the weighted fields and the
# accumulated adjoint as the engine computed them while every stage
# allocated its own result: the same numpy expressions in the same
# operand order, on one thread.  ``TestParentEnginePin`` holds the engine
# to these bits.

#: Thread counts the parent-engine pin runs the engine at.
PARENT_PIN_THREADS = (1, 2, 3, 4)

#: Chip evaluation grid of a two-tile canvas: a 256 x 512 px chip plus
#: an ambit margin on every side.
EVALUATION_SHAPE = (372, 628)


def _parent_index(kernels):
    support = kernels.support
    if support.dense:
        return None, None
    return (
        np.asarray(support.rows, dtype=np.intp),
        np.asarray(support.cols, dtype=np.intp),
    )


def _parent_gather(full, rows, cols):
    if rows is None:
        return full.reshape(tuple(full.shape[:-2]) + (-1,))
    return full[..., rows, cols]


def _parent_scatter(full, rows, cols, values):
    if rows is None:
        full[...] = values.reshape(tuple(full.shape))
    else:
        full[..., rows, cols] = values


def _parent_support_rows(supports, num_rows):
    if any(s.dense for s in supports):
        return None
    rows = np.unique(np.concatenate([s.rows for s in supports]))
    if len(rows) * 2 >= num_rows:
        return None
    return rows


def parent_field_stacks(cache, kernel_sets):
    """``batched_field_stacks``: products scattered into zeros, one ifft."""
    shape = common_grid_shape(kernel_sets)
    counts = [ks.num_kernels for ks in kernel_sets]
    stacked = np.zeros((sum(counts),) + shape, dtype=np.complex128)
    pos = 0
    for ks in kernel_sets:
        rows, cols = _parent_index(ks)
        spectra = np.asarray(ks.spectra, dtype=np.complex128)
        m_sup = cache.gathered(ks.support)
        block = stacked[pos : pos + ks.num_kernels]
        _parent_scatter(block, rows, cols, m_sup[None, :] * spectra)
        pos += ks.num_kernels
    rows_used = _parent_support_rows([ks.support for ks in kernel_sets], shape[0])
    if rows_used is None:
        fields = np.fft.ifft2(stacked, axes=(-2, -1))
    else:
        ru = np.asarray(rows_used, dtype=np.intp)
        fields = np.zeros(tuple(stacked.shape), dtype=np.complex128)
        fields[:, ru, :] = np.fft.ifft(stacked[:, ru, :], axis=-1)
        fields = np.fft.ifft(fields, axis=-2)
    out = []
    pos = 0
    for h in counts:
        out.append(fields[pos : pos + h])
        pos += h
    return out


def parent_intensity(kernels, fields, dose=1.0):
    """``aerial_image`` on precomputed fields."""
    weights = np.asarray(kernels.weights, dtype=np.float64)
    intensity = np.einsum("k,kij->ij", weights, np.abs(fields) ** 2)
    return np.asarray(dose * intensity)


def parent_weight_fields(df_di, fields):
    """``weight_fields``: the host gradient times every field."""
    return np.asarray(df_di, dtype=np.float64)[None, :, :] * fields


def parent_accumulate_backprojection(groups):
    """``accumulate_backprojection`` over ``(weighted_fields, kernels)``."""
    shape = common_grid_shape([ks for _, ks in groups])
    total = sum(ks.num_kernels for _, ks in groups)
    stacked = np.empty((total,) + shape, dtype=np.complex128)
    pos = 0
    for wf, ks in groups:
        stacked[pos : pos + ks.num_kernels] = np.asarray(wf, dtype=np.complex128)
        pos += ks.num_kernels
    rows_used = _parent_support_rows([ks.support for _, ks in groups], shape[0])
    if rows_used is None:
        w_hat = np.fft.fft2(stacked, axes=(-2, -1))
    else:
        ru = np.asarray(rows_used, dtype=np.intp)
        w_hat = np.fft.fft(np.fft.fft(stacked, axis=-2)[:, ru, :], axis=-1)
    accum = np.zeros(shape, dtype=np.complex128)
    pos = 0
    for _, ks in groups:
        h = ks.num_kernels
        weights = np.asarray(ks.weights, dtype=np.float64)
        spectra = np.asarray(ks.spectra, dtype=np.complex128)
        rows, cols = _parent_index(ks)
        gathered_rows = rows
        if rows_used is not None:
            gathered_rows = np.asarray(
                np.searchsorted(rows_used, ks.support.rows), dtype=np.intp
            )
        gathered = _parent_gather(w_hat[pos : pos + h], gathered_rows, cols)
        # Unnamed, as in the parent: numpy elides a >= 256 KiB conjugate
        # into the product and swaps the operands.
        summed = np.einsum("k,ks->s", weights, gathered * np.conj(spectra))
        _parent_scatter(accum, rows, cols, _parent_gather(accum, rows, cols) + summed)
        pos += h
    return np.asarray(2.0 * np.real(np.fft.ifft2(accum, axes=(-2, -1))))


def parent_simulate_all_corners(sim, mask, corners):
    """``LithographySimulator.simulate_all_corners`` on the parent engine."""
    kernel_by_corner = [sim.kernels_at(c.defocus_nm) for c in corners]
    focus_kernels = {}
    for corner, kernels in zip(corners, kernel_by_corner):
        focus_kernels.setdefault(float(corner.defocus_nm), kernels)
    cache = ForwardCache(mask, xp="numpy")
    stacks = parent_field_stacks(cache, list(focus_kernels.values()))
    intensity = {
        focus: parent_intensity(kernels, fields)
        for (focus, kernels), fields in zip(focus_kernels.items(), stacks)
    }
    return [c.dose * intensity[float(c.defocus_nm)] for c in corners]


def parent_gradient_all_corners(sim, mask, contributions, fields_by_focus=None):
    """``LithographySimulator.gradient_all_corners`` on the parent engine."""
    contributions = [
        (corner if corner is not None else nominal_corner(), df_di)
        for corner, df_di in contributions
    ]
    combined = {}
    for corner, df_di in contributions:
        key = float(corner.defocus_nm)
        scaled = corner.dose * np.asarray(df_di, dtype=np.float64)
        combined[key] = combined[key] + scaled if key in combined else scaled
    combined = {key: sim.resist.diffuse(value) for key, value in combined.items()}
    if fields_by_focus is None or any(f not in fields_by_focus for f in combined):
        cache = ForwardCache(mask, xp="numpy")
        stacks = parent_field_stacks(cache, [sim.kernels_at(f) for f in combined])
        fields_by_focus = dict(zip(combined, stacks))
    groups = [
        (parent_weight_fields(combined[f], fields_by_focus[f]), sim.kernels_at(f))
        for f in combined
    ]
    return parent_accumulate_backprojection(groups)


class ParentContext(ForwardContext):
    """A :class:`ForwardContext` whose fields, intensities and adjoint
    come from the parent engine."""

    def ensure_fields(self, corners):
        wanted = []
        for corner in corners:
            key = float((corner or self.nominal).defocus_nm)
            if key not in self._fields and key not in wanted:
                wanted.append(key)
        if wanted:
            kernel_sets = [self.sim.kernels_at(key) for key in wanted]
            stacks = parent_field_stacks(self._cache, kernel_sets)
            self._fields.update(zip(wanted, stacks))

    def _intensity_at_focus(self, corner):
        key = float(corner.defocus_nm)
        if key not in self._intensity:
            kernels = self.sim.kernels_at(corner.defocus_nm)
            self._intensity[key] = parent_intensity(kernels, self.fields(corner))
        return self._intensity[key]

    def accumulate_intensity_gradients(self, contributions):
        resolved = [
            (corner if corner is not None else self.nominal, df_di)
            for corner, df_di in contributions
        ]
        if not resolved:
            return np.zeros_like(self.mask)
        self.ensure_fields([corner for corner, _ in resolved])
        return parent_gradient_all_corners(
            self.sim, self.mask, resolved, fields_by_focus=self._fields
        )


@pytest.fixture(scope="module")
def evaluation_sim(window_sim):
    """The chip evaluation grid of a two-tile canvas (dense support)."""
    return window_sim.model.simulator_for(EVALUATION_SHAPE, backend="numpy")


@pytest.fixture(params=["tiny", "reduced", "window", "evaluation"])
def engine_sim(request):
    """Every grid the engine images, each on the numpy backend."""
    fixture = {
        "tiny": "tiny_sim",
        "reduced": "sim",
        "window": "window_sim",
        "evaluation": "evaluation_sim",
    }
    return request.getfixturevalue(fixture[request.param])


class TestParentEnginePin:
    """The engine against the parent engine's expressions, bit for bit.

    ``TestReferencePin`` compares the engine with ``aerial_image``, which
    the engine shares, so a change to both passes there.  The copies
    above are independent of the engine's code.  Each case runs at every
    count in ``PARENT_PIN_THREADS``, on the band-limited clip grid (row-
    pruned transforms), the tiny grid, a tile window and the chip
    evaluation grid (dense supports).
    """

    def test_simulate_all_corners(self, engine_sim, rng):
        mask = random_mask(rng, engine_sim.grid.shape)
        corners = engine_sim.corners()
        expected = parent_simulate_all_corners(engine_sim, mask, corners)
        for threads in PARENT_PIN_THREADS:
            with fft_threads_scope(threads):
                images = engine_sim.simulate_all_corners(mask, corners)
            for image, reference in zip(images, expected):
                assert np.array_equal(image, reference), f"{threads} thread(s)"

    def test_gradient_all_corners(self, engine_sim, rng):
        mask = random_mask(rng, engine_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(engine_sim.grid.shape))
            for corner in engine_sim.corners()
        ]
        expected = parent_gradient_all_corners(engine_sim, mask, contributions)
        for threads in PARENT_PIN_THREADS:
            with fft_threads_scope(threads):
                grad = engine_sim.gradient_all_corners(mask, contributions)
            assert np.array_equal(grad, expected), f"{threads} thread(s)"

    def test_composite_value_and_gradient(self, engine_sim, rng):
        shape = engine_sim.grid.shape
        target = np.zeros(shape)
        target[shape[0] // 4 : shape[0] // 2, shape[1] // 4 : shape[1] // 2] = 1.0
        mask = np.clip(target + 0.1 * rng.standard_normal(shape), 0.05, 0.95)
        composite = CompositeObjective(
            [
                (100.0, ImageDifferenceObjective(target, gamma=4)),
                (1.0, PVBandObjective(target)),
            ]
        )
        value, grad = composite.value_and_gradient(ParentContext(mask, engine_sim))
        for threads in PARENT_PIN_THREADS:
            with fft_threads_scope(threads):
                got_value, got_grad = composite.value_and_gradient(engine_sim.context(mask))
            assert got_value == value, f"{threads} thread(s)"
            assert np.array_equal(got_grad, grad), f"{threads} thread(s)"


# The composite objective as it evaluated while every term ran on the
# calling thread: each term's intensity contributions as the three
# imaging terms computed them, merged in term order then corner order,
# dose-combined per focus and back-projected by the parent adjoint, on
# the parent engine's fields and intensities.  ``TestParentCompositePin``
# holds ``CompositeObjective`` to these bits.


class ParentImages:
    """Soft printed images of one mask at the corners of a term set."""

    def __init__(self, sim, mask, corners):
        foci = []
        for corner in corners:
            if float(corner.defocus_nm) not in foci:
                foci.append(float(corner.defocus_nm))
        cache = ForwardCache(mask, xp="numpy")
        stacks = parent_field_stacks(cache, [sim.kernels_at(f) for f in foci])
        self.sim = sim
        self.fields = dict(zip(foci, stacks))
        self.intensity = {
            f: parent_intensity(sim.kernels_at(f), self.fields[f]) for f in foci
        }

    def soft_image(self, corner):
        aerial = corner.dose * self.intensity[float(corner.defocus_nm)]
        return self.sim.resist.develop_soft(aerial)

    def soft_derivative(self, z):
        z = np.asarray(z, dtype=np.float64)
        return self.sim.resist.config.theta_z * z * (1.0 - z)


def parent_pvband_corners(objective, sim):
    if objective._corners is not None:
        return objective._corners
    return [c for c in sim.corners() if not c.is_nominal]


def parent_image_difference(objective, images):
    corner = nominal_corner()
    z = images.soft_image(corner)
    diff = z - objective.target
    scale = 1.0 / diff.size if objective.normalize else 1.0
    penalty = diff**objective.gamma
    if objective.weight is not None:
        penalty = penalty * objective.weight
    value = float(np.sum(penalty)) * scale
    dz_di = images.soft_derivative(z)
    df_di = scale * objective.gamma * diff ** (objective.gamma - 1) * dz_di
    if objective.weight is not None:
        df_di = df_di * objective.weight
    return value, [(corner, df_di)]


def parent_pvband(objective, images):
    scale = 1.0 / objective.target.size if objective.normalize else 1.0
    value = 0.0
    contributions = []
    for corner in parent_pvband_corners(objective, images.sim):
        z = images.soft_image(corner)
        diff = z - objective.target
        penalty = diff**2 if objective.weight is None else objective.weight * diff**2
        value += float(np.sum(penalty)) * scale
        dz_di = images.soft_derivative(z)
        df_di = scale * 2.0 * diff * dz_di
        if objective.weight is not None:
            df_di = df_di * objective.weight
        contributions.append((corner, df_di))
    return value, contributions


def parent_epe(objective, images):
    corner = objective.corner if objective.corner is not None else nominal_corner()
    z = images.soft_image(corner)
    d_flat = ((np.asarray(z, dtype=np.float64) - objective.target) ** 2).ravel()
    dsum = d_flat[objective._window_flat].sum(axis=1) / objective._window_norm
    sig = sigmoid(dsum, objective.theta_epe, objective.threshold_px)
    value = float(np.sum(sig))
    coeff = objective.theta_epe * sig * (1.0 - sig) / objective._window_norm
    accum = np.zeros(objective.target.size, dtype=np.float64)
    np.add.at(
        accum,
        objective._window_flat.ravel(),
        np.repeat(coeff, objective._window_flat.shape[1]),
    )
    accum = accum.reshape(objective.target.shape)
    df_dz = accum * 2.0 * (z - objective.target)
    df_di = df_dz * images.soft_derivative(z)
    return value, [(corner, df_di)]


PARENT_TERMS = {
    ImageDifferenceObjective: parent_image_difference,
    PVBandObjective: parent_pvband,
    EPEObjective: parent_epe,
}


def parent_term_corners(objective, sim):
    if isinstance(objective, PVBandObjective):
        return parent_pvband_corners(objective, sim)
    if isinstance(objective, EPEObjective) and objective.corner is not None:
        return [objective.corner]
    return [nominal_corner()]


def parent_composite(composite, sim, mask):
    """``(value, gradient, term values)`` of ``composite`` on ``mask``."""
    mask = np.asarray(mask, dtype=np.float64)
    wanted = []
    for _, objective in composite.terms:
        wanted.extend(parent_term_corners(objective, sim))
    images = ParentImages(sim, mask, wanted)
    total = 0.0
    grad = np.zeros_like(mask)
    term_values = {}
    merged = []
    for name, (weight, objective) in zip(composite.term_names, composite.terms):
        value, contributions = PARENT_TERMS[type(objective)](objective, images)
        if weight:
            merged.extend((corner, weight * df_di) for corner, df_di in contributions)
        term_values[name] = value
        if weight:
            total += weight * value
    if merged:
        grad += parent_gradient_all_corners(
            sim, mask, merged, fields_by_focus=images.fields
        )
    return total, grad, term_values


#: The composites the pin evaluates: MOSAIC_fast's and MOSAIC_exact's
#: term pairs, each with and without a region weight.
COMPOSITE_CASES = ("fast", "fast-region", "exact", "exact-region")


def composite_case(sim, case, rng):
    """``(composite, mask)`` for one of :data:`COMPOSITE_CASES` on ``sim``'s grid."""
    grid = sim.grid
    rows, cols = grid.shape
    layout = Layout("pin", clip=Rect(0, 0, cols * grid.pixel_nm, rows * grid.pixel_nm))
    layout.add(
        Rect(
            cols // 4 * grid.pixel_nm,
            rows // 4 * grid.pixel_nm,
            cols // 2 * grid.pixel_nm,
            rows // 2 * grid.pixel_nm,
        )
    )
    target = rasterize_layout(layout, grid).astype(np.float64)
    region = None
    if case.endswith("-region"):
        band_r, band_c = rows // 8, cols // 8
        region = np.zeros(grid.shape)
        region[band_r : rows - band_r, band_c : cols - band_c] = 1.0
    if case.startswith("fast"):
        design = ImageDifferenceObjective(target, gamma=4, weight=region)
        alpha = 640.0
    else:
        design = EPEObjective(target, layout, grid, region=region)
        alpha = 5000.0
    composite = CompositeObjective(
        [(alpha, design), (64.0, PVBandObjective(target, weight=region))]
    )
    mask = np.clip(target + 0.1 * rng.standard_normal(grid.shape), 0.05, 0.95)
    return composite, mask


class TestParentCompositePin:
    """``CompositeObjective`` against a frozen copy of the parent composite.

    ``TestParentEnginePin.test_composite_value_and_gradient`` takes its
    reference from the production composite on a parent-engine context,
    so a change inside the composite passes there.  Here the terms'
    contributions, their merge, the dose combination and the adjoint are
    the parent's own expressions.  At four threads the per-focus work
    splits across two threads each.
    """

    @pytest.mark.parametrize("case", COMPOSITE_CASES)
    def test_value_and_gradient(self, engine_sim, case, rng):
        composite, mask = composite_case(engine_sim, case, rng)
        value, grad, term_values = parent_composite(composite, engine_sim, mask)
        for threads in PARENT_PIN_THREADS:
            with fft_threads_scope(threads):
                got_value, got_grad = composite.value_and_gradient(
                    engine_sim.context(mask)
                )
                got_terms = dict(composite.last_term_values)
                value_only = composite.value(engine_sim.context(mask))
            assert got_value == value, f"{threads} thread(s)"
            assert np.array_equal(got_grad, grad), f"{threads} thread(s)"
            assert got_terms == term_values, f"{threads} thread(s)"
            assert value_only == value, f"{threads} thread(s)"
            assert composite.last_term_values == term_values, f"{threads} thread(s)"


@pytest.fixture(scope="module")
def backend_window_sim(backend, window_sim):
    """``window_sim``'s window on the parametrized backend (shared kernels)."""
    simulator = window_sim.model.simulator_for(window_sim.grid.shape, backend=backend)
    simulator._kernel_cache = window_sim._kernel_cache
    return simulator


class TestWindowBackends:
    """The dense-support window path on every backend vs the numpy reference."""

    def test_aerials_match_reference(self, backend_window_sim, backend, rng):
        mask = random_mask(rng, backend_window_sim.grid.shape)
        corners = backend_window_sim.corners()
        images = backend_window_sim.simulate_all_corners(mask, corners)
        references = reference_aerials(backend_window_sim, mask, corners)
        for image, reference in zip(images, references):
            diff = np.max(np.abs(image - reference))
            assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_gradient_matches_reference(self, backend_window_sim, backend, rng):
        mask = random_mask(rng, backend_window_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(backend_window_sim.grid.shape))
            for corner in backend_window_sim.corners()
        ]
        grad = backend_window_sim.gradient_all_corners(mask, contributions)
        reference = reference_gradient(backend_window_sim, mask, contributions)
        rtol, atol = grad_tols(backend, np.max(np.abs(reference)))
        assert np.allclose(grad, reference, rtol=rtol, atol=atol)


class TestSinglePrecisionThreads:
    """numpy:float32 splits its transforms and engine stages too, bit for bit."""

    def test_window_engine_same_bits_at_every_count(self, window_sim, rng):
        simulator = window_sim.model.simulator_for(
            window_sim.grid.shape, backend="numpy:float32"
        )
        simulator._kernel_cache = window_sim._kernel_cache
        mask = random_mask(rng, simulator.grid.shape)
        contributions = [
            (corner, rng.standard_normal(simulator.grid.shape))
            for corner in simulator.corners()
        ]
        results = []
        for threads in PARENT_PIN_THREADS:
            with fft_threads_scope(threads):
                images = simulator.simulate_all_corners(mask)
                grad = simulator.gradient_all_corners(mask, contributions)
            results.append((images, grad))
        assert results[0][0][0].dtype == np.float32
        for images, grad in results[1:]:
            for image, first in zip(images, results[0][0]):
                assert np.array_equal(image, first)
            assert np.array_equal(grad, results[0][1])


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
            groups.append((df_di, field_stack(mask, kernels, xp=backend), kernels))
            reference += backproject_fields(
                df_di[None, :, :] * field_stack(mask, kernels, xp="numpy"),
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


class TestTaskBookkeeping:
    """The per-focus tasks leave every counter and span to the calling thread.

    The tracer keeps one span stack and ``Counter.inc`` is an unlocked
    ``+=``, so a task on a pool thread must touch neither.  A warm
    ``MosaicFast`` solve at one thread and at two must count and trace
    the same, and every counter, registry lookup and span must come from
    the thread that called the solve.
    """

    COUNTERS = (
        "forward_mask_ffts",
        "forward_fft_reuse",
        "kernel_cache_hits",
        "kernel_cache_misses",
        "forward_evals_total",
        "iterations_total",
    )

    def _solve(self, threads, monkeypatch):
        sim = LithographySimulator(
            LithoConfig.reduced(), obs=Instrumentation.collecting(), backend="numpy"
        )
        sim.prewarm()
        callers = set()

        def recorded(method):
            def call(self, *args, **kwargs):
                callers.add(threading.get_ident())
                return method(self, *args, **kwargs)

            return call

        with monkeypatch.context() as patch:
            patch.setattr(Counter, "inc", recorded(Counter.inc))
            patch.setattr(MetricsRegistry, "_get", recorded(MetricsRegistry._get))
            patch.setattr(Tracer, "span", recorded(Tracer.span))
            with fft_threads_scope(threads):
                MosaicFast(sim.config, simulator=sim).solve(load_benchmark("B1"))
        assert callers == {threading.get_ident()}, f"{threads} thread(s)"
        counters = {name: sim.obs.metrics.counter(name).value for name in self.COUNTERS}
        spans = {path: s.count for path, s in sim.obs.tracer.stats().items()}
        return counters, spans

    def test_counters_and_spans_match_across_threads(self, monkeypatch):
        one = self._solve(1, monkeypatch)
        two = self._solve(2, monkeypatch)
        assert one[0] == two[0]
        assert one[1] == two[1]
        assert one[0]["iterations_total"] > 0
        assert any(path.endswith("objective/focus_tasks") for path in one[1])


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
