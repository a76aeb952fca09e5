"""The array-backend seam: registry, conformance, and the equivalence battery.

Four layers, mirroring the seam's contract (``src/repro/xp/base.py``):

1. **Spec grammar & registry** — parsing, canonicalization, the
   ``REPRO_ARRAY_BACKEND`` resolution chain, and the per-process
   singleton cache that lets every tile in a fullchip worker share one
   backend instance.
2. **Config validation** — ``OpticsConfig`` / ``OptimizerConfig`` /
   ``FullChipConfig`` reject unknown specs eagerly with
   :class:`~repro.errors.OpticsError` and canonicalize valid ones,
   without importing torch/cupy.
3. **Adapter conformance** — per registered backend (skipping absent
   libraries): dtype round-trips through ``asarray``/``to_numpy``,
   ``fft2 ∘ ifft2`` identity, elementwise ops against numpy, and the
   identity-keyed device kernel cache.
4. **Golden history** — the checked-in 10-iteration ``mosaic_fast``
   trajectory is reproduced on every backend: tightly on the float64
   reference, within the float32 A/B gate elsewhere (measured headroom
   is ~40x: observed float32 drift ~2.6e-7 relative vs the 1e-5 gate).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import LithoConfig, OpticsConfig, OptimizerConfig
from repro.errors import OpticsError
from repro.litho.simulator import LithographySimulator
from repro.mask.transform import mask_from_params, mask_param_derivative, params_from_mask
from repro.opc.mosaic import MosaicFast
from repro.utils.validation import sigmoid
from repro.workloads.random_layout import random_layout
from repro.xp import (
    ALL_BACKEND_SPECS,
    ENV_VAR,
    FLOAT32_FORWARD_RTOL,
    ArrayBackend,
    NumpyBackend,
    available_backend_specs,
    backend_available,
    get_backend,
    parse_backend_spec,
    resolve_backend,
    resolve_spec,
    validate_backend_spec,
)

HISTORY_PATH = Path(__file__).parent / "golden" / "mosaic_fast_history.json"


class TestSpecGrammar:
    def test_parse_defaults_to_float64(self):
        assert parse_backend_spec("numpy") == ("numpy", "float64")
        assert parse_backend_spec("torch:float32") == ("torch", "float32")

    def test_canonical_form_drops_float64(self):
        assert validate_backend_spec("numpy:float64") == "numpy"
        assert validate_backend_spec("cupy:float32") == "cupy:float32"
        assert validate_backend_spec(" torch ") == "torch"

    @pytest.mark.parametrize("bad", ["", "   ", None, 42, "jax", "numpy:float16"])
    def test_bad_specs_rejected_with_choices(self, bad):
        with pytest.raises(OpticsError):
            parse_backend_spec(bad)

    def test_error_message_lists_choices(self):
        with pytest.raises(OpticsError, match="numpy, torch, cupy"):
            validate_backend_spec("jax")
        with pytest.raises(OpticsError, match="float64, float32"):
            validate_backend_spec("numpy:float16")

    def test_env_resolution_chain(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_spec() == "numpy"
        monkeypatch.setenv(ENV_VAR, "numpy:float32")
        assert resolve_spec() == "numpy:float32"
        # Explicit argument outranks the environment.
        assert resolve_spec("numpy") == "numpy"

    def test_env_typo_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "nmupy")
        with pytest.raises(OpticsError):
            resolve_spec()

    def test_singleton_per_spec(self):
        assert get_backend("numpy") is get_backend("numpy:float64")
        assert get_backend("numpy:float32") is get_backend("numpy:float32")
        assert get_backend("numpy") is not get_backend("numpy:float32")

    def test_resolve_backend_passthrough(self):
        instance = get_backend("numpy")
        assert resolve_backend(instance) is instance
        assert resolve_backend("numpy") is instance

    def test_missing_library_raises_optics_error(self):
        # The container has no cupy; the error must name the remedy.
        if backend_available("cupy"):
            pytest.skip("cupy installed here; nothing to assert")
        with pytest.raises(OpticsError, match="install it or select another"):
            get_backend("cupy")

    def test_available_specs_subset(self):
        available = available_backend_specs()
        assert "numpy" in available
        assert "numpy:float32" in available
        assert set(available) <= set(ALL_BACKEND_SPECS)

    def test_backend_available_rejects_garbage(self):
        assert not backend_available("jax")
        assert not backend_available("")


class TestConfigValidation:
    def test_optics_config_accepts_and_canonicalizes(self):
        assert OpticsConfig(backend="numpy:float64").backend == "numpy"
        assert OpticsConfig(backend="numpy:float32").backend == "numpy:float32"
        assert OpticsConfig().backend is None

    def test_optics_config_rejects_unknown(self):
        with pytest.raises(OpticsError):
            OpticsConfig(backend="jax")

    def test_optimizer_config_accepts_and_rejects(self):
        assert OptimizerConfig(backend="torch:float32").backend == "torch:float32"
        with pytest.raises(OpticsError):
            OptimizerConfig(backend="numpy:float16")

    def test_fullchip_config_accepts_and_rejects(self):
        from repro.fullchip import FullChipConfig

        assert FullChipConfig(backend="numpy:float32").backend == "numpy:float32"
        assert FullChipConfig().backend is None
        with pytest.raises(OpticsError):
            FullChipConfig(backend="bogus")

    def test_uninstalled_backend_is_constructible_in_config(self):
        # Validation must not import the library: configs naming torch
        # stay constructible on machines without it; the import error
        # surfaces only when a simulator requests the backend.
        cfg = OpticsConfig(backend="cupy:float32")
        assert cfg.backend == "cupy:float32"

    def test_simulator_honors_optics_config_backend(self):
        litho = LithoConfig.reduced()
        litho = type(litho)(
            grid=litho.grid,
            optics=OpticsConfig(
                num_kernels=litho.optics.num_kernels, backend="numpy:float32"
            ),
            resist=litho.resist,
            process=litho.process,
        )
        sim = LithographySimulator(litho)
        assert sim.xp.spec == "numpy:float32"

    def test_simulator_explicit_arg_outranks_config(self):
        litho = LithoConfig.reduced()
        sim = LithographySimulator(litho, backend="numpy:float32")
        assert sim.xp.spec == "numpy:float32"


class TestAdapterConformance:
    """Protocol conformance, per registered (and installed) backend."""

    def test_identity_properties(self, backend):
        assert isinstance(backend, ArrayBackend)
        assert backend.spec in ALL_BACKEND_SPECS
        assert backend.float_dtype in (np.dtype(np.float64), np.dtype(np.float32))
        is_f64 = backend.precision == "float64"
        assert backend.complex_dtype == (np.complex128 if is_f64 else np.complex64)
        if backend.is_reference:
            assert backend.equivalence_rtol == 0.0
        else:
            assert 0.0 < backend.equivalence_rtol <= FLOAT32_FORWARD_RTOL

    def test_float_round_trip(self, backend, rng):
        x = rng.standard_normal((5, 7))
        back = backend.to_numpy(backend.asarray(x, "float"))
        assert back.dtype == backend.float_dtype
        assert np.allclose(back, x.astype(backend.float_dtype))

    def test_complex_round_trip(self, backend, rng):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = backend.to_numpy(backend.asarray(x, "complex"))
        assert back.dtype == backend.complex_dtype
        assert np.allclose(back, x.astype(backend.complex_dtype))

    def test_index_round_trip(self, backend):
        idx = np.array([0, 3, 1, 2])
        native = backend.asarray(idx, "index")
        # Index arrays must actually index native arrays.
        values = backend.asarray(np.array([10.0, 11.0, 12.0, 13.0]), "float")
        gathered = backend.to_numpy(values[native])
        assert np.array_equal(gathered, [10.0, 13.0, 11.0, 12.0])

    def test_fft2_ifft2_identity(self, backend, rng):
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        native = backend.asarray(x, "complex")
        back = backend.to_numpy(backend.ifft2(backend.fft2(native)))
        tol = 1e-12 if backend.precision == "float64" else 1e-5
        assert np.allclose(back, x.astype(backend.complex_dtype), atol=tol)

    def test_fft2_batched_over_leading_axis(self, backend, rng):
        stack = rng.standard_normal((3, 8, 8)) + 0j
        native = backend.asarray(stack, "complex")
        batched = backend.to_numpy(backend.fft2(native))
        for k in range(3):
            single = backend.to_numpy(backend.fft2(backend.asarray(stack[k], "complex")))
            assert np.allclose(batched[k], single)

    def test_axis_ffts_compose_to_fft2(self, backend, rng):
        x = rng.standard_normal((8, 8)) + 0j
        native = backend.asarray(x, "complex")
        composed = backend.to_numpy(backend.fft(backend.fft(native, axis=-1), axis=-2))
        full = backend.to_numpy(backend.fft2(native))
        tol = 1e-9 if backend.precision == "float64" else 1e-3
        assert np.allclose(composed, full, atol=tol * np.max(np.abs(full)))

    def test_elementwise_ops_match_numpy(self, backend, rng):
        x = rng.standard_normal((6, 6))
        native = backend.asarray(x, "float")
        tol = 1e-12 if backend.precision == "float64" else 1e-6
        assert np.allclose(backend.to_numpy(backend.exp(native)), np.exp(x), rtol=tol)
        assert np.allclose(
            backend.to_numpy(backend.clip(native, -0.5, 0.5)), np.clip(x, -0.5, 0.5)
        )
        assert np.allclose(backend.to_numpy(backend.abs(native)), np.abs(x))
        positive = backend.asarray(np.abs(x) + 0.1, "float")
        assert np.allclose(
            backend.to_numpy(backend.log(positive)),
            np.log(np.abs(x) + 0.1),
            rtol=tol,
            atol=tol,  # log crosses zero at x == 1
        )

    def test_where_and_conj(self, backend, rng):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        native = backend.asarray(x, "complex")
        conj = backend.to_numpy(backend.conj(native))
        assert np.allclose(conj, np.conj(x.astype(backend.complex_dtype)))
        real = backend.to_numpy(backend.real(native))
        assert np.allclose(real, x.real.astype(backend.float_dtype))

    def test_einsum_weighted_intensity(self, backend, rng):
        fields = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        weights = np.abs(rng.standard_normal(3))
        native_fields = backend.asarray(fields, "complex")
        native_weights = backend.asarray(weights, "float")
        out = backend.to_numpy(
            backend.einsum("k,kij->ij", native_weights, backend.abs(native_fields) ** 2)
        )
        reference = np.einsum("k,kij->ij", weights, np.abs(fields) ** 2)
        tol = 1e-12 if backend.precision == "float64" else 1e-5
        assert np.allclose(out, reference, rtol=tol, atol=tol * np.max(reference))

    def test_zeros_and_empty(self, backend):
        z = backend.zeros((3, 4), "complex")
        assert backend.to_numpy(z).shape == (3, 4)
        assert not backend.to_numpy(z).any()
        e = backend.empty((2, 2), "float")
        assert backend.to_numpy(e).shape == (2, 2)

    def test_kernel_data_not_served_for_a_recycled_id(self, backend, tiny_sim):
        # An id is unique only among live objects: a kernel set allocated
        # where a dead one lived must not get the dead set's arrays.
        base = tiny_sim.kernels_at(0.0)
        for _ in range(100):
            dead = base.truncated(2)
            backend.kernel_data(dead)
            dead_id = id(dead)
            del dead
            fresh = base.truncated(3)
            if id(fresh) == dead_id:
                break
        else:
            pytest.skip("the allocator never reused a dead kernel set's id")
        spectra = backend.to_numpy(backend.kernel_data(fresh).spectra)
        assert spectra.shape == fresh.spectra.shape

    def test_kernel_data_cached_by_identity(self, backend, tiny_sim):
        kernels = tiny_sim.kernels_at(0.0)
        first = backend.kernel_data(kernels)
        assert backend.kernel_data(kernels) is first
        assert backend.to_numpy(first.weights).dtype == backend.float_dtype
        assert backend.to_numpy(first.spectra).dtype == backend.complex_dtype
        assert np.allclose(
            backend.to_numpy(first.weights),
            kernels.weights.astype(backend.float_dtype),
        )


class TestMaskTransformSeam:
    """Sigmoid and mask-parametrization transforms on each backend."""

    def test_sigmoid_matches_legacy_path(self, backend, rng):
        x = 10.0 * rng.standard_normal((32, 32))
        legacy = sigmoid(x, steepness=4.0, center=0.25)
        seamed = sigmoid(x, steepness=4.0, center=0.25, xp=backend)
        if backend.is_reference:
            assert np.array_equal(seamed, legacy)
        else:
            assert np.allclose(seamed, legacy, atol=FLOAT32_FORWARD_RTOL)

    def test_sigmoid_extreme_arguments_stay_finite(self, backend):
        x = np.array([-1e9, -50.0, 0.0, 50.0, 1e9])
        out = sigmoid(x, steepness=10.0, xp=backend)
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_mask_transform_round_trip(self, backend, rng):
        mask = np.clip(rng.random((16, 16)), 0.02, 0.98)
        params = params_from_mask(mask, xp=backend)
        recovered = mask_from_params(params, xp=backend)
        tol = 1e-12 if backend.precision == "float64" else 1e-5
        assert np.allclose(recovered, mask, atol=tol)

    def test_mask_param_derivative_matches_reference(self, backend, rng):
        params = rng.standard_normal((16, 16))
        reference = mask_param_derivative(params)
        seamed = mask_param_derivative(params, xp=backend)
        if backend.is_reference:
            assert np.array_equal(seamed, reference)
        else:
            assert np.allclose(seamed, reference, atol=FLOAT32_FORWARD_RTOL)


class TestGoldenHistoryBattery:
    """Every backend reproduces the pinned 10-iteration mosaic_fast run.

    The float64 reference must match the golden trajectory at the same
    1e-6 relative pin as ``test_golden.py``; float32 backends get the
    1e-5 A/B gate (measured drift ~2.6e-7 — see module docstring).
    """

    @pytest.fixture(scope="class")
    def history_golden(self):
        return json.loads(HISTORY_PATH.read_text())

    @pytest.fixture(scope="class")
    def trajectory(self, backend, reduced_config, sim, history_golden):
        layout = random_layout(history_golden["layout_seed"])
        simulator = LithographySimulator(reduced_config, backend=backend)
        simulator._kernel_cache = sim._kernel_cache
        config = OptimizerConfig(
            max_iterations=history_golden["iterations"], use_jump=False
        )
        return MosaicFast(
            reduced_config, optimizer_config=config, simulator=simulator
        ).solve(layout)

    def test_objective_trajectory(self, backend, history_golden, trajectory):
        rel = 1e-6 if backend.precision == "float64" else FLOAT32_FORWARD_RTOL
        objectives = trajectory.optimization.history.objectives
        assert len(objectives) == history_golden["iterations"]
        for measured, expected in zip(objectives, history_golden["objectives"]):
            assert measured == pytest.approx(expected, rel=rel)

    def test_final_mask_and_score(self, backend, history_golden, trajectory):
        pixels = int(trajectory.mask.sum())
        if backend.precision == "float64":
            assert pixels == history_golden["mask_pixels"]
        else:
            # Binarization can flip boundary pixels sitting within the
            # float32 noise floor of the threshold.
            assert pixels == pytest.approx(history_golden["mask_pixels"], rel=1e-3)
        assert trajectory.score.epe_violations == history_golden["epe_violations"]
        assert trajectory.score.pv_band_nm2 == pytest.approx(
            history_golden["pv_band_nm2"], rel=1e-3
        )
