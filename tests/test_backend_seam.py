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

The float64 reference's transforms are also pinned to numpy's own calls
bit for bit, at one thread and split across two
(``TestThreadedTransformPin``), and its thread pool is checked across a
fork and under concurrent callers (``TestTransformThreads``).
"""

import gc
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.config import LithoConfig, OpticsConfig, OptimizerConfig
from repro.errors import OpticsError
from repro.litho.simulator import LithographySimulator
from repro.mask.transform import mask_from_params, mask_param_derivative, params_from_mask
from repro.opc.mosaic import MosaicFast
from repro.optics.kernels import SOCSKernels
from repro.optics.tcc import dense_frequency_support
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
    fft_threads_scope,
    get_backend,
    parse_backend_spec,
    resolve_backend,
    resolve_spec,
    validate_backend_spec,
)
from repro.xp.numpy_backend import SPLIT_MIN_POINTS

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
        assert FullChipConfig(backend="numpy:float64").backend == "numpy"
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

    def test_transform_out_forms(self, backend, rng):
        # Into a fresh array and in place, each the plain call's values.
        x = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
        native = backend.asarray(x, "complex")
        calls = {
            "fft2": lambda a, out=None: backend.fft2(a, out=out),
            "ifft2": lambda a, out=None: backend.ifft2(a, out=out),
            "fft": lambda a, out=None: backend.fft(a, axis=-1, out=out),
            "ifft": lambda a, out=None: backend.ifft(a, axis=-2, out=out),
        }
        for name, call in calls.items():
            expected = backend.to_numpy(call(native))
            buffer = backend.empty((3, 8, 8), "complex")
            assert call(native, out=buffer) is buffer, name
            assert np.array_equal(backend.to_numpy(buffer), expected), name
            in_place = backend.asarray(x.copy(), "complex")
            assert call(in_place, out=in_place) is in_place, name
            assert np.array_equal(backend.to_numpy(in_place), expected), name

    def test_elementwise_out_forms(self, backend, rng):
        fields = backend.asarray(
            rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)), "complex"
        )
        weight = backend.asarray(rng.standard_normal((4, 4)), "float")
        product = backend.empty((2, 4, 4), "complex")
        assert backend.multiply(weight, fields, out=product) is product
        expected = backend.to_numpy(weight[None, :, :] * fields)
        assert np.array_equal(backend.to_numpy(product), expected)
        power = backend.empty((2, 4, 4), "float")
        assert backend.abs(fields, out=power) is power
        assert np.array_equal(backend.to_numpy(power), backend.to_numpy(backend.abs(fields)))
        weights = backend.asarray(rng.random(2), "float")
        image = backend.empty((4, 4), "float")
        assert backend.einsum("k,kij->ij", weights, power, out=image) is image
        expected = backend.to_numpy(backend.einsum("k,kij->ij", weights, power))
        assert np.array_equal(backend.to_numpy(image), expected)

    def test_map_chunks_covers_the_range(self, backend):
        seen = []
        lock = threading.Lock()

        def record(lo, hi):
            with lock:
                seen.extend(range(lo, hi))

        backend.map_chunks(record, 37, 10**6)
        assert sorted(seen) == list(range(37))

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

    def test_kernel_data_dropped_when_the_set_dies(self, backend, tiny_sim):
        # A dead set's entry must not pin its converted arrays.
        dead = tiny_sim.kernels_at(0.0).truncated(2)
        data = weakref.ref(backend.kernel_data(dead))
        del dead
        gc.collect()
        assert data() is None

    def test_kernel_data_dense_support_has_no_index_arrays(self, backend, rng):
        spectra = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        kernels = SOCSKernels(
            support=dense_frequency_support((8, 8), 4.0),
            weights=np.array([0.7, 0.3]),
            spectra=spectra,
            defocus_nm=0.0,
        )
        data = backend.kernel_data(kernels)
        assert data.rows is None and data.cols is None
        assert np.allclose(backend.to_numpy(data.spectra), spectra)

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


#: Grids the engine transforms: the 256-px clip, the 372-px tile window,
#: a 372x628 window and the 1024-px paper-scale clip.
PIN_GRIDS = [(256, 256), (372, 372), (372, 628), (1024, 1024)]
PIN_BATCHES = [1, 2, 8, 16]
#: Every grid at every batch size, plus the clip's row pass: 16 kernels
#: over the 27 support rows of a 256-px grid.
PIN_SHAPES = [(b,) + grid for grid in PIN_GRIDS for b in PIN_BATCHES] + [(16, 27, 256)]


def _numpy_transforms(backend):
    """(name, backend call, numpy's own call) for every transform."""
    return [
        ("fft2", backend.fft2, lambda a: np.fft.fft2(a, axes=(-2, -1))),
        ("ifft2", backend.ifft2, lambda a: np.fft.ifft2(a, axes=(-2, -1))),
    ] + [
        (f"{name}[axis={axis}]",
         lambda a, f=getattr(backend, name), axis=axis: f(a, axis=axis),
         lambda a, f=getattr(np.fft, name), axis=axis: f(a, axis=axis))
        for name in ("fft", "ifft")
        for axis in (-1, -2)
    ]


class TestThreadedTransformPin:
    """The float64 backend's transforms are numpy's own, bit for bit.

    Covers the batched shapes the engine transforms, real and complex
    input, and both axes of the 1-D calls, so a change in how the
    backend runs them -- or a numpy upgrade -- cannot shift masks
    without failing here.  Runs at one thread (numpy's call itself) and
    at two (the batch split across threads), whatever the host's cores.
    """

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("shape", PIN_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_transforms_match_numpy(self, shape, kind, threads):
        backend = NumpyBackend("float64")
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        if kind == "complex":
            x = x + 1j * rng.standard_normal(shape)
        for name, ours, theirs in _numpy_transforms(backend):
            expected = theirs(x)
            with fft_threads_scope(threads):
                got = ours(x)
            assert got.dtype == expected.dtype, name
            assert np.array_equal(got, expected), name
            del expected, got

    @pytest.mark.parametrize("shape", [(16, 256, 256), (16, 372, 372), (16, 27, 256)])
    def test_engine_batches_split_at_two_threads(self, shape):
        # The pin above exercises the split only if these shapes take it.
        backend = NumpyBackend("float64")
        x = np.zeros(shape, dtype=np.complex128)
        with fft_threads_scope(2):
            assert backend._chunks(x, (-2, -1)) == 2
            assert backend._chunks(x, (-1,)) == backend._chunks(x, (-2,)) == 2


def _split_transform(backend, x):
    """A transform the backend splits, run through the backend."""
    assert backend._chunks(x, (-2, -1)) > 1
    return backend.ifft2(x)


def _fork_child(backend, x, expected, conn):
    with fft_threads_scope(2):
        conn.send(np.array_equal(_split_transform(backend, x), expected))
    conn.close()


class TestTransformThreads:
    """How the float64 backend splits transforms across its thread pool."""

    def _stack(self, batch=8, n=128):
        rng = np.random.default_rng(7)
        return rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))

    def test_default_is_every_usable_core(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert NumpyBackend("float64").fft_threads == 3
        assert NumpyBackend("float32").fft_threads == 3

    def test_scope_sets_the_count_and_restores_it(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        backend = NumpyBackend("float64")
        with fft_threads_scope(2):
            assert backend.fft_threads == 2
            with fft_threads_scope(None):
                assert backend.fft_threads == 4
            assert backend.fft_threads == 2
        assert backend.fft_threads == 4

    def test_bad_count_rejected(self):
        with pytest.raises(OpticsError):
            with fft_threads_scope(0):
                pass

    def test_what_stays_unsplit(self):
        backend = NumpyBackend("float64")
        big = np.zeros((16, 128, 128), dtype=np.complex128)
        with fft_threads_scope(2):
            assert backend._chunks(big, (-2, -1)) == 2
            # One 2-D grid, and a 1-D pass over the batch axis itself.
            assert backend._chunks(np.zeros((512, 512)), (-2, -1)) == 1
            assert backend._chunks(big, (0,)) == 1
            # Too small, fewer entries than threads, single precision input.
            assert backend._chunks(np.zeros((8, 64, 64)), (-2, -1)) == 1
            assert backend._chunks(np.zeros((1, 512, 512)), (-2, -1)) == 1
            assert backend._chunks(big.astype(np.complex64), (-2, -1)) == 1
            assert NumpyBackend("float32")._chunks(big, (-2, -1)) == 1
        with fft_threads_scope(1):
            assert backend._chunks(big, (-2, -1)) == 1

    def test_map_chunks_rule(self):
        # The transforms' rule: one chunk per thread, when every thread
        # gets an entry and the stage holds SPLIT_MIN_POINTS points.
        backend = NumpyBackend("float64")
        seen = []
        lock = threading.Lock()

        def record(lo, hi):
            with lock:
                seen.append((lo, hi))

        with fft_threads_scope(3):
            backend.map_chunks(record, 10, SPLIT_MIN_POINTS)
        assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]
        for n, points, threads in [
            (10, SPLIT_MIN_POINTS - 1, 3),
            (2, 10 * SPLIT_MIN_POINTS, 3),
            (10, 10 * SPLIT_MIN_POINTS, 1),
        ]:
            seen.clear()
            with fft_threads_scope(threads):
                backend.map_chunks(record, n, points)
            assert seen == [(0, n)], (n, points, threads)

    def test_base_backend_runs_one_chunk(self):
        seen = []
        ArrayBackend().map_chunks(lambda lo, hi: seen.append((lo, hi)), 10, 10**9)
        assert seen == [(0, 10)]

    def test_map_tasks_gives_each_chunk_its_share(self):
        # Two tasks at four threads: each runs under a scope of two, on
        # its own thread; below the gate both run on the caller, in order.
        backend = NumpyBackend("float64")
        seen = []
        lock = threading.Lock()

        def task(i):
            def run():
                with lock:
                    seen.append((i, backend.fft_threads, threading.get_ident()))
                return i

            return run

        with fft_threads_scope(4):
            assert backend.map_tasks([task(0), task(1)], SPLIT_MIN_POINTS) == [0, 1]
        assert sorted(entry[:2] for entry in seen) == [(0, 2), (1, 2)]
        assert len({entry[2] for entry in seen}) == 2
        seen.clear()
        with fft_threads_scope(4):
            assert backend.map_tasks([task(0), task(1)], SPLIT_MIN_POINTS - 1) == [0, 1]
        assert [entry[:2] for entry in seen] == [(0, 4), (1, 4)]
        assert ArrayBackend().map_tasks([task(2), task(3)], 10**9) == [2, 3]

    def test_nested_splits_finish_when_callers_share_the_pool(self):
        # Three callers share one three-thread pool and each run two
        # tasks that split again.  The pool threads all hold tasks whose
        # nested pieces wait behind them, so a waiter must run an
        # unstarted piece itself.
        backend = NumpyBackend("float64")
        backend._executor(3)
        start = threading.Barrier(3)
        done = []

        def leaf(lo, hi):
            time.sleep(0.01)

        def task():
            time.sleep(0.05)
            backend.map_chunks(leaf, 4, SPLIT_MIN_POINTS)
            return True

        def caller():
            start.wait()
            with fft_threads_scope(4):
                done.append(backend.map_tasks([task, task], SPLIT_MIN_POINTS))

        threads = [threading.Thread(target=caller, daemon=True) for _ in range(3)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        stuck = any(thread.is_alive() for thread in threads)
        if stuck:  # cancelled pieces unblock their waiters, so the run exits
            backend._pool.shutdown(wait=False, cancel_futures=True)
        assert not stuck
        assert done == [[True, True]] * 3

    @pytest.mark.parametrize("threads", [2, 3])
    def test_float32_split_matches_one_thread(self, threads):
        backend = NumpyBackend("float32")
        x = self._stack().astype(np.complex64)
        calls = [
            lambda a: backend.fft2(a),
            lambda a: backend.ifft2(a),
            lambda a: backend.fft(a, axis=-1),
            lambda a: backend.ifft(a, axis=-2),
        ]
        with fft_threads_scope(threads):
            assert backend._chunks(x, (-2, -1)) == threads
            split = [call(x) for call in calls]
        with fft_threads_scope(1):
            whole = [call(x) for call in calls]
        for got, expected in zip(split, whole):
            assert got.dtype == expected.dtype == np.complex64
            assert np.array_equal(got, expected)

    def test_import_starts_no_thread_nor_scipy_fft(self):
        # scipy.fft is for float32 only; the chunk pool starts on demand.
        code = (
            "import sys, threading, numpy as np, repro\n"
            "from repro.xp import get_backend\n"
            "get_backend('numpy').fft2(np.zeros((4, 16, 16)))\n"
            "print('scipy.fft' in sys.modules, threading.active_count())\n"
            "get_backend('numpy:float32')\n"
            "print('scipy.fft' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "1", "True"]

    def test_no_thread_before_the_first_split(self):
        backend = NumpyBackend("float64")
        with fft_threads_scope(2):
            backend.fft2(np.zeros((4, 16, 16)))
            assert backend._pool is None
            _split_transform(backend, self._stack())
        assert backend._pool is not None

    def test_forked_child_rebuilds_the_pool(self):
        # A forked child inherits the pool object but none of its
        # threads; work queued on it would never run.
        backend = NumpyBackend("float64")
        x = self._stack()
        expected = np.fft.ifft2(x, axes=(-2, -1))
        with fft_threads_scope(2):
            assert np.array_equal(_split_transform(backend, x), expected)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fork_child, args=(backend, x, expected, send))
        child.start()
        send.close()
        try:
            assert receive.poll(60), "forked child never finished its transform"
            assert receive.recv() is True
        finally:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0

    def test_concurrent_callers_share_one_backend(self):
        # Concurrent service jobs run through one backend singleton.
        backend = NumpyBackend("float64")
        inputs = [self._stack(batch=8 + k) for k in range(4)]
        with fft_threads_scope(1):
            expected = [backend.ifft2(x) for x in inputs]
        results = {}
        errors = []

        def caller(k):
            try:
                with fft_threads_scope(2):
                    for _ in range(5):
                        got = _split_transform(backend, inputs[k])
                        if not np.array_equal(got, expected[k]):
                            results[k] = False
                            return
                results[k] = True
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert results == {k: True for k in range(4)}


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
