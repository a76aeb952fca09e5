"""Unit tests for repro.optics.tcc (Hopkins TCC and its decomposition)."""

import numpy as np
import pytest

from repro.config import GridSpec, OpticsConfig
from repro.errors import OpticsError
from repro.optics.kernels import SOCSKernels
from repro.optics.source import AnnularSource
from repro.optics.tcc import (
    FrequencySupport,
    build_amplitude_matrix,
    build_frequency_support,
    decompose_amplitude,
    dense_frequency_support,
    tcc_matrix,
)

GRID = GridSpec(shape=(128, 128), pixel_nm=8.0)
OPTICS = OpticsConfig(num_kernels=8)


@pytest.fixture(scope="module")
def support():
    return build_frequency_support(GRID, OPTICS)


@pytest.fixture(scope="module")
def amplitude(support):
    points = AnnularSource(0.6, 0.9).sample(OPTICS, support.freq_step)
    return build_amplitude_matrix(support, OPTICS, points)


class TestFrequencySupport:
    def test_within_cutoff(self, support):
        radius = np.hypot(support.fx, support.fy)
        assert np.all(radius <= OPTICS.cutoff_frequency + 1e-12)

    def test_contains_dc(self, support):
        dc = support.zero_index()
        assert support.fx[dc] == 0.0
        assert support.fy[dc] == 0.0

    def test_scatter_gather_roundtrip(self, support):
        values = np.arange(support.size, dtype=np.complex128)
        assert np.array_equal(support.gather(support.scatter(values)), values)

    def test_scatter_zero_elsewhere(self, support):
        full = support.scatter(np.ones(support.size, dtype=np.complex128))
        assert np.count_nonzero(full) == support.size

    def test_too_coarse_grid_rejected(self):
        tiny = GridSpec(shape=(8, 8), pixel_nm=1.0)  # 8 nm clip: no optics fits
        with pytest.raises(OpticsError):
            build_frequency_support(tiny, OPTICS)

    def test_freq_step_matches_extent(self, support):
        assert support.freq_step == pytest.approx(1.0 / 1024.0)


DENSE_SHAPE = (12, 10)
DENSE_PIXEL_NM = 4.0


def index_array_support(shape, pixel_nm):
    """Every sample of ``shape``'s FFT grid, listed as index arrays."""
    rows, cols = shape
    fxx, fyy = np.meshgrid(
        np.fft.fftfreq(cols, d=pixel_nm), np.fft.fftfreq(rows, d=pixel_nm)
    )
    return FrequencySupport(
        rows=np.repeat(np.arange(rows), cols),
        cols=np.tile(np.arange(cols), rows),
        fx=fxx.ravel(),
        fy=fyy.ravel(),
        shape=shape,
        freq_step=1.0 / (cols * pixel_nm),
    )


class TestDenseSupport:
    """The dense form answers exactly like index arrays over the same grid."""

    @pytest.fixture(scope="class")
    def forms(self):
        return (
            dense_frequency_support(DENSE_SHAPE, DENSE_PIXEL_NM),
            index_array_support(DENSE_SHAPE, DENSE_PIXEL_NM),
        )

    @pytest.fixture(scope="class")
    def kernel_pair(self, forms):
        rng = np.random.default_rng(7)
        size = DENSE_SHAPE[0] * DENSE_SHAPE[1]
        spectra = rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
        weights = np.array([0.6, 0.3, 0.1])
        return tuple(
            SOCSKernels(support=s, weights=weights, spectra=spectra, defocus_nm=0.0)
            for s in forms
        )

    def test_carries_no_arrays(self, forms):
        dense, indexed = forms
        assert dense.dense and not indexed.dense
        assert dense.rows is dense.cols is dense.fx is dense.fy is None

    def test_freq_step_matches(self, forms):
        dense, indexed = forms
        assert dense.freq_step == indexed.freq_step

    def test_size(self, forms):
        dense, indexed = forms
        assert dense.size == indexed.size == DENSE_SHAPE[0] * DENSE_SHAPE[1]

    def test_zero_index(self, forms):
        dense, indexed = forms
        assert dense.zero_index() == indexed.zero_index() == 0

    def test_scatter(self, forms):
        dense, indexed = forms
        values = np.arange(dense.size) * (1.0 - 0.5j)
        scattered = dense.scatter(values)
        assert scattered.dtype == np.complex128
        assert np.array_equal(scattered, indexed.scatter(values))
        values[0] = 99.0
        assert scattered[0, 0] == 0.0  # a copy, as with index arrays

    def test_gather(self, forms):
        dense, indexed = forms
        full = np.arange(dense.size, dtype=np.float64).reshape(DENSE_SHAPE) + 2.0j
        gathered = dense.gather(full)
        assert np.array_equal(gathered, indexed.gather(full))
        full[0, 0] = 99.0
        assert gathered[0] == 2.0j  # a copy, as with index arrays

    def test_spatial_kernel(self, kernel_pair):
        dense, indexed = kernel_pair
        for k in range(dense.num_kernels):
            assert np.array_equal(dense.spatial_kernel(k), indexed.spatial_kernel(k))

    def test_combined(self, kernel_pair):
        dense, indexed = (ks.combined() for ks in kernel_pair)
        assert dense.support.dense
        assert np.array_equal(dense.weights, indexed.weights)
        assert np.array_equal(dense.spectra, indexed.spectra)

    def test_truncated(self, kernel_pair):
        dense, indexed = (ks.truncated(2) for ks in kernel_pair)
        assert dense.support.dense
        assert np.array_equal(dense.weights, indexed.weights)
        assert np.array_equal(dense.spectra, indexed.spectra)


class TestAmplitudeAndTCC:
    def test_amplitude_shape(self, amplitude, support):
        assert amplitude.shape[1] == support.size

    def test_tcc_hermitian(self, amplitude):
        t = tcc_matrix(amplitude)
        assert np.allclose(t, t.conj().T)

    def test_tcc_positive_semidefinite(self, amplitude):
        t = tcc_matrix(amplitude)
        eigvals = np.linalg.eigvalsh(t)
        assert eigvals.min() >= -1e-10 * eigvals.max()

    def test_empty_source_rejected(self, support):
        with pytest.raises(OpticsError):
            build_amplitude_matrix(support, OPTICS, [])


class TestDecomposition:
    def test_weights_descending_positive(self, amplitude):
        weights, _ = decompose_amplitude(amplitude, 8)
        assert np.all(np.diff(weights) <= 1e-12)
        assert np.all(weights >= 0)

    def test_kernel_count_capped_by_rank(self, amplitude):
        weights, vectors = decompose_amplitude(amplitude, 10_000)
        assert len(weights) == vectors.shape[0] <= min(amplitude.shape)

    def test_vectors_orthonormal(self, amplitude):
        _, vectors = decompose_amplitude(amplitude, 6)
        gram = vectors @ vectors.conj().T
        assert np.allclose(gram, np.eye(6), atol=1e-10)

    def test_reconstruction_improves_with_kernels(self, amplitude):
        t = tcc_matrix(amplitude)
        errs = []
        for h in (1, 4, 12):
            w, v = decompose_amplitude(amplitude, h)
            # T ~= sum_k w_k v_k v_k^H with v_k = v[k] as column vectors.
            approx = (v.T * w) @ v.conj()
            errs.append(np.linalg.norm(t - approx))
        assert errs[0] > errs[1] > errs[2]
