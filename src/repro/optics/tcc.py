"""Hopkins Transmission Cross Coefficient (TCC) construction.

For a partially coherent system with source distribution ``J`` and pupil
``P``, the TCC is

    T(f1, f2) = sum_s  J(f_s) * P(f_s + f1) * conj(P(f_s + f2)).

Writing ``A[s, a] = sqrt(J_s) * P(f_s + f_a)`` over the band-limited
frequency support {f_a}, the TCC is the Gram matrix ``A^H A`` and its
eigen-decomposition (→ SOCS kernels) is obtained directly from the SVD of
``A`` — numerically stabler and cheaper than forming T explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..config import GridSpec, OpticsConfig
from ..errors import OpticsError
from .pupil import pupil_values
from .source import SourcePoint


@dataclass(frozen=True)
class FrequencySupport:
    """Frequency samples of the image grid that a kernel set lives on.

    The support takes one of two forms:

    * **band-limited** (``build_frequency_support``): the samples are
      listed as index arrays into the unshifted FFT grid together with
      their spatial frequencies;
    * **dense** (``dense_frequency_support``): every sample of the grid
      in row-major order.  It carries no arrays at all; its size,
      scatter, gather and DC index follow from ``shape``, and the
      imaging engine reshapes instead of indexing.

    Attributes:
        shape: full FFT grid shape.
        freq_step: lattice frequency step (1/nm) along each axis.
        rows: row indices into the unshifted FFT grid (None when dense).
        cols: column indices into the unshifted FFT grid (None when dense).
        fx: spatial frequencies (1/nm) at those samples (None when dense).
        fy: spatial frequencies (1/nm) at those samples (None when dense).
    """

    shape: Tuple[int, int]
    freq_step: float
    rows: Optional[np.ndarray] = None
    cols: Optional[np.ndarray] = None
    fx: Optional[np.ndarray] = None
    fy: Optional[np.ndarray] = None

    @property
    def dense(self) -> bool:
        """True when the support covers every grid sample (no index arrays)."""
        return self.rows is None

    @property
    def size(self) -> int:
        if self.dense:
            return self.shape[0] * self.shape[1]
        return len(self.rows)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Place per-sample values onto a full (unshifted) FFT grid."""
        if self.dense:
            return np.array(values, dtype=np.complex128).reshape(self.shape)
        full = np.zeros(self.shape, dtype=np.complex128)
        full[self.rows, self.cols] = values
        return full

    def gather(self, full: np.ndarray) -> np.ndarray:
        """Extract the support samples from a full FFT grid."""
        if self.dense:
            return np.array(full).reshape(-1)
        return full[self.rows, self.cols]

    def zero_index(self) -> int:
        """Index of the DC (f = 0) sample within the support arrays."""
        if self.dense:
            return 0
        hits = np.nonzero((self.rows == 0) & (self.cols == 0))[0]
        if len(hits) != 1:
            raise OpticsError("frequency support does not contain DC exactly once")
        return int(hits[0])


def build_frequency_support(grid: GridSpec, optics: OpticsConfig) -> FrequencySupport:
    """All image-grid frequencies the optical system can pass.

    The support covers |f| <= NA * (1 + sigma_outer) / lambda — the maximum
    frequency reachable by any source point through the pupil.
    """
    rows, cols = grid.shape
    fy = np.fft.fftfreq(rows, d=grid.pixel_nm)
    fx = np.fft.fftfreq(cols, d=grid.pixel_nm)
    fxx, fyy = np.meshgrid(fx, fy)
    cutoff = optics.cutoff_frequency
    keep = (fxx**2 + fyy**2) <= cutoff**2 + 1e-18
    r_idx, c_idx = np.nonzero(keep)
    if len(r_idx) < 9:
        raise OpticsError(
            f"grid {grid.shape} at {grid.pixel_nm} nm/px resolves only "
            f"{len(r_idx)} optical frequencies; use a larger clip or finer grid"
        )
    step = abs(fx[1] - fx[0]) if cols > 1 else abs(fy[1] - fy[0])
    return FrequencySupport(
        rows=r_idx,
        cols=c_idx,
        fx=fxx[keep],
        fy=fyy[keep],
        shape=(rows, cols),
        freq_step=step,
    )


def dense_frequency_support(
    shape: Tuple[int, int], pixel_nm: float
) -> FrequencySupport:
    """A support covering every sample of ``shape``'s FFT grid.

    Kernels that are not band-limited on the grid (the full-chip window
    kernels, whose spectra come from truncated spatial stencils) live on
    this form.
    """
    rows, cols = shape
    # The lattice step 1 / (n * pixel), as fftfreq computes it.
    step = 1.0 / ((cols if cols > 1 else rows) * pixel_nm)
    return FrequencySupport(shape=(rows, cols), freq_step=step)


def build_amplitude_matrix(
    support: FrequencySupport,
    optics: OpticsConfig,
    source_points: List[SourcePoint],
    defocus_nm: float = 0.0,
) -> np.ndarray:
    """Amplitude matrix A with ``A[s, a] = sqrt(J_s) P(f_s + f_a)``.

    Returns:
        Complex array of shape ``(num_source_points, support.size)``.
    """
    if not source_points:
        raise OpticsError("need at least one source point")
    a = np.empty((len(source_points), support.size), dtype=np.complex128)
    for s, pt in enumerate(source_points):
        p = pupil_values(
            support.fx + pt.fx, support.fy + pt.fy, optics, defocus_nm=defocus_nm
        )
        a[s, :] = np.sqrt(pt.weight) * p
    return a


def tcc_matrix(amplitude: np.ndarray) -> np.ndarray:
    """Explicit TCC Gram matrix ``A^H A`` (mainly for testing/analysis)."""
    return amplitude.conj().T @ amplitude


def decompose_amplitude(
    amplitude: np.ndarray, num_kernels: int
) -> Tuple[np.ndarray, np.ndarray]:
    """SVD-based eigendecomposition of the TCC.

    Args:
        amplitude: the matrix from :func:`build_amplitude_matrix`.
        num_kernels: number of coherent kernels h to retain.

    Returns:
        ``(weights, vectors)`` — weights are the top TCC eigenvalues
        (singular values squared, descending); vectors has shape
        ``(h, support.size)`` holding the kernel spectra.
    """
    _, svals, vh = np.linalg.svd(amplitude, full_matrices=False)
    h = min(num_kernels, len(svals))
    weights = svals[:h] ** 2
    vectors = vh[:h, :].conj()  # rows are TCC eigenvectors
    return weights, vectors
