"""SOCS kernel sets: the h-kernel coherent decomposition of the imaging system.

A :class:`SOCSKernels` object holds, for one focus condition, the top-h TCC
eigenpairs sampled on the band-limited frequency support of the image grid.
Kernels are normalized so that an open-frame mask (all-ones) images to unit
intensity, which anchors the resist threshold th_r = 0.5 to a physically
meaningful dose-to-clear fraction.

Also implements the paper's Eq. 21 "combined kernel" speedup: collapsing
the weighted kernel sum into a single effective kernel before convolution.
That collapse is exact only for a fully coherent system; the resulting
accuracy/speed trade-off is quantified in the kernel-speedup ablation
bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import GridSpec, OpticsConfig
from ..errors import OpticsError
from .source import default_source
from .tcc import (
    FrequencySupport,
    build_amplitude_matrix,
    build_frequency_support,
    decompose_amplitude,
)


@dataclass
class SOCSKernels:
    """Coherent-kernel decomposition of the optical system at one focus.

    Attributes:
        support: band-limited frequency support of the image grid.
        weights: TCC eigenvalues, shape ``(h,)``, descending, normalized
            for unit open-frame intensity.
        spectra: kernel spectra on the support, shape ``(h, support.size)``.
        defocus_nm: focus condition these kernels were built at.
    """

    support: FrequencySupport
    weights: np.ndarray
    spectra: np.ndarray
    defocus_nm: float

    def __post_init__(self) -> None:
        if self.spectra.shape != (len(self.weights), self.support.size):
            raise OpticsError(
                f"spectra shape {self.spectra.shape} inconsistent with "
                f"{len(self.weights)} weights / support size {self.support.size}"
            )

    @property
    def num_kernels(self) -> int:
        return len(self.weights)

    @property
    def shape(self) -> tuple:
        return self.support.shape

    def spatial_kernel(self, k: int) -> np.ndarray:
        """Centred spatial-domain kernel h_k (complex), mainly for inspection."""
        full = self.support.scatter(self.spectra[k])
        return np.fft.fftshift(np.fft.ifft2(full))

    def combined_spectrum(self) -> np.ndarray:
        """Eq. 21 effective kernel: sum_k w_k * Phi_k on the support.

        Collapsing the SOCS sum this way treats the system as coherent;
        exact when h = 1, an approximation otherwise.
        """
        return np.einsum("k,ks->s", self.weights, self.spectra)

    def combined(self) -> "SOCSKernels":
        """A single-kernel system using the Eq. 21 combined kernel.

        The combined kernel is re-normalized to unit open-frame intensity
        so printed images remain comparable with the full system.
        """
        spec = self.combined_spectrum()[None, :]
        kernels = SOCSKernels(
            support=self.support,
            weights=np.array([1.0]),
            spectra=spec,
            defocus_nm=self.defocus_nm,
        )
        _normalize_open_frame(kernels)
        return kernels

    def dominant(self) -> "SOCSKernels":
        """A single-kernel system keeping only the top eigenpair (unnormalized
        weight, so it underestimates intensity — used for gradient speedups)."""
        return SOCSKernels(
            support=self.support,
            weights=self.weights[:1].copy(),
            spectra=self.spectra[:1].copy(),
            defocus_nm=self.defocus_nm,
        )

    def truncated(self, h: int) -> "SOCSKernels":
        """A copy keeping only the top-h kernels (no re-normalization, so
        truncation error is directly measurable)."""
        if not 1 <= h <= self.num_kernels:
            raise OpticsError(f"h must be in [1, {self.num_kernels}], got {h}")
        return SOCSKernels(
            support=self.support,
            weights=self.weights[:h].copy(),
            spectra=self.spectra[:h].copy(),
            defocus_nm=self.defocus_nm,
        )


def common_grid_shape(kernel_sets: Sequence[SOCSKernels]) -> Tuple[int, int]:
    """The image-grid shape shared by several kernel sets.

    Batched multi-corner evaluation stacks spectra from different focus
    conditions into one array, which is only meaningful when every set
    lives on the same pixel grid; mixed grids are a configuration error,
    not something to paper over.

    Raises:
        OpticsError: when ``kernel_sets`` is empty or the grids differ.
    """
    kernel_sets = list(kernel_sets)
    if not kernel_sets:
        raise OpticsError("need at least one kernel set")
    shape = kernel_sets[0].shape
    for ks in kernel_sets[1:]:
        if ks.shape != shape:
            raise OpticsError(
                f"kernel sets live on different grids: {shape} vs {ks.shape}"
            )
    return shape


def _normalize_open_frame(kernels: SOCSKernels) -> None:
    """Scale weights in place so an all-ones mask images to intensity 1."""
    dc = kernels.support.zero_index()
    open_intensity = float(
        np.sum(kernels.weights * np.abs(kernels.spectra[:, dc]) ** 2)
    )
    if open_intensity <= 0:
        raise OpticsError("optical system passes no DC energy; cannot normalize")
    kernels.weights = kernels.weights / open_intensity


def build_socs_kernels(
    grid: GridSpec,
    optics: OpticsConfig,
    defocus_nm: float = 0.0,
    source: Optional[object] = None,
    normalize: bool = True,
) -> SOCSKernels:
    """Build the SOCS kernel set for one focus condition.

    Args:
        grid: image pixel grid (defines the frequency lattice).
        optics: optical-system parameters.
        defocus_nm: focus offset for this kernel set.
        source: an illumination source with a ``sample(optics, step)``
            method; defaults to the paper's annular source.
        normalize: scale for unit open-frame intensity (recommended).

    Returns:
        The kernel set, with ``optics.num_kernels`` kernels (or fewer if
        the system rank is smaller).
    """
    support = build_frequency_support(grid, optics)
    src = source if source is not None else default_source(optics)
    points = src.sample(optics, support.freq_step)
    amplitude = build_amplitude_matrix(support, optics, points, defocus_nm=defocus_nm)
    weights, spectra = decompose_amplitude(amplitude, optics.num_kernels)
    kernels = SOCSKernels(
        support=support, weights=weights, spectra=spectra, defocus_nm=defocus_nm
    )
    if normalize:
        _normalize_open_frame(kernels)
    return kernels
