"""Aerial-image computation and gradient back-projection for SOCS systems.

Forward model (paper Eq. 2):

    E_k = M (*) h_k          (computed as ifft2(fft2(M) . Phi_k))
    I   = sum_k w_k |E_k|^2

Gradient back-projection: objectives of the form ``F = sum_u G(I(u))``
have

    dF/dM(v) = 2 Re sum_k w_k [ (G'(I) . E_k) (*) flip(conj(h_k)) ](v)

and convolution with ``flip(conj(h_k))`` is multiplication by
``conj(Phi_k)`` in the frequency domain — no spatial flips needed.

Batched evaluation: every objective term at every process corner images
the *same* mask, so :class:`ForwardCache` computes ``fft2(M)`` exactly
once per iterate, :func:`batched_field_stacks` runs one vectorized
inverse transform over all (focus x kernel) spectra, and
:func:`accumulate_backprojection` folds the whole multi-corner adjoint
into one batched forward transform plus a *single* inverse FFT (the
per-kernel weighted sums are accumulated on the frequency support, where
the adjoint is diagonal, before transforming back).  A band-limited
support touches a small set of frequency rows, so the batched transforms
prune the row pass to those rows — bitwise-identical output for the
forward direction, since transforming exact zeros yields exact zeros.  A
dense support (every grid frequency, as the full-chip window kernels
have) has nothing to prune: its samples are the grid in row-major order,
so :func:`_scatter` and :func:`_gather` reshape instead of indexing and
the transforms run over the whole grid.

Array backends: every entry point takes an optional ``xp``
(:class:`~repro.xp.ArrayBackend` or spec string).  The default resolves
through ``REPRO_ARRAY_BACKEND`` to the numpy float64 reference, which
executes the exact numpy calls of the pre-seam code — bitwise-identical
results.  Field stacks stay backend-native (they only flow back into
these functions); aerial images and mask-plane gradients are returned as
numpy arrays at the backend's precision, since everything downstream
(resist, objectives, optimizer) lives on the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GridError
from ..obs import Instrumentation
from ..xp import ArrayBackend, resolve_backend
from .kernels import SOCSKernels, common_grid_shape
from .tcc import FrequencySupport

XpArg = Union[None, str, ArrayBackend]


def _gather(full: Any, rows: Any, cols: Any) -> Any:
    """Support samples of ``full`` over its trailing two (grid) axes.

    ``rows is None`` marks a dense support, whose samples are the grid in
    row-major order: the gather is a reshape (a view), not an index.
    """
    if rows is None:
        return full.reshape(tuple(full.shape[:-2]) + (-1,))
    return full[..., rows, cols]


def _scatter(full: Any, rows: Any, cols: Any, values: Any) -> None:
    """Write support samples ``values`` into ``full``'s trailing grid axes.

    The inverse of :func:`_gather`; on a dense support every grid sample
    is written, so ``full`` need not be zeroed first.
    """
    if rows is None:
        full[...] = values.reshape(tuple(full.shape))
    else:
        full[..., rows, cols] = values


def field_stack(mask: np.ndarray, kernels: SOCSKernels, xp: XpArg = None) -> Any:
    """Per-kernel coherent fields E_k = M (*) h_k.

    Returns:
        Backend-native complex array of shape ``(h, rows, cols)``.
    """
    xp = resolve_backend(xp)
    if tuple(mask.shape) != kernels.shape:
        raise GridError(f"mask shape {tuple(mask.shape)} != kernel grid {kernels.shape}")
    kd = xp.kernel_data(kernels)
    m_hat = xp.fft2(xp.asarray(mask, "float"))
    m_sup = _gather(m_hat, kd.rows, kd.cols)
    fields = xp.empty((kernels.num_kernels,) + kernels.shape, "complex")
    for k in range(kernels.num_kernels):
        full = xp.zeros(kernels.shape, "complex")
        _scatter(full, kd.rows, kd.cols, m_sup * kd.spectra[k])
        fields[k] = xp.ifft2(full)
    return fields


def aerial_image(
    mask: np.ndarray,
    kernels: SOCSKernels,
    dose: float = 1.0,
    fields: Any = None,
    xp: XpArg = None,
) -> np.ndarray:
    """Aerial intensity I = dose * sum_k w_k |E_k|^2.

    Args:
        mask: real mask transmission in [0, 1].
        kernels: SOCS kernel set at the desired focus.
        dose: multiplicative exposure-dose factor (paper: 1 +/- 2 %).
        fields: optional precomputed :func:`field_stack` output to reuse
            (backend-native, from the same backend as ``xp``).
        xp: array backend (default: the resolved process backend).

    Returns:
        Real intensity image of the grid shape, as a numpy array at the
        backend's float dtype.
    """
    xp = resolve_backend(xp)
    if tuple(mask.shape) != kernels.shape:
        raise GridError(f"mask shape {tuple(mask.shape)} != kernel grid {kernels.shape}")
    if fields is None:
        fields = field_stack(mask, kernels, xp)
    kd = xp.kernel_data(kernels)
    intensity = xp.einsum("k,kij->ij", kd.weights, xp.abs(fields) ** 2)
    return xp.to_numpy(dose * intensity)


def weight_fields(df_di: np.ndarray, fields: Any, xp: XpArg = None) -> Any:
    """Per-kernel weighted fields ``G'(I) * E_k``, on the backend.

    The intensity-space gradient lives on the host (numpy float64, it
    came through the resist adjoint); the fields are backend-native.
    Routing the product through the backend keeps the result native and
    at the policy dtype instead of letting numpy/torch promotion rules
    decide.
    """
    xp = resolve_backend(xp)
    return xp.asarray(df_di, "float")[None, :, :] * fields


def backproject_fields(
    weighted_fields: Any,
    kernels: SOCSKernels,
    xp: XpArg = None,
) -> np.ndarray:
    """Back-project per-kernel weighted fields onto the mask plane.

    Computes ``2 Re sum_k w_k ifft2( fft2(weighted_fields[k]) * conj(Phi_k) )``,
    the adjoint step of the aerial-image gradient.

    Args:
        weighted_fields: complex array ``(h, rows, cols)`` holding
            ``G'(I) * E_k`` for each kernel (numpy or backend-native).
        kernels: the kernel set the fields were produced with.
        xp: array backend (default: the resolved process backend).

    Returns:
        Real gradient contribution on the mask plane (numpy).
    """
    xp = resolve_backend(xp)
    if tuple(weighted_fields.shape) != (kernels.num_kernels,) + kernels.shape:
        raise GridError(
            f"weighted_fields shape {tuple(weighted_fields.shape)} inconsistent with "
            f"{kernels.num_kernels} kernels on grid {kernels.shape}"
        )
    kd = xp.kernel_data(kernels)
    weighted_fields = xp.asarray(weighted_fields, "complex")
    accum = xp.zeros(kernels.shape, "complex")
    for k in range(kernels.num_kernels):
        w_hat = xp.fft2(weighted_fields[k])
        # Named so numpy cannot elide it into the product and swap the
        # operands: the (gathered, conjugate) order holds on both forms.
        conj = xp.conj(kd.spectra[k])
        full = xp.zeros(kernels.shape, "complex")
        _scatter(full, kd.rows, kd.cols, _gather(w_hat, kd.rows, kd.cols) * conj)
        accum += kd.weights[k] * xp.ifft2(full)
    return xp.to_numpy(2.0 * xp.real(accum))


@dataclass(frozen=True)
class ForwardCacheInfo:
    """Snapshot of one :class:`ForwardCache`'s reuse statistics.

    Attributes:
        mask_ffts: how many times ``fft2(M)`` was actually computed
            (exactly one per mask when the cache is doing its job).
        reuses: how many lookups were served from the cached spectrum.
    """

    mask_ffts: int
    reuses: int


class ForwardCache:
    """Per-mask spectrum cache: computes ``fft2(M)`` once, shares it.

    One ILT iteration evaluates the forward model at the nominal
    condition and at every process corner for every objective term, yet
    all of those image the same mask — so the mask spectrum is computed
    on first demand and the support-gathered samples are memoized per
    frequency support.  Reuse is observable through the
    ``forward_mask_ffts`` / ``forward_fft_reuse`` counters and
    :meth:`info`.

    The spectrum and gathered samples are held as *backend-native*
    arrays; ``mask`` stays a host float64 copy for shape checks and
    non-seam consumers.

    Args:
        mask: real mask transmission in [0, 1].
        obs: optional instrumentation bundle; no-op when omitted.
        xp: array backend (default: the resolved process backend).
    """

    def __init__(
        self,
        mask: np.ndarray,
        obs: Optional[Instrumentation] = None,
        xp: XpArg = None,
    ) -> None:
        self.xp = resolve_backend(xp)
        self.mask = np.asarray(mask, dtype=np.float64)
        self.obs = obs or Instrumentation.disabled()
        self._mask_dev = self.xp.asarray(self.mask, "float")
        self._spectrum: Optional[Any] = None
        self._gathered: Dict[int, Any] = {}
        self._mask_ffts = 0
        self._reuses = 0

    @property
    def shape(self) -> tuple:
        return self.mask.shape

    def spectrum(self) -> Any:
        """Full-grid ``fft2(M)``, computed on first call and cached."""
        if self._spectrum is None:
            self._spectrum = self.xp.fft2(self._mask_dev)
            self._mask_ffts += 1
            self.obs.metrics.counter("forward_mask_ffts").inc()
        else:
            self._reuses += 1
            self.obs.metrics.counter("forward_fft_reuse").inc()
        return self._spectrum

    def gathered(self, support: FrequencySupport) -> Any:
        """Support-sampled mask spectrum, memoized per support object."""
        if self.mask.shape != support.shape:
            raise GridError(
                f"mask shape {self.mask.shape} != support grid {support.shape}"
            )
        hit = self._gathered.get(id(support))
        if hit is None:
            rows = cols = None
            if not support.dense:
                rows = self.xp.asarray(support.rows, "index")
                cols = self.xp.asarray(support.cols, "index")
            hit = _gather(self.spectrum(), rows, cols)
            self._gathered[id(support)] = hit
        else:
            self._reuses += 1
            self.obs.metrics.counter("forward_fft_reuse").inc()
        return hit

    def info(self) -> ForwardCacheInfo:
        """Reuse statistics since construction."""
        return ForwardCacheInfo(mask_ffts=self._mask_ffts, reuses=self._reuses)


def _support_rows(
    supports: Sequence[FrequencySupport], num_rows: int
) -> Optional[np.ndarray]:
    """Sorted unique grid rows touched by any support, or None.

    The band-limited support typically covers a small fraction of the
    frequency rows, which lets the batched transforms prune the 1-D pass
    over the untouched (all-zero / never-read) rows.  Returns None when
    a support is dense or the supports span most rows, so pruning would
    not pay.
    """
    if any(s.dense for s in supports):
        return None
    rows = np.unique(np.concatenate([s.rows for s in supports]))
    if len(rows) * 2 >= num_rows:
        return None
    return rows


def batched_field_stacks(
    cache: ForwardCache, kernel_sets: Sequence[SOCSKernels]
) -> List[Any]:
    """Coherent fields for several kernel sets from one vectorized ifft2.

    The batched counterpart of :func:`field_stack`: every (kernel-set x
    kernel) spectrum product is stacked onto the leading axis and a
    single batched ``ifft2`` transforms them all, sharing the cached
    mask spectrum across sets.  Runs on the cache's backend.

    Args:
        cache: the mask's spectrum cache.
        kernel_sets: kernel sets (typically one per distinct focus).

    Returns:
        List of backend-native complex ``(h_i, rows, cols)`` field
        stacks aligned with ``kernel_sets`` (empty input gives an empty
        list).
    """
    xp = cache.xp
    kernel_sets = list(kernel_sets)
    if not kernel_sets:
        return []
    shape = common_grid_shape(kernel_sets)
    if cache.shape != shape:
        raise GridError(f"mask shape {cache.shape} != kernel grid {shape}")
    counts = [ks.num_kernels for ks in kernel_sets]
    stacked = xp.zeros((sum(counts),) + shape, "complex")
    pos = 0
    for ks in kernel_sets:
        kd = xp.kernel_data(ks)
        m_sup = cache.gathered(ks.support)
        # Two-step view indexing (slice first, then the advanced index)
        # keeps the write portable across numpy/cupy/torch setitem rules.
        block = stacked[pos : pos + ks.num_kernels]
        _scatter(block, kd.rows, kd.cols, m_sup[None, :] * kd.spectra)
        pos += ks.num_kernels
    rows_used = _support_rows([ks.support for ks in kernel_sets], shape[0])
    if rows_used is None:
        fields = xp.ifft2(stacked)
    else:
        # Row-pruned separable inverse: the stacked spectra are nonzero
        # only on the band-limited support rows, so the first 1-D pass
        # skips the all-zero rows (bitwise-identical to the full ifft2 —
        # transforming exact zeros yields exact zeros).
        ru = xp.asarray(rows_used, "index")
        fields = xp.zeros(tuple(stacked.shape), "complex")
        fields[:, ru, :] = xp.ifft(stacked[:, ru, :], axis=-1)
        fields = xp.ifft(fields, axis=-2)
    out: List[Any] = []
    pos = 0
    for h in counts:
        out.append(fields[pos : pos + h])
        pos += h
    return out


def accumulate_backprojection(
    groups: Sequence[Tuple[Any, SOCSKernels]],
    xp: XpArg = None,
) -> np.ndarray:
    """Sum of back-projections over several (weighted_fields, kernels) groups.

    Numerically equivalent to
    ``sum(backproject_fields(wf, ks) for wf, ks in groups)`` but computed
    with one batched forward FFT over all (group x kernel) fields and a
    *single* inverse FFT: because the adjoint is diagonal on the
    frequency support, the per-kernel weighted sums are accumulated
    there before transforming back to the mask plane.

    Args:
        groups: ``(weighted_fields, kernels)`` pairs, one per focus
            condition, with ``weighted_fields`` shaped
            ``(h, rows, cols)`` holding ``G'(I) * E_k`` (any per-corner
            dose factors already applied; numpy or backend-native).
        xp: array backend (default: the resolved process backend).

    Returns:
        Real gradient contribution on the mask plane (numpy).
    """
    xp = resolve_backend(xp)
    groups = list(groups)
    shape = common_grid_shape([ks for _, ks in groups])
    total = 0
    for wf, ks in groups:
        if tuple(wf.shape) != (ks.num_kernels,) + shape:
            raise GridError(
                f"weighted_fields shape {tuple(wf.shape)} inconsistent with "
                f"{ks.num_kernels} kernels on grid {shape}"
            )
        total += ks.num_kernels
    stacked = xp.empty((total,) + shape, "complex")
    pos = 0
    for wf, ks in groups:
        stacked[pos : pos + ks.num_kernels] = xp.asarray(wf, "complex")
        pos += ks.num_kernels
    rows_used = _support_rows([ks.support for _, ks in groups], shape[0])
    if rows_used is None:
        w_hat = xp.fft2(stacked)
    else:
        # Row-pruned separable forward: only the support rows of the
        # spectrum are ever gathered, so the second 1-D pass runs on
        # those rows alone.
        ru = xp.asarray(rows_used, "index")
        w_hat = xp.fft(xp.fft(stacked, axis=-2)[:, ru, :], axis=-1)
    accum = xp.zeros(shape, "complex")
    pos = 0
    for _, ks in groups:
        h = ks.num_kernels
        kd = xp.kernel_data(ks)
        rows = kd.rows
        if rows_used is not None:
            rows = xp.asarray(np.searchsorted(rows_used, ks.support.rows), "index")
        gathered = _gather(w_hat[pos : pos + h], rows, kd.cols)
        # Keep the conjugate unnamed: numpy elides a >= 256 KiB temporary into
        # the product, swapping operands, and FMA complex multiply is not commutative.
        summed = xp.einsum("k,ks->s", kd.weights, gathered * xp.conj(kd.spectra))
        _scatter(accum, kd.rows, kd.cols, _gather(accum, kd.rows, kd.cols) + summed)
        pos += h
    return xp.to_numpy(2.0 * xp.real(xp.ifft2(accum)))
