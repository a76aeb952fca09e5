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
once per iterate.  There is one forward and one adjoint, each for one
kernel set (one focus): :func:`kernel_set_fields` runs one vectorized
inverse transform over the set's spectra, and :func:`kernel_set_adjoint`
one batched forward transform whose per-kernel weighted sums are
accumulated on the frequency support, where the adjoint is diagonal.
:func:`sum_adjoints` adds every focus's support sums and transforms them
back with a *single* inverse FFT.  :func:`batched_field_stacks` and
:func:`accumulate_backprojection` run them over several foci.  Neither
touches a counter, span or cache, so the composite objective runs one
focus of each per task on the backend's threads
(:meth:`~repro.xp.ArrayBackend.map_tasks`).

Each batched stage writes one buffer per call and runs on the backend's
threads (:meth:`~repro.xp.ArrayBackend.map_chunks`): the spectrum
products go straight into the field stack, ``|E_k|^2`` into one float
buffer, ``G'(I) * E_k`` straight into the adjoint's buffer (the field
stack itself when the caller is done with the fields), and the
transforms and the conjugate product run in place.  Elementwise stages
split along the kernel axis and the weighted k-sums along pixels, so
every output element is computed exactly as in the unsplit call.

A band-limited support touches a small set of frequency rows, so the
batched transforms prune the row pass to those rows — bitwise-identical
output for the forward direction, since transforming exact zeros yields
exact zeros.  A dense support (every grid frequency, as the full-chip
window kernels have) has nothing to prune: its samples are the grid in
row-major order, so :func:`_scatter` and :func:`_gather` reshape instead
of indexing, the products are written straight into the stack, and the
transforms run over the whole grid.

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
from ..xp import ArrayBackend, DeviceKernelData, resolve_backend
from .kernels import SOCSKernels, common_grid_shape
from .tcc import FrequencySupport

XpArg = Union[None, str, ArrayBackend]

#: numpy evaluates ``a * f(b)`` as ``f(b) *= a`` once the temporary
#: ``f(b)`` holds this many bytes (its temporary elision), and complex
#: multiplication with FMA is not commutative bit for bit.  The adjoint's
#: conjugate product is ``gathered * conj(spectra)``, so its in-place
#: form takes the operand order numpy takes at each size.
NUMPY_ELIDE_BYTES = 256 * 1024


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


def _scatter_product(
    xp: ArrayBackend, full: Any, rows: Any, cols: Any, a: Any, b: Any
) -> None:
    """Write support samples ``a * b`` into ``full``'s trailing grid axes.

    On a dense support the product is written straight into ``full``;
    on a band-limited one it is scattered from a temporary.
    """
    if rows is None:
        xp.multiply(a, b, out=_gather(full, rows, cols))
    else:
        _scatter(full, rows, cols, xp.multiply(a, b))


def _conjugate_product(xp: ArrayBackend, gathered: Any, spectra: Any) -> None:
    """``gathered *= conj(spectra)`` in place, in kernel-axis chunks.

    Takes the operand order numpy's temporary elision gives the unsplit
    ``gathered * conj(spectra)``: the conjugate first once the whole
    conjugate stack reaches :data:`NUMPY_ELIDE_BYTES`.
    """
    h, size = gathered.shape
    conj_first = (
        xp.name == "numpy" and h * size * xp.complex_dtype.itemsize >= NUMPY_ELIDE_BYTES
    )

    def product(lo: int, hi: int) -> None:
        part = gathered[lo:hi]
        conj = xp.conj(spectra[lo:hi])
        if conj_first:
            xp.multiply(conj, part, out=part)
        else:
            xp.multiply(part, conj, out=part)

    xp.map_chunks(product, h, h * size)


def _weighted_intensity(xp: ArrayBackend, weights: Any, fields: Any) -> Any:
    """``sum_k w_k |E_k|^2`` of a ``(h, rows, cols)`` field stack.

    ``|E_k|^2`` goes into one float buffer in kernel-axis chunks; the
    weighted k-sum then runs in pixel chunks, each pixel summed over the
    kernels exactly as the unsplit einsum sums it.
    """
    h = fields.shape[0]
    grid = tuple(fields.shape[1:])
    pixels = grid[0] * grid[1]
    power = xp.empty((h,) + grid, "float")

    def magnitude(lo: int, hi: int) -> None:
        part = power[lo:hi]
        xp.abs(fields[lo:hi], out=part)
        xp.multiply(part, part, out=part)

    xp.map_chunks(magnitude, h, h * pixels)
    flat = power.reshape(h, pixels)
    intensity = xp.empty((pixels,), "float")
    xp.map_chunks(
        lambda lo, hi: xp.einsum(
            "k,kn->n", weights, flat[:, lo:hi], out=intensity[lo:hi]
        ),
        pixels,
        h * pixels,
    )
    return intensity.reshape(grid)


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
    intensity = _weighted_intensity(xp, kd.weights, fields)
    return xp.to_numpy(dose * intensity)


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


def support_rows(
    supports: Sequence[FrequencySupport], num_rows: int
) -> Optional[np.ndarray]:
    """Sorted unique grid rows touched by any support, or None.

    The band-limited support typically covers a small fraction of the
    frequency rows, which lets the batched transforms prune the 1-D pass
    over the untouched (all-zero / never-read) rows.  Returns None when
    a support is dense or the supports span most rows, so pruning would
    not pay.  Every focus of one evaluation transforms with the rows of
    all its foci.
    """
    if any(s.dense for s in supports):
        return None
    rows = np.unique(np.concatenate([s.rows for s in supports]))
    if len(rows) * 2 >= num_rows:
        return None
    return rows


def kernel_set_fields(
    xp: ArrayBackend,
    kernels: SOCSKernels,
    data: DeviceKernelData,
    m_sup: Any,
    rows_used: Optional[np.ndarray],
) -> Any:
    """Coherent fields of one kernel set: the forward for one focus.

    Every spectrum product ``m_sup * Phi_k`` is written onto the leading
    axis of one stack, in kernel-axis chunks on the backend's threads,
    and one batched ``ifft2`` transforms it in place.  With
    ``rows_used`` (:func:`support_rows`) the first 1-D pass runs on
    those rows alone: the spectra are zero elsewhere, and transforming
    exact zeros yields exact zeros, so the fields are bitwise the full
    transform's.

    Touches no counter, span or cache: ``data`` (``xp.kernel_data``)
    and ``m_sup`` (:meth:`ForwardCache.gathered`) come from the caller,
    so one call per focus may run on the backend's threads at once.

    Returns:
        Backend-native complex ``(h, rows, cols)`` field stack.
    """
    h = kernels.num_kernels
    # A dense support writes every sample, so its stack needs no zeros.
    allocate = xp.empty if kernels.support.dense else xp.zeros
    fields = allocate((h,) + kernels.shape, "complex")
    # Two-step view indexing (slice first, then the advanced index)
    # keeps the write portable across numpy/cupy/torch setitem rules.
    xp.map_chunks(
        lambda lo, hi: _scatter_product(
            xp, fields[lo:hi], data.rows, data.cols, m_sup, data.spectra[lo:hi]
        ),
        h,
        h * kernels.support.size,
    )
    if rows_used is None:
        xp.ifft2(fields, out=fields)
    else:
        ru = xp.asarray(rows_used, "index")
        pruned = fields[:, ru, :]
        fields[:, ru, :] = xp.ifft(pruned, axis=-1, out=pruned)
        xp.ifft(fields, axis=-2, out=fields)
    return fields


def kernel_set_adjoint(
    xp: ArrayBackend,
    df_di: np.ndarray,
    fields: Any,
    kernels: SOCSKernels,
    data: DeviceKernelData,
    rows_used: Optional[np.ndarray],
    out: Any,
) -> Any:
    """The adjoint for one focus, up to its k-summed support samples.

    ``G'(I) * E_k`` is written into ``out`` (a ``(h, rows, cols)``
    complex buffer, which may be ``fields`` itself), the forward
    transform and the conjugate product run in place on it, and the
    weighted k-sum ``sum_k w_k conj(Phi_k) fft2(G'(I) E_k)`` runs in
    support chunks, all on the backend's threads.  With ``rows_used``
    the second 1-D pass runs on those rows alone, since only support
    rows are gathered.  :func:`sum_adjoints` adds the returned samples
    of every focus and transforms them back.

    Touches no counter, span or cache, like :func:`kernel_set_fields`.

    Returns:
        Backend-native complex ``(support_size,)`` samples.
    """
    h = kernels.num_kernels
    shape = kernels.shape
    size = kernels.support.size
    weight = xp.asarray(df_di, "float")
    fields = xp.asarray(fields, "complex")
    xp.map_chunks(
        lambda lo, hi: xp.multiply(weight, fields[lo:hi], out=out[lo:hi]),
        h,
        h * shape[0] * shape[1],
    )
    rows = data.rows
    if rows_used is None:
        w_hat = xp.fft2(out, out=out)
    else:
        ru = xp.asarray(rows_used, "index")
        w_hat = xp.fft(out, axis=-2, out=out)[:, ru, :]
        xp.fft(w_hat, axis=-1, out=w_hat)
        rows = xp.asarray(np.searchsorted(rows_used, kernels.support.rows), "index")
    gathered = _gather(w_hat, rows, data.cols)
    _conjugate_product(xp, gathered, data.spectra)
    summed = xp.empty((size,), "complex")
    xp.map_chunks(
        lambda lo, hi: xp.einsum(
            "k,ks->s", data.weights, gathered[:, lo:hi], out=summed[lo:hi]
        ),
        size,
        h * size,
    )
    return summed


def kernel_set_intensity(xp: ArrayBackend, data: DeviceKernelData, fields: Any) -> np.ndarray:
    """Unit-dose intensity ``sum_k w_k |E_k|^2`` of one focus's fields.

    Bitwise :func:`aerial_image` at dose 1 on the same fields, and
    touches no cache, like :func:`kernel_set_fields`.
    """
    return xp.to_numpy(_weighted_intensity(xp, data.weights, fields))


def sum_adjoints(
    xp: ArrayBackend, shape: Tuple[int, int], parts: Sequence[Tuple[DeviceKernelData, Any]]
) -> np.ndarray:
    """``2 Re ifft2`` of every focus's support samples, added in order.

    ``parts`` holds one ``(data, samples)`` pair per focus, the samples
    from :func:`kernel_set_adjoint`.  The adjoint is diagonal on the
    frequency support, so the foci meet here and cost one inverse FFT.

    Returns:
        Real gradient contribution on the mask plane (numpy).
    """
    accum = xp.zeros(shape, "complex")
    for data, summed in parts:
        _scatter(accum, data.rows, data.cols, _gather(accum, data.rows, data.cols) + summed)
    return xp.to_numpy(2.0 * xp.real(xp.ifft2(accum)))


def batched_field_stacks(
    cache: ForwardCache, kernel_sets: Sequence[SOCSKernels]
) -> List[Any]:
    """Coherent fields for several kernel sets sharing one mask spectrum.

    The batched counterpart of :func:`field_stack`: one
    :func:`kernel_set_fields` per set, each a single in-place batched
    transform over its kernels, all sharing the cached mask spectrum and
    the pruned rows of every set.  Runs on the cache's backend.

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
    rows_used = support_rows([ks.support for ks in kernel_sets], shape[0])
    return [
        kernel_set_fields(xp, ks, xp.kernel_data(ks), cache.gathered(ks.support), rows_used)
        for ks in kernel_sets
    ]


def accumulate_backprojection(
    groups: Sequence[Tuple[np.ndarray, Any, SOCSKernels]],
    xp: XpArg = None,
) -> np.ndarray:
    """Sum of back-projections of ``G'(I) * E_k`` over several focus groups.

    Numerically equivalent to
    ``sum(backproject_fields(df_di * fields, ks) for df_di, fields, ks in groups)``
    but computed with one batched forward FFT per group and a *single*
    inverse FFT: because the adjoint is diagonal on the frequency
    support, the per-kernel weighted sums are accumulated there before
    transforming back (:func:`kernel_set_adjoint`, :func:`sum_adjoints`).
    The groups' fields are left as they were.

    Args:
        groups: ``(df_di, fields, kernels)`` triples, one per focus
            condition: ``df_di`` is the host intensity-space gradient
            ``G'(I)`` (any per-corner dose factors already applied) and
            ``fields`` the ``(h, rows, cols)`` field stack of ``kernels``
            (numpy or backend-native).
        xp: array backend (default: the resolved process backend).

    Returns:
        Real gradient contribution on the mask plane (numpy).
    """
    xp = resolve_backend(xp)
    groups = list(groups)
    shape = common_grid_shape([ks for _, _, ks in groups])
    for _, fields, ks in groups:
        if tuple(fields.shape) != (ks.num_kernels,) + shape:
            raise GridError(
                f"fields shape {tuple(fields.shape)} inconsistent with "
                f"{ks.num_kernels} kernels on grid {shape}"
            )
    rows_used = support_rows([ks.support for _, _, ks in groups], shape[0])
    parts = []
    for df_di, fields, ks in groups:
        data = xp.kernel_data(ks)
        out = xp.empty((ks.num_kernels,) + shape, "complex")
        parts.append((data, kernel_set_adjoint(xp, df_di, fields, ks, data, rows_used, out)))
    return sum_adjoints(xp, shape, parts)
