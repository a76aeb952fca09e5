"""Optical ambit: compactly-supported kernels for exact tiled imaging.

Tiled full-chip optimization only works if a tile's printed image inside
its core is *identical* to what a monolithic simulation of the whole
chip would produce there — otherwise stitching moves contours.  Freshly
building SOCS kernels per window cannot deliver that: the frequency
lattice (and with it the discretized source) depends on the grid size,
so two windows of different sizes disagree at the 1e-2..1e-3 level no
matter how generous the halo.

This module therefore fixes the *model* first: the full-chip forward
model is defined as **linear convolution with ambit-truncated spatial
kernels** built once on a canonical probe grid.  The SOCS kernels decay
quickly in space, so truncating each kernel to a Chebyshev radius R (the
**ambit**) where the retained weighted energy reaches ``1 - energy_tol``
changes the model by a bounded, quantified amount — and from then on the
truncated stencils ARE the optical model, shared bit-for-bit by every
window size.

Evaluation uses overlap-discard: a window of ``core + 2*halo`` pixels is
imaged with periodic FFT convolution and only the core is kept.  For any
halo >= R a core pixel's convolution sum never wraps and never misses
kernel mass, so tiled and monolithic images agree to FFT rounding
(~1e-15) — the seam-equivalence test pins this exactly.

:class:`WindowSimulator` wraps the stencils back into a standard
:class:`~repro.litho.simulator.LithographySimulator` by synthesizing a
:class:`~repro.optics.kernels.SOCSKernels` per window shape (the
stencil embedded on the window grid, transformed with one ``fft2``), so
the entire existing forward/gradient/objective stack works on tiles
unchanged.  A truncated stencil is not band-limited, so its spectrum
fills the whole window grid: the set lives on a *dense*
:class:`~repro.optics.tcc.FrequencySupport`, which carries no index
arrays and which the imaging engine addresses by reshaping.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import GridSpec, LithoConfig
from ..errors import FullChipError
from ..litho.simulator import LithographySimulator
from ..obs import Instrumentation
from ..optics.kernels import SOCSKernels, build_socs_kernels
from ..optics.tcc import dense_frequency_support
from ..process.corners import enumerate_corners

logger = logging.getLogger(__name__)

#: Default retained-energy tolerance: the truncated stencils keep
#: >= 1 - tol of the weighted kernel energy at every focus condition.
DEFAULT_ENERGY_TOL = 2e-3

#: Default physical extent of the canonical probe grid the stencils are
#: measured on.  Must comfortably exceed twice the expected ambit.
DEFAULT_PROBE_EXTENT_NM = 2048.0


@dataclass(frozen=True)
class FocusStencils:
    """Truncated spatial kernels for one focus condition.

    Attributes:
        defocus_nm: the focus offset.
        weights: SOCS weights, re-normalized so an open-frame (all-ones)
            mask images to unit intensity *under the truncated model*.
        stencils: complex array ``(h, 2R+1, 2R+1)``, kernel k centred at
            pixel ``(R, R)``.
    """

    defocus_nm: float
    weights: np.ndarray
    stencils: np.ndarray

    @property
    def radius_px(self) -> int:
        return (self.stencils.shape[1] - 1) // 2


def _centered_spatial_kernels(kernels: SOCSKernels) -> np.ndarray:
    """All spatial kernels of a set, centred on the grid midpoint."""
    out = np.empty((kernels.num_kernels,) + kernels.shape, dtype=np.complex128)
    for k in range(kernels.num_kernels):
        out[k] = kernels.spatial_kernel(k)
    return out


def _ambit_radius(
    weights: np.ndarray, spatial: np.ndarray, energy_tol: float
) -> int:
    """Smallest Chebyshev radius keeping >= 1 - tol of the weighted energy."""
    _, rows, cols = spatial.shape
    cy, cx = rows // 2, cols // 2
    yy, xx = np.meshgrid(np.arange(rows) - cy, np.arange(cols) - cx, indexing="ij")
    cheb = np.maximum(np.abs(yy), np.abs(xx))
    energy = np.einsum("k,kij->ij", weights, np.abs(spatial) ** 2)
    max_radius = int(cheb.max())
    per_radius = np.bincount(cheb.ravel(), weights=energy.ravel(), minlength=max_radius + 1)
    cumulative = np.cumsum(per_radius)
    total = cumulative[-1]
    if total <= 0:
        raise FullChipError("kernel set carries no energy; cannot derive an ambit")
    usable = min(cy, cx, rows - 1 - cy, cols - 1 - cx)
    for radius in range(usable + 1):
        if 1.0 - cumulative[radius] / total <= energy_tol:
            return radius
    raise FullChipError(
        f"kernel energy tail still exceeds {energy_tol:g} at the probe-grid "
        f"boundary (radius {usable} px) — enlarge probe_extent_nm or relax "
        f"the tolerance"
    )


@dataclass
class AmbitModel:
    """The canonical truncated-kernel optical model for one litho setup.

    Built once (expensively: one SOCS decomposition per focus condition
    on the probe grid) and then reused by every window of the full-chip
    run — including forked worker processes, which inherit the parent's
    warmed module cache for free.

    Attributes:
        litho: the configuration the stencils were derived from (its
            ``grid`` field only contributes the pixel size).
        energy_tol: retained-energy tolerance used for the ambit.
        probe_extent_nm: physical extent of the probe grid.
        ambit_px: Chebyshev truncation radius in pixels, maximized over
            all focus conditions of the process window.
        focus_stencils: per-defocus truncated kernels.
    """

    litho: LithoConfig
    energy_tol: float
    probe_extent_nm: float
    ambit_px: int
    focus_stencils: Dict[float, FocusStencils]
    _window_cache: Dict[Tuple[Tuple[int, int], float], SOCSKernels] = field(
        default_factory=dict, repr=False
    )

    @property
    def pixel_nm(self) -> float:
        return self.litho.grid.pixel_nm

    @property
    def ambit_nm(self) -> float:
        """The optical ambit: interaction range of the truncated model."""
        return self.ambit_px * self.pixel_nm

    @property
    def min_window_px(self) -> int:
        """Smallest window edge that can hold a stencil without aliasing."""
        return 2 * self.ambit_px + 1

    @property
    def defocus_values_nm(self) -> Tuple[float, ...]:
        return tuple(sorted(self.focus_stencils))

    @classmethod
    def build(
        cls,
        litho: LithoConfig,
        energy_tol: float = DEFAULT_ENERGY_TOL,
        probe_extent_nm: float = DEFAULT_PROBE_EXTENT_NM,
    ) -> "AmbitModel":
        """Derive the ambit and truncated stencils for a configuration.

        The probe grid spans ``probe_extent_nm`` at the configuration's
        pixel size; every distinct defocus of the process window gets its
        own SOCS decomposition, and the ambit is the *maximum* truncation
        radius over all of them (defocus spreads the kernels).
        """
        if not 0 < energy_tol < 1:
            raise FullChipError(f"energy_tol must be in (0, 1), got {energy_tol}")
        pixel_nm = litho.grid.pixel_nm
        probe_px = int(round(probe_extent_nm / pixel_nm))
        if probe_px < 32:
            raise FullChipError(
                f"probe grid of {probe_px} px is too small to measure kernel "
                f"decay; increase probe_extent_nm"
            )
        probe_grid = GridSpec(shape=(probe_px, probe_px), pixel_nm=pixel_nm)
        defocus_values = sorted(
            {float(c.defocus_nm) for c in enumerate_corners(litho.process)}
        )
        raw: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        ambit_px = 0
        for defocus in defocus_values:
            logger.info("probing kernel ambit at defocus %.1f nm", defocus)
            kernels = build_socs_kernels(probe_grid, litho.optics, defocus_nm=defocus)
            spatial = _centered_spatial_kernels(kernels)
            raw[defocus] = (kernels.weights, spatial)
            ambit_px = max(ambit_px, _ambit_radius(kernels.weights, spatial, energy_tol))
        center = probe_px // 2
        lo, hi = center - ambit_px, center + ambit_px + 1
        focus_stencils: Dict[float, FocusStencils] = {}
        for defocus, (weights, spatial) in raw.items():
            stencils = np.ascontiguousarray(spatial[:, lo:hi, lo:hi])
            # Re-normalize for unit open-frame intensity under the
            # truncated model: the DC response of kernel k is the plain
            # sum of its stencil, so truncation would otherwise dim every
            # image by the discarded tail energy.
            dc = np.array([np.abs(np.sum(stencils[k])) ** 2 for k in range(len(weights))])
            open_intensity = float(np.sum(weights * dc))
            if open_intensity <= 0:
                raise FullChipError("truncated stencils pass no DC energy")
            focus_stencils[defocus] = FocusStencils(
                defocus_nm=defocus,
                weights=weights / open_intensity,
                stencils=stencils,
            )
        logger.info(
            "ambit = %d px (%.0f nm) at tol %.1e over %d focus conditions",
            ambit_px, ambit_px * pixel_nm, energy_tol, len(defocus_values),
        )
        return cls(
            litho=litho,
            energy_tol=energy_tol,
            probe_extent_nm=probe_extent_nm,
            ambit_px=ambit_px,
            focus_stencils=focus_stencils,
        )

    def window_kernels(self, shape: Tuple[int, int], defocus_nm: float = 0.0) -> SOCSKernels:
        """The model's kernels as a SOCS set on ``shape``'s dense support.

        The stencil is embedded on the window grid wrapped around the
        origin and transformed with one ``fft2``; multiplying a mask
        spectrum by the result is exactly periodic convolution with the
        centred stencil, which the overlap-discard construction turns
        into linear convolution inside the core.
        """
        key = (tuple(shape), float(defocus_nm))
        cached = self._window_cache.get(key)
        if cached is not None:
            return cached
        stencil_set = self.focus_stencils.get(float(defocus_nm))
        if stencil_set is None:
            raise FullChipError(
                f"no stencils at defocus {defocus_nm} nm; the model covers "
                f"{self.defocus_values_nm}"
            )
        rows, cols = shape
        diameter = 2 * self.ambit_px + 1
        if rows < diameter or cols < diameter:
            raise FullChipError(
                f"window {shape} cannot hold a stencil of diameter {diameter} px "
                f"(ambit {self.ambit_px} px) without self-overlap"
            )
        offsets = np.arange(-self.ambit_px, self.ambit_px + 1)
        emb = np.zeros((len(stencil_set.weights), rows, cols), dtype=np.complex128)
        emb[:, (offsets % rows)[:, None], (offsets % cols)[None, :]] = stencil_set.stencils
        spectra = np.fft.fft2(emb, axes=(-2, -1)).reshape(len(stencil_set.weights), -1)
        kernels = SOCSKernels(
            support=dense_frequency_support((rows, cols), self.pixel_nm),
            weights=stencil_set.weights.copy(),
            spectra=spectra,
            defocus_nm=float(defocus_nm),
        )
        self._window_cache[key] = kernels
        return kernels

    def simulator_for(
        self,
        shape: Tuple[int, int],
        obs: Optional[Instrumentation] = None,
        backend: Optional[str] = None,
    ) -> "WindowSimulator":
        """A :class:`WindowSimulator` on a window of ``shape`` pixels.

        ``backend`` selects the window's array backend (spec string or
        instance); ``None`` defers to the optics config / environment /
        numpy-reference chain.  Backend instances are process-wide
        singletons, so every window sharing a spec shares one backend.
        """
        return WindowSimulator(self, shape, obs=obs, backend=backend)


class WindowSimulator(LithographySimulator):
    """A :class:`LithographySimulator` driven by an :class:`AmbitModel`.

    Only the kernel build changes: instead of a fresh SOCS build per
    grid (whose frequency lattice would depend on the window size), the
    kernels come from the shared ambit-truncated stencils — so every
    window of a full-chip run, and the monolithic reference, image with
    the *same* optical model.  All forward/gradient/process-window
    machinery is inherited unchanged.
    """

    def __init__(
        self,
        model: AmbitModel,
        shape: Tuple[int, int],
        obs: Optional[Instrumentation] = None,
        backend: Optional[str] = None,
    ) -> None:
        config = LithoConfig(
            grid=GridSpec(shape=tuple(shape), pixel_nm=model.pixel_nm),
            optics=model.litho.optics,
            resist=model.litho.resist,
            process=model.litho.process,
        )
        super().__init__(config, obs=obs, backend=backend)
        self.model = model

    def _build_kernels(self, defocus_nm: float) -> SOCSKernels:
        """The ambit model's kernels embedded on this window."""
        with self.obs.tracer.span("window_kernel_embed"):
            return self.model.window_kernels(self.grid.shape, defocus_nm)


# -- shared model cache --------------------------------------------------------
#
# Stencil derivation is the expensive one-time step of a full-chip run
# (one SOCS decomposition per focus on the probe grid).  The cache is
# module-global on purpose: the scheduler warms it in the parent process
# *before* creating a fork-based worker pool, so every worker inherits
# the built model through copy-on-write memory instead of rebuilding it.

_MODEL_CACHE: Dict[Tuple, AmbitModel] = {}
_MODEL_CACHE_LOCK = threading.Lock()
_MODEL_CACHE_HITS = 0
_MODEL_CACHE_MISSES = 0


@dataclass(frozen=True)
class ModelCacheInfo:
    """Snapshot of the shared stencil-model cache (mirrors
    :class:`~repro.litho.simulator.KernelCacheInfo`).

    Attributes:
        hits: lookups served from the cache.
        misses: lookups that triggered a stencil build.
        entries: models currently cached.
    """

    hits: int
    misses: int
    entries: int

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": self.entries}


def _model_key(litho: LithoConfig, energy_tol: float, probe_extent_nm: float) -> Tuple:
    return (litho.grid.pixel_nm, litho.optics, litho.process, energy_tol, probe_extent_nm)


def ambit_model_for(
    litho: LithoConfig,
    energy_tol: float = DEFAULT_ENERGY_TOL,
    probe_extent_nm: float = DEFAULT_PROBE_EXTENT_NM,
) -> AmbitModel:
    """The shared :class:`AmbitModel` for a configuration (built once).

    Keyed on everything that shapes the stencils: pixel size, optics,
    process window, tolerance and probe extent (resist and grid shape do
    not participate).
    """
    global _MODEL_CACHE_HITS, _MODEL_CACHE_MISSES
    key = _model_key(litho, energy_tol, probe_extent_nm)
    with _MODEL_CACHE_LOCK:
        model = _MODEL_CACHE.get(key)
        if model is None:
            _MODEL_CACHE_MISSES += 1
            model = AmbitModel.build(
                litho, energy_tol=energy_tol, probe_extent_nm=probe_extent_nm
            )
            _MODEL_CACHE[key] = model
        else:
            _MODEL_CACHE_HITS += 1
        return model


def model_cache_info() -> ModelCacheInfo:
    """Hit/miss statistics of the shared model cache (process-local).

    Worker processes inherit the parent's warmed cache through fork but
    count their own lookups from zero; the numbers reported by the
    full-chip run summary are the parent's.
    """
    with _MODEL_CACHE_LOCK:
        return ModelCacheInfo(
            hits=_MODEL_CACHE_HITS,
            misses=_MODEL_CACHE_MISSES,
            entries=len(_MODEL_CACHE),
        )
