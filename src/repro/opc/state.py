"""Per-iteration forward-simulation cache shared by all objectives.

Every objective needs some subset of {per-kernel fields, aerial image,
soft printed image} at some subset of process corners.  Computing these
once per iteration and sharing them is the single biggest runtime win in
the optimizer, so the cache is explicit and objectives receive it rather
than a raw mask.

The context shares one ``fft2(M)`` per iterate across *all* corners and
objective terms (observable through :meth:`ForwardContext.cache_info`
and the ``forward_fft_reuse`` metric), evaluates all requested focus
conditions with a single vectorized inverse FFT
(:meth:`ForwardContext.ensure_fields`), and accumulates multi-corner
gradients through one batched adjoint pass
(:meth:`ForwardContext.accumulate_intensity_gradients`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..litho.simulator import LithographySimulator
from ..optics.hopkins import (
    ForwardCache,
    ForwardCacheInfo,
    aerial_image,
    batched_field_stacks,
)
from ..process.corners import ProcessCorner, nominal_corner


class ForwardContext:
    """Lazy, memoized forward simulation of one mask iterate.

    Args:
        mask: continuous mask M in (0, 1).
        sim: the lithography simulator (provides kernels, resist, corners).
    """

    def __init__(self, mask: np.ndarray, sim: LithographySimulator) -> None:
        self.mask = np.asarray(mask, dtype=np.float64)
        self.sim = sim
        self._cache = ForwardCache(self.mask, obs=sim.obs, xp=sim.xp)
        self._fields: Dict[float, np.ndarray] = {}
        self._intensity: Dict[float, np.ndarray] = {}
        self._aerial: Dict[tuple, np.ndarray] = {}
        self._soft: Dict[tuple, np.ndarray] = {}

    @property
    def nominal(self) -> ProcessCorner:
        return nominal_corner()

    def cache_info(self) -> ForwardCacheInfo:
        """Mask-spectrum reuse statistics.

        ``mask_ffts`` is exactly 1 after any forward work: one
        ``fft2(M)`` per mask per iteration, shared everywhere.
        """
        return self._cache.info()

    def ensure_fields(self, corners: Iterable[ProcessCorner]) -> None:
        """Prefetch coherent fields for all corners' focus conditions.

        Every missing focus is evaluated through one vectorized ``ifft2``
        call (the ``forward.batched`` span).  Already-cached focus values
        cost nothing, so calling this repeatedly is safe.
        """
        wanted: List[float] = []
        for corner in corners:
            key = float((corner or self.nominal).defocus_nm)
            if key not in self._fields and key not in wanted:
                wanted.append(key)
        if not wanted:
            return
        kernel_sets = [self.sim.kernels_at(key) for key in wanted]
        with self.sim.obs.tracer.span("forward.batched"):
            stacks = batched_field_stacks(self._cache, kernel_sets)
        for key, stack in zip(wanted, stacks):
            self._fields[key] = stack

    def fields(self, corner: Optional[ProcessCorner] = None) -> np.ndarray:
        """Per-kernel coherent fields E_k at a corner's focus (dose-free)."""
        corner = corner or self.nominal
        key = float(corner.defocus_nm)
        if key not in self._fields:
            self.ensure_fields([corner])
        return self._fields[key]

    def _intensity_at_focus(self, corner: ProcessCorner) -> np.ndarray:
        """Unit-dose intensity at a corner's focus (dose applied by callers)."""
        key = float(corner.defocus_nm)
        if key not in self._intensity:
            kernels = self.sim.kernels_at(corner.defocus_nm)
            self._intensity[key] = aerial_image(
                self.mask, kernels, fields=self.fields(corner), xp=self.sim.xp
            )
        return self._intensity[key]

    def aerial(self, corner: Optional[ProcessCorner] = None) -> np.ndarray:
        """Aerial intensity at a corner (dose applied)."""
        corner = corner or self.nominal
        key = (float(corner.defocus_nm), float(corner.dose))
        if key not in self._aerial:
            obs = self.sim.obs
            obs.metrics.counter("forward_evals_total").inc()
            with obs.tracer.span("aerial"):
                # Corners sharing a focus share one intensity image;
                # dose is a scalar factor (I = dose * sum_k w_k |E_k|^2).
                self._aerial[key] = corner.dose * self._intensity_at_focus(corner)
        return self._aerial[key]

    def soft_image(self, corner: Optional[ProcessCorner] = None) -> np.ndarray:
        """Sigmoid printed image Z at a corner (paper Eq. 4)."""
        corner = corner or self.nominal
        key = (float(corner.defocus_nm), float(corner.dose))
        if key not in self._soft:
            self._soft[key] = self.sim.resist.develop_soft(self.aerial(corner))
        return self._soft[key]

    def soft_images(
        self, corners: Sequence[ProcessCorner]
    ) -> List[np.ndarray]:
        """Soft printed images at several corners (fields batch-prefetched)."""
        self.ensure_fields(corners)
        return [self.soft_image(corner) for corner in corners]

    def accumulate_intensity_gradients(
        self, contributions: Sequence[Tuple[Optional[ProcessCorner], np.ndarray]]
    ) -> np.ndarray:
        """Sum of ``(corner, dF/dI_eff)`` gradients on the mask plane.

        ``I_eff`` is the post-diffusion intensity the resist thresholds;
        a ``None`` corner means nominal.  The adjoint is the diffusion
        adjoint, then the SOCS adjoint, times each corner's dose: the
        set is dose-combined per focus and back-projected in one batched
        pass (:meth:`LithographySimulator.gradient_all_corners`) that
        reuses this context's fields.
        """
        resolved = [
            (corner if corner is not None else self.nominal, df_di)
            for corner, df_di in contributions
        ]
        if not resolved:
            return np.zeros_like(self.mask)
        self.ensure_fields([corner for corner, _ in resolved])
        return self.sim.gradient_all_corners(
            self.mask, resolved, fields_by_focus=self._fields
        )
