"""Per-iteration forward-simulation cache shared by all objectives.

Every objective needs some subset of {per-kernel fields, aerial image,
soft printed image} at some subset of process corners.  Computing these
once per iteration and sharing them is the single biggest runtime win in
the optimizer, so the cache is explicit and objectives receive it rather
than a raw mask.

The context shares one ``fft2(M)`` per iterate across *all* corners and
objective terms (observable through :meth:`ForwardContext.cache_info`
and the ``forward_fft_reuse`` metric), evaluates each requested focus
condition with one vectorized inverse FFT
(:meth:`ForwardContext.ensure_fields`), and accumulates multi-corner
gradients through one batched adjoint pass
(:meth:`ForwardContext.accumulate_intensity_gradients`).

The composite objective runs each focus's share of an evaluation as one
task on the backend's threads (:meth:`ForwardContext.map_foci`).  The
calling thread does the bookkeeping first (:meth:`ForwardContext.plan_foci`:
kernel lookups, device data, gathered spectra, counters), because the
tracer keeps one span stack and counters are unlocked; the tasks
(:meth:`ForwardContext.image_focus`,
:meth:`ForwardContext.backproject_focus`) then touch none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..litho.simulator import LithographySimulator
from ..optics.hopkins import (
    ForwardCache,
    ForwardCacheInfo,
    aerial_image,
    batched_field_stacks,
    kernel_set_adjoint,
    kernel_set_fields,
    kernel_set_intensity,
    sum_adjoints,
    support_rows,
)
from ..optics.kernels import SOCSKernels
from ..process.corners import ProcessCorner, nominal_corner
from ..xp import DeviceKernelData

T = TypeVar("T")


@dataclass
class FocusPlan:
    """One focus of a task-run evaluation, looked up on the calling thread.

    Attributes:
        focus: defocus in nm.
        kernels: the focus's SOCS kernel set.
        data: its device-side kernel data.
        spectrum: the support-gathered mask spectrum, or None when the
            context already holds the focus's fields.
        corners: the corners to image at this focus, one per dose.
        rows_used: the pruned frequency rows of every focus of the
            evaluation (:func:`~repro.optics.hopkins.support_rows`).
    """

    focus: float
    kernels: SOCSKernels
    data: DeviceKernelData
    spectrum: Any
    corners: List[ProcessCorner]
    rows_used: Optional[np.ndarray]


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

        Each missing focus is evaluated through one vectorized ``ifft2``
        call (all under one ``forward.batched`` span).  Already-cached
        focus values cost nothing, so calling this repeatedly is safe.
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

    # -- per-focus tasks -------------------------------------------------

    def plan_foci(self, corners: Iterable[ProcessCorner]) -> List[FocusPlan]:
        """The bookkeeping of imaging ``corners`` in per-focus tasks.

        Runs on the calling thread: looks up each focus's kernels,
        device data and (unless the fields are held) gathered mask
        spectrum, and counts the corner images the tasks will make in
        ``forward_evals_total``.  Plans come in first-seen focus order.
        """
        by_focus: Dict[float, Dict[float, ProcessCorner]] = {}
        for corner in corners:
            corner = corner or self.nominal
            doses = by_focus.setdefault(float(corner.defocus_nm), {})
            doses.setdefault(float(corner.dose), corner)
        kernel_sets = [self.sim.kernels_at(focus) for focus in by_focus]
        rows_used = support_rows([ks.support for ks in kernel_sets], self.mask.shape[0])
        plans: List[FocusPlan] = []
        images = 0
        for (focus, doses), kernels in zip(by_focus.items(), kernel_sets):
            spectrum = None
            if focus not in self._fields:
                spectrum = self._cache.gathered(kernels.support)
            images += sum((focus, dose) not in self._aerial for dose in doses)
            plans.append(
                FocusPlan(
                    focus=focus,
                    kernels=kernels,
                    data=self.sim.xp.kernel_data(kernels),
                    spectrum=spectrum,
                    corners=list(doses.values()),
                    rows_used=rows_used,
                )
            )
        self.sim.obs.metrics.counter("forward_evals_total").inc(images)
        return plans

    def map_foci(self, plans: Sequence[FocusPlan], task: Callable[[FocusPlan], T]) -> List[T]:
        """``task(plan)`` for every plan, one task per focus on the backend's threads."""
        pixels = self.mask.shape[0] * self.mask.shape[1]
        points = sum(plan.kernels.num_kernels for plan in plans) * pixels
        return self.sim.xp.map_tasks([partial(task, plan) for plan in plans], points)

    def image_focus(self, plan: FocusPlan) -> None:
        """Fields, intensity and soft images at the plan's corners.

        A task: touches no counter, span or cache (:meth:`plan_foci` did
        the bookkeeping), only this focus's entries of the context.
        """
        xp = self.sim.xp
        if plan.focus not in self._fields:
            self._fields[plan.focus] = kernel_set_fields(
                xp, plan.kernels, plan.data, plan.spectrum, plan.rows_used
            )
        if plan.focus not in self._intensity:
            self._intensity[plan.focus] = kernel_set_intensity(
                xp, plan.data, self._fields[plan.focus]
            )
        for corner in plan.corners:
            key = (plan.focus, float(corner.dose))
            if key not in self._aerial:
                self._aerial[key] = corner.dose * self._intensity[plan.focus]
            if key not in self._soft:
                self._soft[key] = self.sim.resist.develop_soft(self._aerial[key])

    def backproject_focus(
        self, plan: FocusPlan, contributions: Sequence[Tuple[ProcessCorner, np.ndarray]]
    ) -> Any:
        """The adjoint of same-focus ``(corner, dF/dI_eff)`` pairs, up to
        its k-summed support samples (:func:`~repro.optics.hopkins.kernel_set_adjoint`).

        A task, like :meth:`image_focus`.  The product overwrites the
        focus's field stack in place, so the context drops the stack.
        """
        df_di = self.sim.focus_intensity_gradient(contributions)
        fields = self._fields.pop(plan.focus)
        return kernel_set_adjoint(
            self.sim.xp, df_di, fields, plan.kernels, plan.data, plan.rows_used, out=fields
        )

    def sum_adjoints(self, parts: Sequence[Tuple[FocusPlan, Any]]) -> np.ndarray:
        """``dF/dM`` from every focus's support samples, added in order."""
        return sum_adjoints(
            self.sim.xp, self.mask.shape, [(plan.data, samples) for plan, samples in parts]
        )
