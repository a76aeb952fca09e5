"""Objective interface for the gradient-descent ILT engine."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from ...errors import OptimizationError
from ...process.corners import ProcessCorner
from ..state import ForwardContext


def validated_weight(
    weight: Optional[np.ndarray], shape: Tuple[int, ...]
) -> Optional[np.ndarray]:
    """Check an optional per-pixel penalty-weight map.

    Weights must match the target shape and be non-negative; ``None``
    (uniform weighting) passes through.
    """
    if weight is None:
        return None
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != tuple(shape):
        raise OptimizationError(
            f"penalty weight {weight.shape} does not match target {tuple(shape)}"
        )
    if np.any(weight < 0):
        raise OptimizationError("penalty weights must be non-negative")
    return weight


class Objective(ABC):
    """A differentiable functional of the mask, F(M).

    Implementations compute the scalar value and the gradient with
    respect to the *mask* plane M (not the unconstrained parameters P —
    the optimizer applies the ``dM/dP`` chain-rule factor itself, so
    objectives stay independent of the relaxation).
    """

    @abstractmethod
    def value_and_gradient(self, ctx: ForwardContext) -> Tuple[float, np.ndarray]:
        """Evaluate F(M) and dF/dM for the mask held by ``ctx``.

        Returns:
            ``(value, gradient)`` with the gradient shaped like the mask.
        """

    def value(self, ctx: ForwardContext) -> float:
        """Objective value only (default: discards the gradient)."""
        return self.value_and_gradient(ctx)[0]


class ImagingObjective(Objective):
    """An objective whose gradient flows through the imaging adjoint.

    Every MOSAIC data term (EPE, image difference, PV band) has the same
    gradient structure: a scalar value plus one intensity-space gradient
    ``dF/dI_eff`` per evaluated process corner, all back-projected
    through the resist-diffusion and SOCS adjoints.  Splitting the
    interface at that seam lets the composite objective merge *every*
    term's contributions into one adjoint pass per focus instead of one
    back-projection per (term x corner), and run each focus's share of
    the terms as one task on the engine threads.

    Subclasses implement :meth:`required_corners` and
    :meth:`corner_contribution`; :meth:`intensity_contributions`,
    :meth:`value_and_gradient` and :meth:`value` come for free.
    """

    @abstractmethod
    def required_corners(self, ctx: ForwardContext) -> List[ProcessCorner]:
        """Process corners this objective evaluates on ``ctx``, in order.

        Used to prefetch all corners' fields before any term runs, and
        to group the terms' corners by focus.
        """

    @abstractmethod
    def corner_contribution(
        self, ctx: ForwardContext, corner: ProcessCorner, gradient: bool = True
    ) -> Tuple[float, Optional[np.ndarray]]:
        """Value and intensity-space gradient at one required corner.

        Reads only ``ctx.soft_image(corner)`` and ``ctx.sim.resist``, and
        touches no counter, span or cache: the composite objective calls
        it inside the per-focus tasks, after the context holds that
        corner's soft image.

        Returns:
            ``(value, dF/dI_eff)``: ``I_eff`` is the post-diffusion
            intensity the resist thresholds; the corner's dose factor is
            applied by the adjoint, not by the objective.  The gradient
            is None when ``gradient`` is False.
        """

    def intensity_contributions(
        self, ctx: ForwardContext, gradient: bool = True
    ) -> Tuple[float, List[Tuple[ProcessCorner, Optional[np.ndarray]]]]:
        """Value and per-corner intensity-space gradients.

        The value sums the corners' values from ``0.0`` in corner order.

        Returns:
            ``(value, contributions)`` where each contribution is a
            ``(corner, dF/dI_eff)`` pair ready for
            :meth:`repro.opc.ForwardContext.accumulate_intensity_gradients`
            (gradients None when ``gradient`` is False).
        """
        corners = self.required_corners(ctx)
        ctx.ensure_fields(corners)
        value = 0.0
        contributions: List[Tuple[ProcessCorner, Optional[np.ndarray]]] = []
        for corner in corners:
            corner_value, df_di = self.corner_contribution(ctx, corner, gradient)
            value += corner_value
            contributions.append((corner, df_di))
        return value, contributions

    def value_and_gradient(self, ctx: ForwardContext) -> Tuple[float, np.ndarray]:
        value, contributions = self.intensity_contributions(ctx)
        return value, ctx.accumulate_intensity_gradients(contributions)

    def value(self, ctx: ForwardContext) -> float:
        """Objective value without dF/dI or the adjoint back-projection.

        Value-only evaluations (line search, final eval) don't need
        dF/dM, and the adjoint is the expensive half of an iteration.
        """
        return self.intensity_contributions(ctx, gradient=False)[0]
