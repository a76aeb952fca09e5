"""Process-window objective F_pvb (paper Sec. 3.4, Eq. 18).

The PV band itself needs boolean operations over per-corner printed
images (paper Fig. 4) and is not differentiable; the paper instead
minimizes the summed quadratic difference between every corner's printed
image and the target,

    F_pvb = sum_{p corners} sum_{x,y} ( Z_p(x, y) - Z_t(x, y) )^2 ,

which pulls both the innermost and outermost printed edges toward the
target and thereby shrinks the band.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...errors import OptimizationError
from ...process.corners import ProcessCorner
from ..state import ForwardContext
from .base import ImagingObjective, validated_weight


class PVBandObjective(ImagingObjective):
    """Quadratic image error summed over process corners.

    Args:
        target: binary target image Z_t.
        corners: process conditions to include.  Defaults to the
            simulator's non-nominal corners (the nominal condition is the
            design-target term's job).
        normalize: divide by pixel count for grid-size independence.
        weight: optional per-pixel penalty weight (target-shaped,
            non-negative); zero excludes a pixel from the objective.
    """

    def __init__(
        self,
        target: np.ndarray,
        corners: Optional[Sequence[ProcessCorner]] = None,
        normalize: bool = False,
        weight: Optional[np.ndarray] = None,
    ) -> None:
        self.target = np.asarray(target, dtype=np.float64)
        self._corners = list(corners) if corners is not None else None
        self.normalize = normalize
        self.weight = validated_weight(weight, self.target.shape)

    def corners_for(self, ctx: ForwardContext) -> List[ProcessCorner]:
        """The corner set actually evaluated (resolved lazily from ctx)."""
        if self._corners is not None:
            return self._corners
        return [c for c in ctx.sim.corners() if not c.is_nominal]

    def required_corners(self, ctx: ForwardContext) -> List[ProcessCorner]:
        corners = self.corners_for(ctx)
        if not corners:
            raise OptimizationError("PVBandObjective needs at least one process corner")
        return corners

    def corner_contribution(
        self, ctx: ForwardContext, corner: ProcessCorner, gradient: bool = True
    ) -> Tuple[float, Optional[np.ndarray]]:
        if ctx.mask.shape != self.target.shape:
            raise OptimizationError(
                f"mask {ctx.mask.shape} vs target {self.target.shape} shape mismatch"
            )
        scale = 1.0 / self.target.size if self.normalize else 1.0
        z = ctx.soft_image(corner)
        diff = z - self.target
        penalty = diff**2 if self.weight is None else self.weight * diff**2
        value = float(np.sum(penalty)) * scale
        if not gradient:
            return value, None
        dz_di = ctx.sim.resist.soft_derivative(z)
        df_di = scale * 2.0 * diff * dz_di
        if self.weight is not None:
            df_di = df_di * self.weight
        return value, df_di
