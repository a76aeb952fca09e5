"""Image-difference design-target objective F_id (paper Sec. 3.3, Eq. 16).

    F_id = sum_{x,y} ( Z_nom(x, y) - Z_t(x, y) )^gamma

with even gamma (paper uses gamma = 4; gamma = 2 recovers the classic
quadratic ILT objective of refs [9, 12]).  Larger gamma concentrates the
penalty on large local errors, which the paper reports trades better
against the PV-band term during co-optimization.

Gradient (paper Eq. 17, generalized to the full SOCS kernel sum):

    dF/dM = gamma * theta_Z * Backproject( (Z-Z_t)^(gamma-1) Z (1-Z) )

where Backproject is the adjoint imaging operator implemented in
:func:`repro.optics.hopkins.backproject_fields`.  The paper's printed
Eq. 17 uses a single combined kernel H_nom (its Eq. 21 speedup); the
full-sum adjoint here is the exact version, and the combined-kernel
variant is available through the simulator's kernel modes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ... import constants
from ...errors import OptimizationError
from ...process.corners import ProcessCorner
from ..state import ForwardContext
from .base import ImagingObjective, validated_weight


class ImageDifferenceObjective(ImagingObjective):
    """gamma-power nominal-image error against a target image.

    Args:
        target: binary target image Z_t.
        gamma: even integer exponent (paper: 4).
        normalize: divide by the pixel count so values are grid-size
            independent (weights alpha/beta then transfer across scales).
        weight: optional per-pixel penalty weight (target-shaped,
            non-negative).  Zero weight excludes a pixel from the
            objective entirely — the tiled full-chip engine uses this to
            confine the penalty to the region where a window's periodic
            image is physically valid.
    """

    def __init__(
        self,
        target: np.ndarray,
        gamma: float = constants.GAMMA_FAST,
        normalize: bool = False,
        weight: Optional[np.ndarray] = None,
    ) -> None:
        if gamma < 2 or int(gamma) != gamma or int(gamma) % 2:
            raise OptimizationError(f"gamma must be a positive even integer, got {gamma}")
        self.target = np.asarray(target, dtype=np.float64)
        self.gamma = int(gamma)
        self.normalize = normalize
        self.weight = validated_weight(weight, self.target.shape)

    def required_corners(self, ctx: ForwardContext) -> List[ProcessCorner]:
        return [ctx.nominal]

    def corner_contribution(
        self, ctx: ForwardContext, corner: ProcessCorner, gradient: bool = True
    ) -> Tuple[float, Optional[np.ndarray]]:
        if ctx.mask.shape != self.target.shape:
            raise OptimizationError(
                f"mask {ctx.mask.shape} vs target {self.target.shape} shape mismatch"
            )
        z = ctx.soft_image(corner)
        diff = z - self.target
        scale = 1.0 / diff.size if self.normalize else 1.0
        penalty = diff**self.gamma
        if self.weight is not None:
            penalty = penalty * self.weight
        value = float(np.sum(penalty)) * scale
        if not gradient:
            return value, None

        # dF/dI = gamma * diff^(gamma-1) * dZ/dI, with dZ/dI = theta_Z Z (1-Z).
        dz_di = ctx.sim.resist.soft_derivative(z)
        df_di = scale * self.gamma * diff ** (self.gamma - 1) * dz_di
        if self.weight is not None:
            df_di = df_di * self.weight
        return value, df_di
