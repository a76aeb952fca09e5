"""Mask rule checking (MRC).

Free-form ILT masks must still obey the mask shop's minimum width and
spacing rules.  These checks flag the violating regions by morphology:
a figure narrower than min-width disappears under opening; a gap
narrower than min-space disappears under closing of the background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..config import GridSpec
from ..errors import GridError


@dataclass(frozen=True)
class MRCReport:
    """Mask-rule-check outcome.

    Attributes:
        min_width_nm: rule checked.
        min_space_nm: rule checked.
        width_violation_px: pixels belonging to sub-min-width figures.
        space_violation_px: background pixels inside sub-min spaces.
    """

    min_width_nm: float
    min_space_nm: float
    width_violation_px: int
    space_violation_px: int

    @property
    def clean(self) -> bool:
        return self.width_violation_px == 0 and self.space_violation_px == 0


def _structure(rule_nm: float, grid: GridSpec) -> np.ndarray | None:
    px = int(round(rule_nm / grid.pixel_nm))
    if px <= 1:
        return None
    return np.ones((px, px), dtype=bool)


def width_violations(mask: np.ndarray, grid: GridSpec, min_width_nm: float) -> np.ndarray:
    """Pixels of transmitting regions narrower than the width rule."""
    m = np.asarray(mask) > 0.5
    if m.shape != grid.shape:
        raise GridError(f"mask shape {m.shape} != grid {grid.shape}")
    structure = _structure(min_width_nm, grid)
    if structure is None:
        return np.zeros_like(m)
    survives = ndimage.binary_opening(m, structure=structure)
    return m & ~survives


def space_violations(mask: np.ndarray, grid: GridSpec, min_space_nm: float) -> np.ndarray:
    """Background pixels inside gaps narrower than the spacing rule."""
    m = np.asarray(mask) > 0.5
    if m.shape != grid.shape:
        raise GridError(f"mask shape {m.shape} != grid {grid.shape}")
    structure = _structure(min_space_nm, grid)
    if structure is None:
        return np.zeros_like(m)
    # Pad with background so the clip border never creates false gaps.
    pad = structure.shape[0]
    padded = np.pad(m, pad, mode="constant", constant_values=False)
    closed = ndimage.binary_closing(padded, structure=structure)
    gaps = closed & ~padded
    return gaps[pad:-pad, pad:-pad]


def check_mask_rules(
    mask: np.ndarray,
    grid: GridSpec,
    min_width_nm: float = 20.0,
    min_space_nm: float = 20.0,
) -> MRCReport:
    """Run both rules and return the violation report.

    Default rules (20 nm width/space) are loose 193i mask-scale values
    (mask features are 4x the wafer dimensions on a 4x reticle; 20 nm
    wafer scale = 80 nm mask scale).
    """
    return MRCReport(
        min_width_nm=min_width_nm,
        min_space_nm=min_space_nm,
        width_violation_px=int(width_violations(mask, grid, min_width_nm).sum()),
        space_violation_px=int(space_violations(mask, grid, min_space_nm).sum()),
    )
