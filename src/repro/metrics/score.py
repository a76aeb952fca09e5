"""ICCAD 2013 contest scoring function (paper Eq. 22).

    Score = Runtime + 4 * PVBand + 5000 * #EPE_Violations
            + 10000 * #Shape_Violations

Lower is better.  PV band is in nm^2, runtime in seconds; the EPE and
shape weights follow the published contest scoring (the paper optimizes
its alpha/beta against this function).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from ..config import GridSpec
from ..geometry.layout import Layout
from ..geometry.raster import rasterize_layout
from ..litho.simulator import LithographySimulator
from ..process.pvband import pv_band_area
from .epe import measure_epe
from .shapes import count_shape_violations


@dataclass(frozen=True)
class ScoreBreakdown:
    """Contest score with its components.

    Attributes:
        runtime_s: optimizer wall-clock in seconds.
        pv_band_nm2: PV-band area.
        epe_violations: number of EPE violations at the nominal condition.
        shape_violations: number of holes/extra printed components.
    """

    runtime_s: float
    pv_band_nm2: float
    epe_violations: int
    shape_violations: int

    @property
    def total(self) -> float:
        """The Eq. 22 scalar score (lower is better)."""
        return (
            self.runtime_s
            + constants.SCORE_PVB_WEIGHT * self.pv_band_nm2
            + constants.SCORE_EPE_WEIGHT * self.epe_violations
            + constants.SCORE_SHAPE_WEIGHT * self.shape_violations
        )

    def __str__(self) -> str:
        return (
            f"score={self.total:.0f} (#EPE={self.epe_violations}, "
            f"PVB={self.pv_band_nm2:.0f} nm^2, shapes={self.shape_violations}, "
            f"runtime={self.runtime_s:.1f} s)"
        )


def contest_score(
    sim: LithographySimulator,
    mask: np.ndarray,
    layout: Layout,
    runtime_s: float = 0.0,
    grid: GridSpec | None = None,
) -> ScoreBreakdown:
    """Evaluate the full contest score of a mask for a layout.

    The mask is binarized and printed at every process corner from one
    batched forward: all prints give the PV band, and the nominal print
    (the first corner) gives the EPE and shape checks.

    Args:
        sim: configured simulator.
        mask: optimized mask (continuous masks are binarized first).
        layout: the design target.
        runtime_s: wall-clock seconds to charge to the score.
        grid: grid override (defaults to the simulator's grid).

    Returns:
        The component-wise breakdown; ``.total`` gives Eq. 22.
    """
    grid = grid or sim.grid
    binary = (np.asarray(mask, dtype=np.float64) > 0.5).astype(np.float64)
    with sim.obs.tracer.span("pv_band"):
        prints = sim.print_all_corners(binary)
        pv_band_nm2 = pv_band_area(prints, sim.grid.pixel_nm)
    printed = prints[0]  # corners() lists nominal first
    target = rasterize_layout(layout, grid)
    epe_report = measure_epe(printed, layout, grid)
    return ScoreBreakdown(
        runtime_s=runtime_s,
        pv_band_nm2=pv_band_nm2,
        epe_violations=epe_report.num_violations,
        shape_violations=count_shape_violations(printed, target),
    )
