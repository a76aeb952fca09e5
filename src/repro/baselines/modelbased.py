"""Forward model-based OPC with edge fragmentation and movement.

The conventional OPC of the paper's introduction (ref [2]): target edges
are split into fragments, each fragment's placement error is measured on
a simulated printed image, and the fragment's mask edge is moved against
the error.  Repeat until EPE stops improving or the move budget is spent.

The solution space is edge offsets only — no SRAFs, no pixel freedom —
which is exactly the limitation ILT removes; this baseline quantifies
that gap in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import constants
from ..config import LithoConfig
from ..geometry.edges import Edge, EdgeOrientation, extract_edges
from ..geometry.layout import Layout
from ..geometry.contours import edge_displacement
from ..geometry.raster import rasterize_layout
from ..litho.simulator import LithographySimulator
from ..metrics.score import contest_score
from ..opc.history import IterationRecord, OptimizationHistory
from ..opc.mosaic import MosaicResult
from ..opc.optimizer import OptimizationResult
from ..utils.timer import Timer


@dataclass
class _Fragment:
    """One movable edge fragment with its current bias."""

    orientation: EdgeOrientation
    fixed: float  # nm, the target edge position
    lo: float
    hi: float
    interior_sign: int
    bias_nm: float = 0.0  # positive = moved outward

    def center(self) -> float:
        return (self.lo + self.hi) / 2.0


def _fragment_edges(edges: List[Edge], fragment_nm: float) -> List[_Fragment]:
    """Split edges into fragments no longer than ``fragment_nm``."""
    fragments: List[_Fragment] = []
    for edge in edges:
        count = max(int(np.ceil(edge.length / fragment_nm)), 1)
        width = edge.length / count
        for i in range(count):
            fragments.append(
                _Fragment(
                    orientation=edge.orientation,
                    fixed=edge.fixed,
                    lo=edge.lo + i * width,
                    hi=edge.lo + (i + 1) * width,
                    interior_sign=edge.interior_sign,
                )
            )
    return fragments


class ModelBasedOPC:
    """Edge-fragmentation / edge-movement OPC baseline.

    Args:
        litho_config: lithography stack configuration.
        fragment_nm: fragment length (classic recipe: ~= EPE sample
            spacing, 40 nm).
        max_iterations: feedback iterations.
        feedback_gain: fraction of the measured EPE corrected per
            iteration (under-relaxation stabilizes dense layouts).
        max_move_nm: fragment movement budget in either direction.
        simulator: optional shared simulator.
    """

    mode_name = "ModelBasedOPC"

    def __init__(
        self,
        litho_config: Optional[LithoConfig] = None,
        fragment_nm: float = constants.EPE_SAMPLE_SPACING_NM,
        max_iterations: int = 10,
        feedback_gain: float = 0.7,
        max_move_nm: float = 40.0,
        simulator: Optional[LithographySimulator] = None,
    ) -> None:
        self.litho_config = litho_config or LithoConfig.paper()
        self.sim = simulator or LithographySimulator(self.litho_config)
        self.fragment_nm = fragment_nm
        self.max_iterations = max_iterations
        self.feedback_gain = feedback_gain
        self.max_move_nm = max_move_nm

    # -- mask construction ----------------------------------------------------

    def _strip_box(self, frag: _Fragment) -> Optional[tuple]:
        """Pixel box (i0, i1, j0, j1) covered by a fragment's bias strip."""
        if frag.bias_nm == 0.0:
            return None
        grid = self.sim.grid
        dx = grid.pixel_nm
        rows, cols = grid.shape
        outward = -frag.interior_sign
        if frag.bias_nm > 0:  # strip on the outward side of the edge
            n_lo = frag.fixed + min(outward * frag.bias_nm, 0.0)
            n_hi = frag.fixed + max(outward * frag.bias_nm, 0.0)
        else:  # strip on the interior side (to be erased)
            inward = frag.interior_sign
            n_lo = frag.fixed + min(inward * -frag.bias_nm, 0.0)
            n_hi = frag.fixed + max(inward * -frag.bias_nm, 0.0)

        def span(lo: float, hi: float, n: int) -> tuple:
            return max(int(np.floor(lo / dx)), 0), min(int(np.ceil(hi / dx)), n)

        if frag.orientation is EdgeOrientation.HORIZONTAL:
            i0, i1 = span(n_lo, n_hi, rows)
            j0, j1 = span(frag.lo, frag.hi, cols)
        else:
            i0, i1 = span(frag.lo, frag.hi, rows)
            j0, j1 = span(n_lo, n_hi, cols)
        if i0 >= i1 or j0 >= j1:
            return None
        return (i0, i1, j0, j1)

    def build_mask(self, target: np.ndarray, fragments: List[_Fragment]) -> np.ndarray:
        """Target raster with every fragment's bias strip applied.

        Erosions (negative bias) are applied before dilations so that an
        outward move of one fragment is never chewed away by its
        neighbour's inward move.
        """
        mask = target.astype(bool).copy()
        for frag in fragments:
            if frag.bias_nm < 0:
                box = self._strip_box(frag)
                if box:
                    i0, i1, j0, j1 = box
                    mask[i0:i1, j0:j1] = False
        for frag in fragments:
            if frag.bias_nm > 0:
                box = self._strip_box(frag)
                if box:
                    i0, i1, j0, j1 = box
                    mask[i0:i1, j0:j1] = True
        return mask.astype(np.float64)

    # -- feedback loop ----------------------------------------------------------

    def _measure_fragment_epe(self, printed: np.ndarray, frag: _Fragment) -> Optional[float]:
        """Signed printed-edge displacement (nm) at the fragment centre."""
        grid = self.sim.grid
        dx = grid.pixel_nm
        rows, cols = grid.shape
        # Boundary pixel just inside the *target* edge at the fragment centre.
        if frag.orientation is EdgeOrientation.HORIZONTAL:
            x = frag.center()
            y = frag.fixed + frag.interior_sign * dx / 2.0
            axis = 0
        else:
            y = frag.center()
            x = frag.fixed + frag.interior_sign * dx / 2.0
            axis = 1
        row = min(max(int(y / dx), 0), rows - 1)
        col = min(max(int(x / dx), 0), cols - 1)
        max_search = max(int(round(3.0 * self.max_move_nm / dx)), 1)
        disp_px = edge_displacement(
            printed, row, col, axis=axis, interior_sign=frag.interior_sign,
            max_search=max_search,
        )
        return None if disp_px is None else disp_px * dx

    def solve(self, layout: Layout, iteration_callback=None) -> MosaicResult:
        """Run the OPC feedback loop on one layout clip."""
        with Timer() as total:
            grid = self.sim.grid
            target = rasterize_layout(layout, grid).astype(np.float64)
            fragments: List[_Fragment] = []
            for poly in layout.polygons:
                fragments.extend(_fragment_edges(extract_edges(poly), self.fragment_nm))

            history = OptimizationHistory()
            mask = target.copy()
            for iteration in range(self.max_iterations):
                printed = self.sim.print_binary(mask)
                moved = 0.0
                for frag in fragments:
                    epe = self._measure_fragment_epe(printed, frag)
                    if epe is None:
                        # Feature missing locally: push the fragment outward.
                        delta = self.feedback_gain * self.max_move_nm / 2.0
                    else:
                        # Printed edge outside target (epe > 0): retract.
                        delta = -self.feedback_gain * epe
                    new_bias = float(
                        np.clip(frag.bias_nm + delta, -self.max_move_nm, self.max_move_nm)
                    )
                    moved += abs(new_bias - frag.bias_nm)
                    frag.bias_nm = new_bias
                mask = self.build_mask(target, fragments)
                record = IterationRecord(
                    iteration=iteration,
                    objective=moved,  # total movement: the loop's residual
                    gradient_rms=moved / max(len(fragments), 1),
                    step_size=self.feedback_gain,
                )
                if iteration_callback is not None:
                    record = iteration_callback(iteration, mask, record)
                history.append(record)
                if moved < grid.pixel_nm:  # all fragments settled
                    break

            optimization = OptimizationResult(
                mask=mask,
                binary_mask=mask,
                history=history,
                iterations=len(history),
                converged=len(history) < self.max_iterations,
                best_iteration=len(history),
                runtime_s=total.elapsed,
            )
        score = contest_score(self.sim, mask, layout, runtime_s=total.elapsed)
        return MosaicResult(
            layout_name=layout.name,
            optimization=optimization,
            score=score,
            target=target,
            runtime_s=total.elapsed,
        )
