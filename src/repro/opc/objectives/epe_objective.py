"""Exact EPE design-target objective F_epe (paper Sec. 3.2, Eqs. 9-15).

At every boundary sample point the local image error is accumulated in a
window around the sample:

    Dsum_s = sum_{k in window(s)} ( Z_nom(k) - Z_t(k) )^2          (Eq. 9-10)

The paper's window is the +/-th_epe run of pixels through the sample; we
generalize it to a rectangle extending +/-th_epe along the edge *normal*
and half the sample spacing along the edge *tangent*, normalized by the
tangential width.  Adjacent windows then tile the whole boundary, so for
a printed edge displaced by ``e`` pixels near the sample, Dsum counts
roughly ``e`` — the local EPE in pixels — while the gradient covers every
boundary pixel instead of isolated one-pixel spokes (the paper's
degenerate tangential width of one pixel is available by passing
``tangent_halfwidth_px=0``).

Thresholding Dsum at th_epe (in pixels) detects a violation (Eq. 11),
and the step is smoothed by a sigmoid so the violation count becomes
differentiable (Eq. 12):

    F_epe = sum_s sig( theta_epe * (Dsum_s - th_epe) )

Gradient (Eqs. 13-15): each sample contributes
``theta_epe * sig * (1 - sig)`` times ``d Dsum / d Z`` over its window;
accumulating those coefficients into a pixel map and back-projecting
through the resist sigmoid and the imaging adjoint yields dF/dM.  The
cost scales with |HS| + |VS| exactly as the paper notes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ... import constants
from ...config import GridSpec
from ...errors import OptimizationError
from ...geometry.edges import EdgeOrientation, SamplePoint, generate_sample_points
from ...geometry.layout import Layout
from ...process.corners import ProcessCorner
from ...utils.validation import sigmoid
from ..state import ForwardContext
from .base import ImagingObjective


class EPEObjective(ImagingObjective):
    """Differentiable EPE-violation count at target boundary samples.

    Args:
        target: binary target image Z_t.
        layout: target layout (provides boundary samples).
        grid: pixel grid.
        threshold_nm: EPE violation threshold th_epe (paper: 15 nm).
        sample_spacing_nm: boundary sample spacing (paper: 40 nm).
        theta_epe: sigmoid steepness of the violation indicator (in
            1/pixel units of Dsum).
        samples: precomputed sample points (regenerated when omitted).
        tangent_halfwidth_px: half-width of the window along the edge;
            None derives it from the sample spacing so windows tile the
            boundary; 0 reproduces the paper's one-pixel line window.
        corner: process condition the EPE is evaluated at.  The paper
            evaluates at nominal (the default); passing a corner builds
            the process-window-EPE extension (one EPEObjective per
            corner, composed with weights).
        region: optional grid-shaped mask; samples landing on zero-valued
            pixels are dropped.  The tiled full-chip engine uses this to
            confine EPE control to the region where a window's periodic
            image is physically valid.
    """

    def __init__(
        self,
        target: np.ndarray,
        layout: Layout,
        grid: GridSpec,
        threshold_nm: float = constants.EPE_THRESHOLD_NM,
        sample_spacing_nm: float = constants.EPE_SAMPLE_SPACING_NM,
        theta_epe: float = constants.THETA_EPE,
        samples: Optional[Sequence[SamplePoint]] = None,
        tangent_halfwidth_px: Optional[int] = None,
        corner: Optional[ProcessCorner] = None,
        region: Optional[np.ndarray] = None,
    ) -> None:
        self.target = np.asarray(target, dtype=np.float64)
        if self.target.shape != grid.shape:
            raise OptimizationError(
                f"target {self.target.shape} does not match grid {grid.shape}"
            )
        self.grid = grid
        self.theta_epe = theta_epe
        #: Dsum threshold in pixel units (one displaced pixel ~ one unit).
        self.threshold_px = threshold_nm / grid.pixel_nm
        if samples is None:
            samples = generate_sample_points(layout, grid, spacing_nm=sample_spacing_nm)
        if region is not None:
            region = np.asarray(region)
            if region.shape != grid.shape:
                raise OptimizationError(
                    f"region {region.shape} does not match grid {grid.shape}"
                )
            samples = [s for s in samples if region[s.row, s.col]]
        self.samples: List[SamplePoint] = list(samples)
        if not self.samples:
            raise OptimizationError(
                "layout produced no EPE sample points"
                + (" inside the objective region" if region is not None else "")
            )
        if tangent_halfwidth_px is None:
            tangent_halfwidth_px = max(
                int(round(sample_spacing_nm / grid.pixel_nm / 2.0)), 0
            )
        self.tangent_halfwidth_px = tangent_halfwidth_px
        self.corner = corner  # None = nominal condition (the paper's choice)
        self._window_flat, self._window_norm = self._build_windows()

    def _build_windows(self) -> Tuple[np.ndarray, float]:
        """Flattened-image indices of each sample's window rectangle.

        Returns ``(indices, norm)``: an ``(n_samples, window_px)`` int
        array indexing the flattened image, and the tangential width to
        normalize Dsum by.  Out-of-bounds offsets are clipped to the
        border (harmless: border pixels are empty in valid clips).
        """
        rows, cols = self.grid.shape
        half_n = max(int(round(self.threshold_px)), 1)
        normal_off = np.arange(-half_n, half_n + 1)
        half_t = self.tangent_halfwidth_px
        tangent_off = np.arange(-half_t, half_t + 1)
        idx = np.empty(
            (len(self.samples), len(normal_off) * len(tangent_off)), dtype=np.intp
        )
        for s, sample in enumerate(self.samples):
            if sample.orientation is EdgeOrientation.HORIZONTAL:
                r = np.clip(sample.row + normal_off[:, None], 0, rows - 1)
                c = np.clip(sample.col + tangent_off[None, :], 0, cols - 1)
            else:
                c = np.clip(sample.col + normal_off[:, None], 0, cols - 1)
                r = np.clip(sample.row + tangent_off[None, :], 0, rows - 1)
            idx[s] = (r * cols + c).ravel()
        return idx, float(len(tangent_off))

    @property
    def num_samples(self) -> int:
        return len(self.samples)

    def dsums(self, z_nominal: np.ndarray) -> np.ndarray:
        """Per-sample Dsum values (Eq. 9) for a nominal printed image,
        normalized by the tangential window width (units: pixels of EPE)."""
        d_flat = ((np.asarray(z_nominal, dtype=np.float64) - self.target) ** 2).ravel()
        return d_flat[self._window_flat].sum(axis=1) / self._window_norm

    def required_corners(self, ctx: ForwardContext) -> List[ProcessCorner]:
        return [self.corner if self.corner is not None else ctx.nominal]

    def corner_contribution(
        self, ctx: ForwardContext, corner: ProcessCorner, gradient: bool = True
    ) -> Tuple[float, Optional[np.ndarray]]:
        z = ctx.soft_image(corner)
        dsum = self.dsums(z)
        sig = sigmoid(dsum, self.theta_epe, self.threshold_px)
        value = float(np.sum(sig))
        if not gradient:
            return value, None

        # Eq. 14: each sample weights its window by theta_epe*sig*(1-sig);
        # scatter-add those coefficients, then chain through D and Z.
        coeff = self.theta_epe * sig * (1.0 - sig) / self._window_norm
        accum = np.zeros(self.target.size, dtype=np.float64)
        np.add.at(
            accum,
            self._window_flat.ravel(),
            np.repeat(coeff, self._window_flat.shape[1]),
        )
        accum = accum.reshape(self.target.shape)
        df_dz = accum * 2.0 * (z - self.target)
        df_di = df_dz * ctx.sim.resist.soft_derivative(z)
        return value, df_di
