"""Stitching tile masks into one full-chip mask, plus seam diagnostics.

Stitching itself is deterministic halo cropping: each tile contributes
exactly its core pixels, cores partition the chip, so assembly is a pure
array copy.  The interesting part is *verifying* the seams:

* **Mask deltas** — a tile's window extends into its neighbours' cores,
  so for every adjacent pair there is a strip of pixels that both tiles
  optimized.  The stitched mask keeps the owning core's values; the
  neighbour's opinion about the same pixels is a direct measure of how
  consistently the two tiles converged.  ``max |ΔM|`` over every seam
  strip is reported per seam pair.
* **Seam EPE** — printed-contour quality where it can actually go wrong:
  EPE measured on the stitched mask's printed image, restricted to
  sample points within a band around the internal seam lines.

Both live in a :class:`SeamReport` that renders through the shared
:class:`repro.tables.TextTable` machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import GridSpec
from ..errors import FullChipError
from ..geometry.layout import Layout
from ..metrics.epe import EPEReport, measure_epe
from ..tables import ColumnSpec, TextTable, write_csv_rows
from .tiling import TilePlan, TileSpec

TileIndex = Tuple[int, int]


def _window_row_range(tile: TileSpec) -> Tuple[int, int]:
    """Chip pixel rows covered by the tile's window."""
    return (tile.core_rows[0] - tile.halo_px, tile.core_rows[1] + tile.halo_px)


def _window_col_range(tile: TileSpec) -> Tuple[int, int]:
    return (tile.core_cols[0] - tile.halo_px, tile.core_cols[1] + tile.halo_px)


def stitch_masks(plan: TilePlan, masks: Dict[TileIndex, np.ndarray]) -> np.ndarray:
    """Assemble per-tile window masks into the full-chip mask.

    Args:
        plan: the tile plan.
        masks: window-shaped mask per tile index; every tile of the plan
            must be present (the engine substitutes fallbacks for failed
            tiles before stitching).

    Returns:
        Full-chip mask of shape ``plan.chip_shape_px``.
    """
    full = np.zeros(plan.chip_shape_px, dtype=np.float64)
    for tile in plan:
        mask = masks.get(tile.index)
        if mask is None:
            raise FullChipError(f"no mask for tile {tile.index}; cannot stitch")
        if mask.shape != tile.window_shape:
            raise FullChipError(
                f"tile {tile.index} mask shape {mask.shape} != window "
                f"{tile.window_shape}"
            )
        rs, cs = tile.core_slices_in_window()
        full[
            tile.core_rows[0] : tile.core_rows[1],
            tile.core_cols[0] : tile.core_cols[1],
        ] = mask[rs, cs]
    return full


@dataclass(frozen=True)
class SeamDelta:
    """Mask disagreement across one seam.

    Attributes:
        a_index, b_index: the adjacent tile pair.
        max_abs_delta: max |ΔM| over the pixels both windows cover
            (each tile's opinion vs. the stitched/owning values).
        mean_abs_delta: mean |ΔM| over the same pixels.
        num_pixels: size of the compared strip.
    """

    a_index: TileIndex
    b_index: TileIndex
    max_abs_delta: float
    mean_abs_delta: float
    num_pixels: int


def _overlap_delta(
    tile: TileSpec, mask: np.ndarray, stitched: np.ndarray, region: Tuple[int, int, int, int]
) -> Optional[np.ndarray]:
    """|tile's window values - stitched values| over a chip-pixel region."""
    r_lo, r_hi, c_lo, c_hi = region
    w_rows = _window_row_range(tile)
    w_cols = _window_col_range(tile)
    r_lo, r_hi = max(r_lo, w_rows[0]), min(r_hi, w_rows[1])
    c_lo, c_hi = max(c_lo, w_cols[0]), min(c_hi, w_cols[1])
    # Clamp to the chip: window margins beyond the chip have no stitched
    # counterpart to disagree with.
    rows, cols = stitched.shape
    r_lo, r_hi = max(r_lo, 0), min(r_hi, rows)
    c_lo, c_hi = max(c_lo, 0), min(c_hi, cols)
    if r_lo >= r_hi or c_lo >= c_hi:
        return None
    window_part = mask[
        r_lo - w_rows[0] : r_hi - w_rows[0], c_lo - w_cols[0] : c_hi - w_cols[0]
    ]
    return np.abs(window_part - stitched[r_lo:r_hi, c_lo:c_hi])


def seam_mask_deltas(
    plan: TilePlan, masks: Dict[TileIndex, np.ndarray], stitched: np.ndarray
) -> List[SeamDelta]:
    """Per-seam mask disagreement between every adjacent tile pair.

    For pair (A, B): A's window values over B's core and B's window
    values over A's core are both compared against the stitched mask
    (which holds the owning core's values); the two strips are pooled
    into one seam statistic.
    """
    deltas: List[SeamDelta] = []
    for a, b in plan.neighbors():
        strips = []
        for tile, other in ((a, b), (b, a)):
            mask = masks.get(tile.index)
            if mask is None:
                continue
            region = (
                other.core_rows[0], other.core_rows[1],
                other.core_cols[0], other.core_cols[1],
            )
            strip = _overlap_delta(tile, mask, stitched, region)
            if strip is not None:
                strips.append(strip.ravel())
        if not strips:
            continue
        pooled = np.concatenate(strips)
        deltas.append(
            SeamDelta(
                a_index=a.index,
                b_index=b.index,
                max_abs_delta=float(pooled.max()),
                mean_abs_delta=float(pooled.mean()),
                num_pixels=int(pooled.size),
            )
        )
    return deltas


def seam_lines(plan: TilePlan) -> Tuple[List[float], List[float]]:
    """Internal seam coordinates ``(vertical_x_nm, horizontal_y_nm)``.

    Coordinates are relative to the chip's lower-left corner (matching a
    re-based layout rasterized from origin).
    """
    xs = sorted(
        {tile.core_cols[0] * plan.pixel_nm for tile in plan if tile.core_cols[0] > 0}
    )
    ys = sorted(
        {tile.core_rows[0] * plan.pixel_nm for tile in plan if tile.core_rows[0] > 0}
    )
    return xs, ys


def filter_report_near_seams(
    report: EPEReport, plan: TilePlan, band_nm: float
) -> EPEReport:
    """Restrict an EPE report to samples within ``band_nm`` of a seam."""
    xs, ys = seam_lines(plan)

    def near(m) -> bool:
        dx = min((abs(m.sample.x - x) for x in xs), default=float("inf"))
        dy = min((abs(m.sample.y - y) for y in ys), default=float("inf"))
        return min(dx, dy) <= band_nm

    return EPEReport(
        measurements=[m for m in report.measurements if near(m)],
        threshold_nm=report.threshold_nm,
    )


@dataclass
class SeamReport:
    """Seam-consistency diagnostics of one stitched full-chip mask.

    Attributes:
        deltas: per-seam mask disagreements.
        seam_epe: EPE report restricted to the seam band (None when the
            plan has no internal seams or no samples fell in the band).
        band_nm: half-width of the seam band used for the EPE filter.
    """

    deltas: List[SeamDelta]
    seam_epe: Optional[EPEReport]
    band_nm: float

    @property
    def max_abs_mask_delta(self) -> float:
        """Worst mask disagreement over every seam (0 for a 1-tile plan)."""
        return max((d.max_abs_delta for d in self.deltas), default=0.0)

    @property
    def seam_epe_violations(self) -> int:
        return self.seam_epe.num_violations if self.seam_epe else 0

    @property
    def seam_epe_samples(self) -> int:
        return self.seam_epe.num_samples if self.seam_epe else 0

    @property
    def max_abs_seam_epe_nm(self) -> Optional[float]:
        if not self.seam_epe or not self.seam_epe.measurements:
            return None
        values = [abs(m.epe_nm) for m in self.seam_epe.measurements if m.epe_nm is not None]
        return max(values) if values else None

    def format_table(self) -> str:
        """Per-seam text table plus a summary line."""
        table = TextTable(
            [
                ColumnSpec("seam", 16, "<"),
                ColumnSpec("pixels", 8),
                ColumnSpec("max|dM|", 12),
                ColumnSpec("mean|dM|", 12),
            ]
        )
        for d in self.deltas:
            table.add_row(
                [
                    f"{d.a_index}-{d.b_index}",
                    str(d.num_pixels),
                    f"{d.max_abs_delta:.3e}",
                    f"{d.mean_abs_delta:.3e}",
                ]
            )
        epe_part = (
            f"seam EPE: {self.seam_epe_violations} violation(s) over "
            f"{self.seam_epe_samples} sample(s) within {self.band_nm:g} nm of a seam"
        )
        max_epe = self.max_abs_seam_epe_nm
        if max_epe is not None:
            epe_part += f", max |EPE| {max_epe:.2f} nm"
        return table.render() + "\n" + epe_part

    def to_csv(self, path) -> None:
        """One CSV row per seam (summary stats embedded as final rows)."""
        rows: List[List[object]] = [
            [f"{d.a_index}-{d.b_index}", d.num_pixels,
             f"{d.max_abs_delta:.6e}", f"{d.mean_abs_delta:.6e}"]
            for d in self.deltas
        ]
        rows.append(["seam_epe_violations", self.seam_epe_violations, "", ""])
        rows.append(["seam_epe_samples", self.seam_epe_samples, "", ""])
        write_csv_rows(path, ["seam", "pixels", "max_abs_dm", "mean_abs_dm"], rows)


def build_seam_report(
    plan: TilePlan,
    masks: Dict[TileIndex, np.ndarray],
    stitched: np.ndarray,
    printed: Optional[np.ndarray] = None,
    layout: Optional[Layout] = None,
    grid: Optional[GridSpec] = None,
) -> SeamReport:
    """Assemble the full seam-consistency report.

    Args:
        plan: the tile plan.
        masks: per-tile window masks (tiles may be missing; their seams
            are skipped in the delta list).
        stitched: the assembled full-chip mask.
        printed: optional nominal printed image of the stitched mask;
            enables the seam-EPE section.
        layout: the re-based full-chip layout (required with ``printed``).
        grid: the full-chip grid (required with ``printed``).

    The seam band is 4 pixels wide on each side of a seam.
    """
    band = 4.0 * plan.pixel_nm
    deltas = seam_mask_deltas(plan, masks, stitched)
    seam_epe: Optional[EPEReport] = None
    if printed is not None:
        if layout is None or grid is None:
            raise FullChipError("seam EPE needs the layout and grid alongside printed")
        full_report = measure_epe(printed, layout, grid)
        seam_epe = filter_report_near_seams(full_report, plan, band)
    return SeamReport(deltas=deltas, seam_epe=seam_epe, band_nm=band)
