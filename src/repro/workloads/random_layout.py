"""Seeded random M1-style layout generation.

Stress-testing and property-based tests need layouts beyond the ten
fixed clips.  ``random_layout`` places non-overlapping wires (straight,
L-shaped, jogged) and contact squares with spacing guarantees, all from
a seeded RNG so failures reproduce.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .. import constants
from ..errors import GeometryError
from ..geometry.layout import Layout
from ..geometry.rect import Rect
from .generator import isolated_line, jog_line, l_shape


def _bbox_of(shape) -> Rect:
    return shape if isinstance(shape, Rect) else shape.bbox


def random_layout(
    seed: int,
    num_shapes: int = 6,
    clip_nm: float = constants.CLIP_SIZE_NM,
    min_width_nm: float = 60.0,
    max_width_nm: float = 90.0,
    min_spacing_nm: float = 80.0,
    max_attempts: int = 200,
) -> Layout:
    """Generate a random non-overlapping rectilinear clip.

    Args:
        seed: RNG seed (layouts are a pure function of all arguments).
        num_shapes: target shape count; fewer are placed when the clip
            fills up before ``max_attempts`` placements fail.
        clip_nm: square clip side.
        min_width_nm, max_width_nm: wire width range.
        min_spacing_nm: guaranteed bbox-to-bbox spacing between shapes.
        max_attempts: placement attempts before giving up on a shape.

    Returns:
        Layout named ``"rand<seed>"`` with at least one shape.
    """
    if num_shapes < 1:
        raise GeometryError("num_shapes must be >= 1")
    margin = 40.0  # keep clear of the clip border
    if clip_nm < 2 * margin + 400:
        raise GeometryError(
            f"clip of {clip_nm} nm is too small to host generated shapes "
            f"(need >= {2 * margin + 400:.0f} nm)"
        )
    rng = np.random.default_rng(seed)
    layout = Layout(f"rand{seed}", clip=Rect(0, 0, clip_nm, clip_nm))
    placed_boxes: List[Rect] = []

    def fits(candidate) -> bool:
        box = _bbox_of(candidate)
        clip_inner = layout.clip.expanded(-margin)
        if not clip_inner.contains_rect(box):
            return False
        grown = box.expanded(min_spacing_nm)
        return not any(grown.intersects(other) for other in placed_boxes)

    kinds = ("line_h", "line_v", "l", "jog", "square")
    attempts = 0
    while layout.num_shapes < num_shapes and attempts < max_attempts:
        attempts += 1
        width = float(rng.uniform(min_width_nm, max_width_nm))
        x = float(rng.uniform(margin, clip_nm - margin - 200))
        y = float(rng.uniform(margin, clip_nm - margin - 200))
        kind = kinds[int(rng.integers(0, len(kinds)))]
        try:
            if kind == "line_h":
                shape = isolated_line(x, y, width=width, length=float(rng.uniform(250, 550)))
            elif kind == "line_v":
                shape = isolated_line(
                    x, y, width=width, length=float(rng.uniform(250, 550)), vertical=True
                )
            elif kind == "l":
                shape = l_shape(x, y, arm=float(rng.uniform(200, 350)), width=width)
            elif kind == "jog":
                shape = jog_line(
                    x, y,
                    length=float(rng.uniform(320, 550)),
                    width=width,
                    jog_offset=float(rng.uniform(width + 20, 150)),
                    jog_at=float(rng.uniform(0.3, 0.7)),
                )
            else:
                side = float(rng.uniform(80, 120))
                shape = Rect.from_size(x, y, side, side)
        except GeometryError:
            continue
        if fits(shape):
            layout.add(shape)
            placed_boxes.append(_bbox_of(shape))
    if layout.num_shapes == 0:
        raise GeometryError(
            f"could not place any shape in {max_attempts} attempts "
            f"(spacing {min_spacing_nm} nm too strict for clip {clip_nm} nm?)"
        )
    return layout


def random_layout_suite(
    base_seed: int, count: int, num_shapes: int = 6, **kwargs
) -> List[Layout]:
    """A reproducible list of random clips (seeds base_seed..base_seed+count-1)."""
    if count < 1:
        raise GeometryError("count must be >= 1")
    return [
        random_layout(base_seed + i, num_shapes=num_shapes, **kwargs)
        for i in range(count)
    ]
