"""Layout clips: a named collection of rectilinear polygons in a clip window."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Union

from .. import constants
from ..errors import GeometryError
from .polygon import Polygon
from .rect import Rect

Shape = Union[Rect, Polygon]


@dataclass
class Layout:
    """A clip of rectilinear shapes, the unit the optimizer works on.

    Attributes:
        name: identifier (e.g. ``"B4"``).
        clip: the clip window in nanometres; shapes must lie inside it.
        polygons: the target patterns.
    """

    name: str
    clip: Rect = field(
        default_factory=lambda: Rect(0, 0, constants.CLIP_SIZE_NM, constants.CLIP_SIZE_NM)
    )
    polygons: List[Polygon] = field(default_factory=list)

    def __post_init__(self) -> None:
        for poly in self.polygons:
            self._check_inside(poly)

    def _check_inside(self, poly: Polygon) -> None:
        if not self.clip.contains_rect(poly.bbox):
            raise GeometryError(
                f"shape bbox {poly.bbox} falls outside clip {self.clip} in layout {self.name!r}"
            )

    def add(self, shape: Shape) -> None:
        """Add a polygon or rectangle to the layout."""
        poly = Polygon.from_rect(shape) if isinstance(shape, Rect) else shape
        self._check_inside(poly)
        self.polygons.append(poly)

    def extend(self, shapes: Iterable[Shape]) -> None:
        """Add several shapes."""
        for shape in shapes:
            self.add(shape)

    @classmethod
    def from_rects(cls, name: str, rects: Sequence[Rect], clip: Rect | None = None) -> "Layout":
        """Convenience constructor from a rectangle list."""
        layout = cls(name=name, clip=clip or Rect(0, 0, constants.CLIP_SIZE_NM, constants.CLIP_SIZE_NM))
        layout.extend(rects)
        return layout

    @property
    def num_shapes(self) -> int:
        return len(self.polygons)

    @property
    def pattern_area(self) -> float:
        """Total drawn area in nm^2 (shapes assumed non-overlapping)."""
        return sum(poly.area for poly in self.polygons)

    @property
    def total_perimeter(self) -> float:
        """Sum of all shape perimeters in nm."""
        return sum(poly.perimeter for poly in self.polygons)

    def bbox(self) -> Rect | None:
        """Bounding box of all shapes, or None for an empty layout."""
        if not self.polygons:
            return None
        boxes = [p.bbox for p in self.polygons]
        return Rect(
            min(b.x0 for b in boxes),
            min(b.y0 for b in boxes),
            max(b.x1 for b in boxes),
            max(b.y1 for b in boxes),
        )

    def contains_point(self, x: float, y: float) -> bool:
        """True if the point lies inside any shape."""
        return any(p.contains_point(x, y) for p in self.polygons)

    def translated(self, dx: float, dy: float) -> "Layout":
        """A copy with every shape shifted (clip unchanged)."""
        moved = Layout(name=self.name, clip=self.clip)
        moved.extend(p.translated(dx, dy) for p in self.polygons)
        return moved

    def clip_to(self, bbox: Rect, name: str | None = None) -> "Layout":
        """Extract the window ``bbox`` as a standalone layout.

        Every polygon is intersected with ``bbox`` (concave shapes may
        split into several pieces; shapes outside the window vanish) and
        the result is re-based so the new layout's clip is
        ``(0, 0, bbox.width, bbox.height)`` — ready to rasterize or feed
        to a solver as an independent cell.
        """
        from .clipping import clip_polygon_to_rect

        window = Layout(
            name=name if name is not None else f"{self.name}[{bbox.x0:g},{bbox.y0:g}]",
            clip=Rect(0.0, 0.0, bbox.width, bbox.height),
        )
        for poly in self.polygons:
            for piece in clip_polygon_to_rect(poly, bbox):
                window.add(piece.translated(-bbox.x0, -bbox.y0))
        return window
