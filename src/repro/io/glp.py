"""Simple text layout format ("GLP", after the contest's glp files).

Line-oriented, nm coordinates, ``#`` comments::

    CLIP <name> <x0> <y0> <x1> <y1>
    RECT <x0> <y0> <x1> <y1>
    POLY <x1> <y1> <x2> <y2> ... <xn> <yn>
    END

One CLIP per file.  RECT/POLY lines add shapes; END is optional but
recommended (it guards against truncated files).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..errors import LayoutIOError
from ..geometry.layout import Layout
from ..geometry.polygon import Polygon
from ..geometry.rect import Rect


def loads_glp(text: str) -> Layout:
    """Parse a layout from GLP text."""
    layout: Layout | None = None
    saw_end = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if saw_end:
            raise LayoutIOError(f"line {lineno}: content after END")
        parts = line.split()
        keyword = parts[0].upper()
        try:
            if keyword == "CLIP":
                if layout is not None:
                    raise LayoutIOError(f"line {lineno}: duplicate CLIP")
                if len(parts) != 6:
                    raise LayoutIOError(f"line {lineno}: CLIP needs name + 4 coords")
                name = parts[1]
                x0, y0, x1, y1 = (float(v) for v in parts[2:6])
                layout = Layout(name=name, clip=Rect(x0, y0, x1, y1))
            elif keyword == "RECT":
                if layout is None:
                    raise LayoutIOError(f"line {lineno}: RECT before CLIP")
                if len(parts) != 5:
                    raise LayoutIOError(f"line {lineno}: RECT needs 4 coords")
                x0, y0, x1, y1 = (float(v) for v in parts[1:5])
                layout.add(Rect(x0, y0, x1, y1))
            elif keyword == "POLY":
                if layout is None:
                    raise LayoutIOError(f"line {lineno}: POLY before CLIP")
                coords = [float(v) for v in parts[1:]]
                if len(coords) < 8 or len(coords) % 2:
                    raise LayoutIOError(
                        f"line {lineno}: POLY needs an even number (>= 8) of coords"
                    )
                points = list(zip(coords[0::2], coords[1::2]))
                layout.add(Polygon(points))
            elif keyword == "END":
                saw_end = True
            else:
                raise LayoutIOError(f"line {lineno}: unknown keyword {keyword!r}")
        except ValueError as exc:  # float() failures
            raise LayoutIOError(f"line {lineno}: bad number ({exc})") from exc
    if layout is None:
        raise LayoutIOError("no CLIP line found")
    return layout


def dumps_glp(layout: Layout) -> str:
    """Serialize a layout to GLP text (all shapes as POLY lines)."""
    clip = layout.clip
    lines = [
        f"# GLP layout: {layout.name}",
        f"CLIP {layout.name} {clip.x0:g} {clip.y0:g} {clip.x1:g} {clip.y1:g}",
    ]
    for poly in layout.polygons:
        coords = " ".join(f"{x:g} {y:g}" for x, y in poly.vertices)
        lines.append(f"POLY {coords}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def read_glp(path: Union[str, Path]) -> Layout:
    """Read a layout from a GLP file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise LayoutIOError(f"cannot read {path}: {exc}") from exc
    return loads_glp(text)


def write_glp(layout: Layout, path: Union[str, Path]) -> None:
    """Write a layout to a GLP file."""
    Path(path).write_text(dumps_glp(layout))
