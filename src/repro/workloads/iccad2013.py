"""Synthetic stand-ins for the ten IBM ICCAD-2013 contest clips.

The real benchmarks are 1024 x 1024 nm clips of 32 nm M1 layout,
"representing the most challenging shapes to print".  These ten
deterministic clips span the same difficulty axes:

* isolated vs dense features (process-window stress),
* jogs, T/U/L bends and line ends (EPE stress),
* contact-like squares (corner rounding),
* mixed-density composites (SRAF placement interactions),

with pattern areas growing from B1 (one isolated line) to B10 (a dense
composite), mirroring the area spread of Table 2 in the paper.
"""

from __future__ import annotations

from typing import Dict

from ..errors import GeometryError
from ..geometry.layout import Layout
from .generator import (
    comb_structure,
    contact_array,
    isolated_line,
    jog_line,
    l_shape,
    line_grating,
    t_shape,
    u_shape,
)

BENCHMARK_NAMES = tuple(f"B{i}" for i in range(1, 11))


def _b1() -> Layout:
    """Single isolated horizontal line — baseline printability."""
    layout = Layout("B1")
    layout.add(isolated_line(260, 480, width=72, length=500))
    return layout


def _b2() -> Layout:
    """Two isolated lines of different widths, perpendicular orientations."""
    layout = Layout("B2")
    layout.add(isolated_line(150, 320, width=64, length=540))
    layout.add(isolated_line(620, 480, width=88, length=420, vertical=True))
    return layout


def _b3() -> Layout:
    """Dense five-line grating — pitch-limited imaging."""
    layout = Layout("B3")
    layout.extend(line_grating(210, 230, num_lines=5, width=60, pitch=140, length=600))
    return layout


def _b4() -> Layout:
    """T-shape against a neighbouring bar (the paper's Fig. 5 upper row)."""
    layout = Layout("B4")
    layout.add(t_shape(240, 260, bar=440, stem=300, width=76))
    layout.add(isolated_line(240, 680, width=64, length=440))
    return layout


def _b5() -> Layout:
    """U-shape with an enclosed bar — enclosed spaces stress the band."""
    layout = Layout("B5")
    layout.add(u_shape(260, 220, span=420, height=380, width=80))
    layout.add(isolated_line(380, 420, width=60, length=180))
    layout.add(isolated_line(260, 700, width=64, length=420))
    return layout


def _b6() -> Layout:
    """Jogged wires (the paper's Fig. 5 lower row) — jog corners are the
    classic EPE hotspot."""
    layout = Layout("B6")
    layout.add(jog_line(160, 240, length=660, width=72, jog_offset=120, jog_at=0.45))
    layout.add(jog_line(160, 560, length=660, width=72, jog_offset=140, jog_at=0.6))
    return layout


def _b7() -> Layout:
    """Contact-like square array — isolated 2-D features."""
    layout = Layout("B7")
    layout.extend(contact_array(220, 220, nx=3, ny=3, size=90, pitch=240))
    return layout


def _b8() -> Layout:
    """Comb structure — many line ends at fixed pitch."""
    layout = Layout("B8")
    layout.add(
        comb_structure(
            220, 220, num_fingers=4, finger_length=380, finger_width=70,
            finger_pitch=170, spine_width=90,
        )
    )
    return layout


def _b9() -> Layout:
    """Mixed density: dense grating beside isolated bends."""
    layout = Layout("B9")
    layout.extend(line_grating(140, 160, num_lines=4, width=60, pitch=130, length=380))
    layout.add(l_shape(620, 160, arm=300, width=72))
    layout.add(isolated_line(140, 760, width=70, length=520))
    return layout


def _b10() -> Layout:
    """Large composite — the highest pattern area and shape count."""
    layout = Layout("B10")
    layout.extend(line_grating(120, 130, num_lines=4, width=64, pitch=150, length=420))
    layout.add(t_shape(590, 120, bar=340, stem=220, width=70))
    layout.add(u_shape(590, 520, span=340, height=300, width=70))
    layout.add(jog_line(120, 740, length=420, width=66, jog_offset=110, jog_at=0.5))
    return layout


_BUILDERS = {
    "B1": _b1,
    "B2": _b2,
    "B3": _b3,
    "B4": _b4,
    "B5": _b5,
    "B6": _b6,
    "B7": _b7,
    "B8": _b8,
    "B9": _b9,
    "B10": _b10,
}


def load_benchmark(name: str) -> Layout:
    """Build one benchmark clip by name (``"B1"`` ... ``"B10"``)."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise GeometryError(
            f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARK_NAMES)}"
        ) from None


def load_all_benchmarks() -> Dict[str, Layout]:
    """All ten clips, keyed by name, in contest order."""
    return {name: load_benchmark(name) for name in BENCHMARK_NAMES}
