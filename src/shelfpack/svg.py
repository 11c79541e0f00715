"""Deterministic SVG rendering of placements.

The drawing shows each disk as a circle tangent to a baseline from above,
dashed vertical lines at both walls, and a span label.  Output bytes are a
pure function of the placement and the scale: coordinates are formatted
with a fixed rule and nothing date- or environment-dependent is emitted.
"""

from __future__ import annotations

from .errors import DomainError
from .geometry import Placement, span

_MARGIN = 20.0
_LABEL_BAND = 24.0


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def render_svg(placement: Placement, scale: float = 40.0) -> str:
    if not isinstance(scale, (int, float)) or isinstance(scale, bool):
        raise DomainError("scale must be a number")
    scale = float(scale)
    if scale <= 0:
        raise DomainError("scale must be positive")
    report = span(placement)
    left = float(report.left_wall)
    width_world = float(report.span)
    max_radius = max(float(d.radius) for d in placement.disks)

    width = scale * width_world + 2 * _MARGIN
    baseline_y = _MARGIN + scale * 2 * max_radius
    height = baseline_y + _LABEL_BAND

    def x_of(world: float) -> float:
        return _MARGIN + scale * (world - left)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<line x1="0" y1="{_fmt(baseline_y)}" x2="{_fmt(width)}" '
        f'y2="{_fmt(baseline_y)}" stroke="black" stroke-width="1"/>',
    ]
    for wall in (float(report.left_wall), float(report.right_wall)):
        parts.append(
            f'<line x1="{_fmt(x_of(wall))}" y1="{_fmt(_MARGIN * 0.5)}" '
            f'x2="{_fmt(x_of(wall))}" y2="{_fmt(baseline_y)}" stroke="black" '
            f'stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for disk, x in placement:
        r = float(disk.radius)
        parts.append(
            f'<circle cx="{_fmt(x_of(float(x)))}" '
            f'cy="{_fmt(baseline_y - scale * r)}" r="{_fmt(scale * r)}" '
            f'fill="none" stroke="black" stroke-width="1">'
            f"<title>{disk.id}</title></circle>"
        )
    parts.append(
        f'<text x="{_fmt(width / 2)}" y="{_fmt(baseline_y + 16.0)}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">'
        f"span = {_fmt(float(report.span))}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
