"""Deterministic SVG rendering of placements.

The drawing shows each disk as a circle tangent to a baseline from above,
dashed vertical lines at both walls, and a span label.  Output bytes are a
pure function of the placement and the scale: coordinates are formatted
with a fixed rule and nothing date- or environment-dependent is emitted.
A placement whose drawing leaves the float range is a
:class:`DomainError`, never an ``inf`` or ``nan`` in the file.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .geometry import Placement, span
from .scalars import _lifted_floats

_MARGIN = 20.0
_LABEL_BAND = 24.0
_OUT_OF_RANGE = "the drawing of this placement leaves the float range"
_CIRCLE = (
    '<circle cx="%.12g" cy="%.12g" r="%.12g" fill="none" stroke="black" '
    'stroke-width="1"><title>%s</title></circle>'
)


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise DomainError(_OUT_OF_RANGE)
    return f"{value:.12g}"


def render_svg(placement: Placement, scale: float = 40.0) -> str:
    if not isinstance(scale, (int, float)) or isinstance(scale, bool):
        raise DomainError("scale must be a number")
    scale = float(scale)
    if not 0 < scale < math.inf:
        raise DomainError(f"scale must be positive and finite, got {scale}")
    report = span(placement)
    sizes, lifted, c, back = placement._lift
    try:
        left, right = float(report.left_wall), float(report.right_wall)
        width_world = float(report.span)
        radii = _lifted_floats([c * s * s for s in sizes], back)
        feet = _lifted_floats(lifted, back)
    except OverflowError:  # an exact value beyond the float range
        raise DomainError(_OUT_OF_RANGE) from None
    max_radius = max(radii)

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
    for wall in (left, right):
        parts.append(
            f'<line x1="{_fmt(x_of(wall))}" y1="{_fmt(_MARGIN * 0.5)}" '
            f'x2="{_fmt(x_of(wall))}" y2="{_fmt(baseline_y)}" stroke="black" '
            f'stroke-width="1" stroke-dasharray="4 3"/>'
        )
    # Rounding is monotone, so every circle stays within values checked
    # above: margin <= cx <= the right wall's x, and r and cy lie in
    # [0, baseline_y].  The circles need no check per value.
    circles = (
        _CIRCLE % (_MARGIN + scale * (x - left), baseline_y - r, r, disk_id)
        for disk_id, x, r in zip(placement._ids, feet, map(scale.__mul__, radii))
    )
    parts.extend(circles)
    parts.append(
        f'<text x="{_fmt(width / 2)}" y="{_fmt(baseline_y + 16.0)}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">'
        f"span = {_fmt(width_world)}</text>"
    )
    # the closing newline joins in too: one copy of the drawing, not two
    parts += ["</svg>", ""]
    return "\n".join(parts)
