"""Deterministic SVG pictures of configurations, orbits and cycle polygons.

All decisions happen upstream in exact arithmetic; this module converts to
floats at the last moment, formats every number with 12 significant digits
and assembles the document in a fixed order, so identical inputs give
byte-identical output.  Orbit dots and cycle polygons arrive as canonical
integer triples (X, Y, W) and each coordinate is drawn as X / W; orbit
dots are drawn in the order the caller gives them, which is why they are
taken as a sequence, not a set.  A cycle polygon is the chain of the
witness word that `classify` checks (`classify._closed_chain`), so its
triples stay near the size of the homologies.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .action import Config, is_cycle
from .classify import _closed_chain
from .geometry import Triple
from .words import Signature

__all__ = ["render_svg", "cycle_polygon", "UnverifiedCycle", "OutOfFloatRange"]


class UnverifiedCycle(ValueError):
    """Refusing to draw a polygon for a vector that is not an exact cycle."""


class OutOfFloatRange(ValueError):
    """The picture needs a number that a float cannot hold: one beyond the
    float range, or a positive length that rounds to zero."""


_BEYOND = "a coordinate of the picture is beyond the float range"


def _float(x) -> float:
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise OutOfFloatRange(_BEYOND)
    return f


def _num(x) -> str:
    return format(_float(x), ".12g")


def _coords(t: Triple) -> tuple:
    """The two formatted coordinates of a triple's point.  Int true
    division X / W is correctly rounded, so it is the float of
    Fraction(X, W), and it raises OverflowError where that does; it never
    gives an infinity."""
    x, y, w = t
    try:
        return format(x / w, ".12g"), format(y / w, ".12g")
    except OverflowError:
        raise OutOfFloatRange(_BEYOND) from None


def _chord_ends(config: Config) -> Optional[tuple]:
    if len(config.points) < 2:
        return None
    a, b = config.points[:2]
    dx, dy = _float(b.x - a.x), _float(b.y - a.y)
    norm = math.hypot(dx, dy)
    if norm == 0:
        raise OutOfFloatRange("the interior points are too close together for a float")
    dx, dy = dx / norm, dy / norm
    ax = _float(a.x - config.circle.center.x)
    ay = _float(a.y - config.circle.center.y)
    m = ax * dx + ay * dy
    disc = math.sqrt(max(m * m - (ax * ax + ay * ay - _float(config.circle.radius_sq)), 0.0))
    cx, cy = _float(config.circle.center.x), _float(config.circle.center.y)
    px, py = cx + ax, cy + ay
    return ((px + (-m - disc) * dx, py + (-m - disc) * dy),
            (px + (-m + disc) * dx, py + (-m + disc) * dy))


def cycle_polygon(config: Config, v: Signature) -> list:
    """The closed chain of a verified cycle from the off-line test point,
    as canonical triples (`classify._closed_chain`; `geometry.affine` gives
    the point of each).  Refuses when v is not a nonzero cycle
    (`action.is_cycle`)."""
    v = tuple(v)
    if not any(v):
        raise UnverifiedCycle("the zero vector has no cycle polygon")
    if not is_cycle(config, v):
        raise UnverifiedCycle(f"{v} is not a cycle for this configuration")
    return _closed_chain(config, v)


def render_svg(config: Config,
               orbit_points: Optional[Sequence[Triple]] = None,
               cycle_points: Optional[Sequence[Triple]] = None) -> str:
    """The configuration as SVG: circle, interior line, an optional closed
    cycle polygon (the triples of `cycle_polygon`), interior points, then
    optional orbit dots (triples, as `action.orbit` returns them sorted by
    (x, y)), kept in the caller's order.

    Raises OutOfFloatRange when a coordinate overflows a float, or when
    the radius or the spacing of the interior points underflows to zero.
    """
    r = math.sqrt(_float(config.circle.radius_sq))
    if r == 0:
        raise OutOfFloatRange("the radius is too small for a float")
    cx, cy = _float(config.circle.center.x), _float(config.circle.center.y)
    margin = 0.1 * r
    size = 2 * (r + margin)
    dot = r / 40
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_num(cx - r - margin)} '
        f'{_num(-cy - r - margin)} {_num(size)} {_num(size)}">',
        '<g transform="scale(1,-1)">',
        f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="{_num(r)}" '
        f'fill="none" stroke="black" stroke-width="{_num(r / 100)}"/>',
    ]
    ends = _chord_ends(config)
    if ends is not None:
        (x1, y1), (x2, y2) = ends
        lines.append(
            f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="gray" stroke-width="{_num(r / 200)}"/>')
    if cycle_points:
        path = " ".join("{},{}".format(*_coords(t)) for t in cycle_points)
        lines.append(
            f'<polygon points="{path}" fill="none" stroke="blue" '
            f'stroke-width="{_num(r / 150)}"/>')
    for p in config.points:
        lines.append(
            f'<circle cx="{_num(p.x)}" cy="{_num(p.y)}" r="{_num(dot)}" fill="red"/>')
    orbit_dot = _num(dot * 0.7)
    for t in orbit_points or ():
        x, y = _coords(t)
        lines.append(f'<circle cx="{x}" cy="{y}" r="{orbit_dot}" fill="green"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
