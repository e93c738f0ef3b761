"""Deterministic SVG pictures of configurations, orbits and cycle polygons.

All decisions happen upstream in exact arithmetic; this module converts to
floats at the last moment, formats every number with 12 significant digits
and assembles the document in a fixed order, so identical inputs give
byte-identical output.  Orbit dots are drawn in the order the caller gives
them, which is why they are taken as a sequence, not a set.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .action import Config, is_cycle, offline_test_point
from .geometry import Point, affine, apply_homology, homogeneous
from .words import Signature, word_from_signature

__all__ = ["render_svg", "cycle_polygon", "UnverifiedCycle", "OutOfFloatRange"]


class UnverifiedCycle(ValueError):
    """Refusing to draw a polygon for a vector that is not an exact cycle."""


class OutOfFloatRange(ValueError):
    """The picture needs a number that a float cannot hold: one beyond the
    float range, or a positive length that rounds to zero."""


def _float(x) -> float:
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise OutOfFloatRange("a coordinate of the picture is beyond the float range")
    return f


def _num(x) -> str:
    return format(_float(x), ".12g")


def _chord_ends(config: Config) -> Optional[tuple]:
    if len(config.points) < 2:
        return None
    a, b = config.line()
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
    """The closed chain of a verified cycle: the deterministic off-line test
    point followed by its images under each successive reversion of the
    signature word.  Refuses when v is not an exact nonzero cycle (the zero
    vector's empty word gives no polygon)."""
    v = tuple(v)
    if not any(v):
        raise UnverifiedCycle("the zero vector has no cycle polygon")
    if not is_cycle(config, v):
        raise UnverifiedCycle(f"{v} is not a cycle for this configuration")
    chain = [homogeneous(offline_test_point(config))]
    for letter in word_from_signature(v).letters:
        chain.append(apply_homology(config.homologies[letter - 1], chain[-1]))
    return [affine(x) for x in chain]


def render_svg(config: Config,
               orbit_points: Optional[Sequence[Point]] = None,
               cycle_points: Optional[Sequence[Point]] = None) -> str:
    """The configuration as SVG: circle, interior line, an optional closed
    cycle polygon, interior points, then optional orbit dots, kept in the
    caller's order (`action.orbit` returns them sorted by (x, y)).

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
        path = " ".join(f"{_num(p.x)},{_num(p.y)}" for p in cycle_points)
        lines.append(
            f'<polygon points="{path}" fill="none" stroke="blue" '
            f'stroke-width="{_num(r / 150)}"/>')
    for p in config.points:
        lines.append(
            f'<circle cx="{_num(p.x)}" cy="{_num(p.y)}" r="{_num(dot)}" fill="red"/>')
    orbit_dot = _num(dot * 0.7)
    for p in orbit_points or ():
        lines.append(
            f'<circle cx="{_num(p.x)}" cy="{_num(p.y)}" r="{orbit_dot}" fill="green"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
