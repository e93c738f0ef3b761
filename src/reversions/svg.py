"""Deterministic SVG pictures of configurations, orbits and cycle polygons.

All decisions happen upstream in exact arithmetic; this module converts to
floats at the last moment, formats every number with 12 significant digits
and assembles the document in a fixed order, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .action import Config, is_cycle, offline_test_point
from .geometry import Point, affine, apply_homology, homogeneous
from .words import Signature, word_from_signature

__all__ = ["render_svg", "cycle_polygon", "UnverifiedCycle"]


class UnverifiedCycle(ValueError):
    """Refusing to draw a polygon for a vector that is not an exact cycle."""


def _num(x) -> str:
    return format(float(x), ".12g")


def _chord_ends(config: Config) -> Optional[tuple]:
    if len(config.points) < 2:
        return None
    a, b = config.line()
    dx, dy = float(b.x - a.x), float(b.y - a.y)
    norm = math.hypot(dx, dy)
    dx, dy = dx / norm, dy / norm
    ax = float(a.x - config.circle.center.x)
    ay = float(a.y - config.circle.center.y)
    m = ax * dx + ay * dy
    disc = math.sqrt(max(m * m - (ax * ax + ay * ay - float(config.circle.radius_sq)), 0.0))
    cx, cy = float(config.circle.center.x), float(config.circle.center.y)
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
               orbit_points: Optional[Iterable[Point]] = None,
               cycle_points: Optional[Sequence[Point]] = None) -> str:
    """The configuration as SVG: circle, interior line, interior points,
    then optional orbit dots and an optional closed cycle polygon."""
    r = math.sqrt(float(config.circle.radius_sq))
    cx, cy = float(config.circle.center.x), float(config.circle.center.y)
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
    for p in sorted(orbit_points or (), key=lambda q: (q.x, q.y)):
        lines.append(
            f'<circle cx="{_num(p.x)}" cy="{_num(p.y)}" r="{_num(dot * 0.7)}" fill="green"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
