"""Exact rational plane primitives: points, circles, chords, reversions.

Nothing here uses an epsilon.  Points have Fraction coordinates and
predicates are exact sign tests; the chord-through-a-point map (the
reversion) stays rational because one root of the line-circle quadratic is
already known.  Circles carry the squared radius so that circles with
irrational radius still have all-rational data.

Chains of reversions run in integer projective coordinates instead.  A
point is the primitive triple (X, Y, W), W > 0, of `homogeneous`; the
circle is the integer conic X^T A X = 0 of `conic`; and the reversion
through an interior point C is the harmonic homology
H = (C^T A C) I - 2 C (A C)^T, which needs no division, maps the conic to
itself and sends a conic point to the far end of its chord through C.
`apply_homology` applies one such step and renormalizes with one gcd, so
the triple stays canonical (primitive, W > 0) and can be hashed;
`sorted_triples` orders triples by their points, and `affine` converts
back to a Point exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

Rational = Union[Fraction, int]
Triple = Tuple[int, int, int]
# (q, l, C): the homology X -> q X - 2 (l . X) C of an interior point C.
Homology = Tuple[int, Triple, Triple]

__all__ = [
    "Point",
    "Circle",
    "GeometryError",
    "NotOnCircle",
    "NotInterior",
    "TangentDirection",
    "DegenerateLine",
    "on_circle",
    "in_open_disk",
    "collinear",
    "is_between",
    "reversion",
    "homogeneous",
    "affine",
    "conic",
    "homology",
    "apply_homology",
    "sorted_triples",
    "rational_circle_point",
    "line_line_intersection",
    "format_fraction",
    "parse_fraction",
    "format_point",
    "parse_point",
]


class GeometryError(ValueError):
    pass


class NotOnCircle(GeometryError):
    """A point required to lie on the circle does not."""


class NotInterior(GeometryError):
    """A point required to lie strictly inside the circle does not."""


class TangentDirection(GeometryError):
    """The requested chord direction is tangent, so the second intersection
    coincides with the base point."""


class DegenerateLine(GeometryError):
    """A line was specified by two equal points."""


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    @staticmethod
    def of(x: Rational, y: Rational) -> "Point":
        return Point(Fraction(x), Fraction(y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scale(self, k: Rational) -> "Point":
        return Point(self.x * k, self.y * k)

    def dot(self, other: "Point") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> Fraction:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y


@dataclass(frozen=True)
class Circle:
    center: Point
    radius_sq: Fraction

    def __post_init__(self):
        if self.radius_sq <= 0:
            raise GeometryError(f"squared radius must be positive, got {self.radius_sq}")

    @staticmethod
    def of(cx: Rational, cy: Rational, radius_sq: Rational) -> "Circle":
        return Circle(Point.of(cx, cy), Fraction(radius_sq))


UNIT_CIRCLE = Circle.of(0, 0, 1)


def on_circle(circle: Circle, p: Point) -> bool:
    return (p - circle.center).norm_sq() == circle.radius_sq


def in_open_disk(circle: Circle, p: Point) -> bool:
    return (p - circle.center).norm_sq() < circle.radius_sq


def collinear(a: Point, b: Point, c: Point) -> bool:
    """Exact determinant test; degenerate triples (repeated points) count
    as collinear."""
    return (b - a).cross(c - a) == 0


def is_between(a: Point, x: Point, b: Point) -> bool:
    """x lies strictly inside the open segment (a, b).

    False whenever a == b (the open segment is empty), x coincides with an
    endpoint, or the three points are not collinear.
    """
    if a == b:
        return False
    d = b - a
    r = x - a
    if d.cross(r) != 0:
        return False
    t = r.dot(d)
    return 0 < t < d.norm_sq()


def reversion(circle: Circle, center: Point, p: Point) -> Point:
    """The second endpoint of the chord of `circle` through `center` from `p`.

    With d = center - p and w = p - circle center, the chord parameter of
    the far endpoint is t = -2<w,d>/<d,d> (the root t = 0 is p itself), so
    the result is p + t d.  Because `center` is strictly interior it is
    distinct from p, t > 1, and `center` lies strictly between p and the
    result; applying the map twice gives p back.
    """
    if not on_circle(circle, p):
        raise NotOnCircle(f"{p} is not on {circle}")
    if not in_open_disk(circle, center):
        raise NotInterior(f"reversion center {center} is not interior to {circle}")
    d = center - p
    w = p - circle.center
    t = Fraction(-2) * w.dot(d) / d.norm_sq()
    return p + d.scale(t)


def homogeneous(p: Point) -> Triple:
    """The primitive integer triple (X, Y, W) with W > 0 and
    p = (X/W, Y/W); W is the least common denominator."""
    xd, yd = p.x.denominator, p.y.denominator
    w = xd // math.gcd(xd, yd) * yd
    return (p.x.numerator * (w // xd), p.y.numerator * (w // yd), w)


def affine(h: Triple) -> Point:
    """The point (X/W, Y/W) of a triple with W != 0."""
    x, y, w = h
    return Point(Fraction(x, w), Fraction(y, w))


def conic(circle: Circle) -> Tuple[Triple, Triple, Triple]:
    """The primitive symmetric integer matrix A, with A[0][0] > 0, such
    that X^T A X = 0 exactly for the homogeneous triples of the circle's
    points.

    With the center (U/Z, V/Z) and r^2 = n/d, X^T A X at (x, y, 1) is
    d Z^2 ((x - U/Z)^2 + (y - V/Z)^2 - r^2) up to the gcd, so it is
    negative exactly inside the circle.
    """
    u, v, z = homogeneous(circle.center)
    n, d = circle.radius_sq.numerator, circle.radius_sq.denominator
    a, b, e, f = d * z * z, -d * z * u, -d * z * v, d * (u * u + v * v) - n * z * z
    g = math.gcd(a, b, e, f)
    a, b, e, f = a // g, b // g, e // g, f // g
    return ((a, 0, b), (0, a, e), (b, e, f))


def homology(circle: Circle, center: Point) -> Homology:
    """The reversion through `center` as the integer harmonic homology
    H = q I - 2 C l^T, returned as (q, l, C) with C the triple of `center`,
    l = A C and q = C^T A C (both divided by their common gcd, which leaves
    the projective map unchanged).

    Raises NotInterior unless `center` is strictly inside the circle, which
    is q < 0 (see `conic`); once that holds, H sends every conic point X to
    a conic point (expand (HX)^T A (HX)), on the line through X and C, and
    to X itself only when l . X = 0, which no circle point meets because
    the polar of an interior point misses the circle.
    """
    c = homogeneous(center)
    l = tuple(sum(a * x for a, x in zip(row, c)) for row in conic(circle))
    q = sum(a * x for a, x in zip(c, l))
    if q >= 0:
        raise NotInterior(f"reversion center {center} is not interior to {circle}")
    g = math.gcd(q, *l)
    return q // g, (l[0] // g, l[1] // g, l[2] // g), c


def apply_homology(h: Homology, x: Triple) -> Triple:
    """One reversion on primitive triples: X -> q X - 2 (l . X) C, divided
    by the gcd.  For the triple of a circle point this is
    `homogeneous(reversion(circle, center, affine(x)))`.

    The new W stays positive.  It is never 0, since a real circle has no
    point at infinity, so its sign is constant over the connected circle
    and disk; for the circle's own center it is a positive multiple of
    r^2 W, because `conic` has A[0][0] > 0.
    """
    q, (l0, l1, l2), (c0, c1, c2) = h
    x0, x1, x2 = x
    s = 2 * (l0 * x0 + l1 * x1 + l2 * x2)
    x0, x1, x2 = q * x0 - s * c0, q * x1 - s * c1, q * x2 - s * c2
    g = math.gcd(x0, x1, x2)
    return (x0 // g, x1 // g, x2 // g)


def _compare(s: Triple, t: Triple) -> int:
    """-1, 0 or 1 as the point of s is before, at or after that of t in
    (x, y) order; exact for W > 0."""
    a, b = s[0] * t[2], t[0] * s[2]
    if a == b:
        a, b = s[1] * t[2], t[1] * s[2]
    return (a > b) - (a < b)


def sorted_triples(triples) -> list:
    """Triples with W > 0 in the exact (x, y) order of their points, as a
    sort on the Fractions (X/W, Y/W) gives them, but comparing by
    cross-multiplication (`_compare`) instead of building Fractions."""
    return sorted(triples, key=functools.cmp_to_key(_compare))


def rational_circle_point(circle: Circle, base: Point, t: Rational) -> Point:
    """The second intersection of `circle` with the line through `base` of
    direction (1, t).

    Same known-root computation as `reversion`.  Raises if (1, t) is the
    tangent direction at `base`, since then the two intersections coincide.
    """
    if not on_circle(circle, base):
        raise NotOnCircle(f"{base} is not on {circle}")
    d = Point.of(1, Fraction(t))
    w = base - circle.center
    wd = w.dot(d)
    if wd == 0:
        raise TangentDirection(f"direction (1, {t}) is tangent at {base}")
    s = Fraction(-2) * wd / d.norm_sq()
    return base + d.scale(s)


def line_line_intersection(p1: Point, p2: Point, q1: Point, q2: Point) -> Optional[Point]:
    """Intersection of line(p1,p2) with line(q1,q2); None when parallel or
    coincident."""
    if p1 == p2 or q1 == q2:
        raise DegenerateLine("line endpoints coincide")
    dp = p2 - p1
    dq = q2 - q1
    denom = dp.cross(dq)
    if denom == 0:
        return None
    t = (q1 - p1).cross(dq) / denom
    return p1 + dp.scale(t)


def format_fraction(x: Fraction) -> str:
    """p/q with the denominator omitted when it is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def format_point(p: Point) -> str:
    return f"{format_fraction(p.x)} {format_fraction(p.y)}"


def parse_point(text: str) -> Point:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected two coordinates, got {text!r}")
    return Point(parse_fraction(parts[0]), parse_fraction(parts[1]))
