"""Exact plane primitives: points, circles, chords, reversions.

Nothing here uses an epsilon.  Points and circles hold Fraction data for
input and output; every predicate and every reversion runs on integer
projective coordinates.  Circles carry the squared radius so that circles
with irrational radius still have all-rational data.

A point is the primitive triple (X, Y, W), W > 0, of `homogeneous`; the
circle is the integer conic X^T A X = 0 of `conic`, whose `quadric` is
negative inside the circle, zero on it and positive outside; and the
reversion through an interior point C is the harmonic homology
H = (C^T A C) I - 2 C (A C)^T, which needs no division, maps the conic to
itself and sends a conic point to the far end of its chord through C.
`apply_homology` applies one such step and renormalizes with one gcd, so
the triple stays canonical (primitive, W > 0) and can be hashed.
`reversion` and `is_between` are the Point forms of one homology step and
of `collinear_between`; `sorted_triples` orders triples by their points,
`affine` converts back to a Point exactly, and `format_triple` prints the
point of a triple without building one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

Rational = Union[Fraction, int]
Triple = Tuple[int, int, int]
# The symmetric integer matrix A of a circle's conic X^T A X = 0.
Conic = Tuple[Triple, Triple, Triple]
# (q, l, C): the homology X -> q X - 2 (l . X) C of an interior point C.
Homology = Tuple[int, Triple, Triple]

__all__ = [
    "Point",
    "Circle",
    "UNIT_CIRCLE",
    "GeometryError",
    "NotOnCircle",
    "NotInterior",
    "is_between",
    "reversion",
    "homogeneous",
    "affine",
    "conic",
    "quadric",
    "line_through",
    "collinear_between",
    "homology",
    "apply_homology",
    "sorted_triples",
    "format_fraction",
    "parse_fraction",
    "format_point",
    "format_circle",
    "format_triple",
]


class GeometryError(ValueError):
    pass


class NotOnCircle(GeometryError):
    """A point required to lie on the circle does not."""


class NotInterior(GeometryError):
    """A point required to lie strictly inside the circle does not."""


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    @staticmethod
    def of(x: Rational, y: Rational) -> "Point":
        return Point(Fraction(x), Fraction(y))


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


def conic(circle: Circle) -> Conic:
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


def quadric(matrix: Conic, x: Triple) -> int:
    """X^T A X for the `conic` matrix A: for W != 0 it is negative, zero
    or positive as the point of x is inside, on or outside the circle."""
    (a, _, b), (_, _, e), (_, _, f) = matrix
    x0, x1, x2 = x
    return a * (x0 * x0 + x1 * x1) + (2 * (b * x0 + e * x1) + f * x2) * x2


def line_through(x: Triple, y: Triple) -> Triple:
    """The line through the points of two triples, as the coefficient
    triple n = x cross y: a triple p lies on it exactly when n . p = 0,
    the determinant of x, y and p.  It is (0, 0, 0) when x and y are the
    same point."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0


def collinear_between(left: Triple, middle: Triple, right: Triple) -> bool:
    """The points of three triples (W > 0) are collinear, with the middle
    one strictly between the others: `right` is on `line_through` the
    other two, and (middle - left) . (right - middle) > 0, times the
    positive l2 m2^2 r2.  False when two of them are the same point."""
    n0, n1, n2 = line_through(left, middle)
    l0, l1, l2 = left
    m0, m1, m2 = middle
    r0, r1, r2 = right
    return n0 * r0 + n1 * r1 + n2 * r2 == 0 and (m0 * l2 - l0 * m2) * (r0 * m2 - m0 * r2) \
        + (m1 * l2 - l1 * m2) * (r1 * m2 - m1 * r2) > 0


def homology(matrix: Conic, c: Triple) -> Homology:
    """The reversion through the point of the triple c, for the circle of
    the `conic` matrix A, as the integer harmonic homology H = q I - 2 C l^T,
    returned as (q, l, C) with C = c, l = A C and q = C^T A C (both divided
    by their common gcd, which leaves the projective map unchanged).

    Raises NotInterior unless c is strictly inside the circle, which is
    q < 0 (see `conic`); once that holds, H sends every conic point X to
    a conic point (expand (HX)^T A (HX)), on the line through X and C, and
    to X itself only when l . X = 0, which no circle point meets because
    the polar of an interior point misses the circle.
    """
    (a, _, b), (_, _, e), (_, _, f) = matrix
    c0, c1, c2 = c
    l0, l1, l2 = a * c0 + b * c2, a * c1 + e * c2, b * c0 + e * c1 + f * c2
    q = c0 * l0 + c1 * l1 + c2 * l2
    if q >= 0:
        raise NotInterior(f"reversion center {format_triple(c)} is not inside the circle")
    g = math.gcd(q, l0, l1, l2)
    return q // g, (l0 // g, l1 // g, l2 // g), c


def apply_homology(h: Homology, x: Triple) -> Triple:
    """One reversion on primitive triples: X -> q X - 2 (l . X) C, divided
    by the gcd.  For the triple of a circle point this is the triple of
    the far end of its chord through C.

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


def reversion(circle: Circle, center: Point, p: Point) -> Point:
    """The second endpoint of the chord of `circle` through `center` from
    `p`: one `apply_homology` step on the triple of p.  Raises NotOnCircle
    unless p is on the circle and NotInterior unless `center` is strictly
    inside it; applying the map twice gives p back."""
    matrix = conic(circle)
    x = homogeneous(p)
    if quadric(matrix, x) != 0:
        raise NotOnCircle(f"point {format_point(p)} is not on {format_circle(circle)}")
    return affine(apply_homology(homology(matrix, homogeneous(center)), x))


def is_between(a: Point, x: Point, b: Point) -> bool:
    """x lies strictly inside the open segment (a, b): `collinear_between`
    of the three triples, so False when a == b, when x is an endpoint and
    when the points are not collinear."""
    return collinear_between(homogeneous(a), homogeneous(x), homogeneous(b))


def sorted_triples(triples) -> list:
    """Triples with W > 0 in the exact (x, y) order of their points, as a
    stable sort on the Fractions (X/W, Y/W) gives them, but on the integer
    key (floor(x 2^s), floor(y 2^s)) with s = 2 b, where every W < 2^b.

    The key is exact.  Two distinct values X1/W1 != X2/W2 differ by at
    least 1/(W1 W2) > 2^-s, so their scaled values differ by more than 1
    and their floors keep their order; equal values give equal floors.
    """
    triples = list(triples)
    s = 2 * max((t[2].bit_length() for t in triples), default=0)
    return sorted(triples, key=lambda t: ((t[0] << s) // t[2], (t[1] << s) // t[2]))


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


def format_circle(circle: Circle) -> str:
    """The circle's line of a configuration file: circle <cx> <cy> <r2>."""
    return f"circle {format_point(circle.center)} {format_fraction(circle.radius_sq)}"


def _format_ratio(n: int, d: int) -> str:
    """`format_fraction(Fraction(n, d))` for d > 0."""
    g = math.gcd(n, d)
    return str(n // d) if g == d else f"{n // g}/{d // g}"


def format_triple(t: Triple) -> str:
    """`format_point(affine(t))` for a triple with W != 0, reduced with one
    gcd per coordinate instead of through two Fractions."""
    x, y, w = t
    if w < 0:
        x, y, w = -x, -y, -w
    return f"{_format_ratio(x, w)} {_format_ratio(y, w)}"
