"""Configurations and the right action of words on a circle through
reversions.

A configuration is a circle with an ordered tuple of distinct interior
points, checked when it is built (`Config`); letter i of a word acts by
the reversion through the i-th point, applied in reading order.  For
collinear interior points the interesting structure lives off the
interior line: odd-length words swap the two open half-circle arcs,
even-length ones preserve them, and whether the words of a balanced
signature vector fix every off-line point is the cycle test driving the
classification, decided from one primitive cycle (`_cycle_ratio`) that
`is_cycle` and `classify` both read.  Decisions read only the conic and
the triples of a `Config`; its homologies serve only walks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

from .geometry import (
    Circle,
    Conic,
    Homology,
    Point,
    Triple,
    affine,
    apply_homology,
    collinear_between,
    conic,
    format_point,
    homogeneous,
    homology,
    line_through,
    quadric,
    sorted_triples,
)
from .words import Signature, Word, is_balanced

__all__ = [
    "Config",
    "ConfigValidationError",
    "default_base_point",
    "ActionError",
    "act",
    "orbit",
    "is_cycle",
    "offline_test_point",
    "walk",
]


class ActionError(ValueError):
    pass


# The largest bit length of an orbit coordinate (`orbit`).
MAX_ORBIT_BITS = 14_284


class ConfigValidationError(ValueError):
    """A configuration failed validation; `check` names the failed test."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


def default_base_point(circle: Circle) -> Point:
    """Easternmost point when the radius is rational; a rational point on a
    rational circle need not exist in general, so otherwise the caller must
    supply a base point explicitly."""
    r2 = circle.radius_sq
    rn = math.isqrt(r2.numerator)
    rd = math.isqrt(r2.denominator)
    if rn * rn != r2.numerator or rd * rd != r2.denominator:
        raise ConfigValidationError(
            "base_point",
            f"radius^2 = {r2} is not a rational square; "
            "supply an explicit rational base point on the circle")
    return Point(circle.center.x + Fraction(rn, rd), circle.center.y)


@dataclass(frozen=True)
class Config:
    """A circle with ordered interior points and a rational seed point on
    the circle, checked when it is built.

    Construction checks distinctness, interiority and (for three or more
    points) collinearity and monotone order, in that order, and then the
    base point, which defaults to `default_base_point` when it is None;
    each failed check raises ConfigValidationError under its own name.
    So the points of every Config lie on one line (vacuously for one or
    two points), each middle point strictly between its neighbours, and
    its base point lies on the circle.

    The checks run on `triples` against the circle's integer conic A
    (`conic`): a point is inside when X^T A X < 0 and the base point is on
    the circle when X^T A X = 0 (`geometry.quadric`); three points are
    collinear when their 3x3 determinant vanishes (`geometry.line_through`);
    and of three distinct collinear points the middle one is strictly
    between the others when the two segment vectors, cross-multiplied to
    integers, have a positive dot product (`geometry.collinear_between`,
    which also tests the collinearity).

    Four derived values are built on first use and kept on the instance,
    outside the fields that equality, hashing and repr see.  Decisions read
    `conic` and `triples`, which the checks fill; walks (`act`, `orbit`,
    tables and cycle polygons) read `homologies`; and `test_triple` starts
    the classification witness, cycle polygons and the first table seed.
    """

    circle: Circle
    points: tuple
    base_point: Optional[Point]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        if not points:
            raise ConfigValidationError("count", "need at least one interior point")
        triples = self.triples
        for i, x in enumerate(triples):
            if x in triples[i + 1:]:
                raise ConfigValidationError(
                    "distinctness", f"interior point {format_point(points[i])} repeated")
        for p, x in zip(points, triples):
            if quadric(self.conic, x) >= 0:
                raise ConfigValidationError(
                    "interiority", f"point {format_point(p)} is not strictly inside the circle")
        if len(points) >= 3:
            n0, n1, n2 = line_through(triples[0], triples[1])
            for p, (x0, x1, x2) in zip(points[2:], triples[2:]):
                if n0 * x0 + n1 * x1 + n2 * x2 != 0:
                    raise ConfigValidationError("collinearity", f"point {format_point(p)} "
                                                "is off the line of the first two points")
            for mid, left, middle, right in zip(points[1:], triples, triples[1:], triples[2:]):
                if not collinear_between(left, middle, right):
                    raise ConfigValidationError(
                        "ordering", f"point {format_point(mid)} is not between its neighbours")
        if self.base_point is None:
            object.__setattr__(self, "base_point", default_base_point(self.circle))
        elif quadric(self.conic, homogeneous(self.base_point)) != 0:
            raise ConfigValidationError(
                "base_point", f"base point {format_point(self.base_point)} is not on the circle")

    @functools.cached_property
    def conic(self) -> Conic:
        """The circle's integer conic matrix (`geometry.conic`)."""
        return conic(self.circle)

    @functools.cached_property
    def triples(self) -> tuple:
        """The canonical triple (`geometry.homogeneous`) of each point."""
        return tuple(map(homogeneous, self.points))

    @functools.cached_property
    def homologies(self) -> tuple:
        """The integer homology (`geometry.homology`) of each point."""
        return tuple(homology(self.conic, c) for c in self.triples)

    @functools.cached_property
    def test_triple(self) -> Triple:
        """The first triple of the off-line test-point stream, which is on
        the circle by construction."""
        return next(_test_triples(self))

    @property
    def alphabet(self) -> int:
        return len(self.points)


def act(config: Config, c: Point, g: Word) -> Point:
    """Apply the reversions named by g, first letter first; the empty word
    is the identity and act(act(c, g), h) = act(c, g*h).  The chain runs on
    integer triples, so only the start point is checked on the circle."""
    if g.alphabet != config.alphabet:
        raise ActionError(
            f"word alphabet {g.alphabet} != {config.alphabet} interior points")
    x = _on_circle_triple(config, c)
    for x in walk(config.homologies, x, g.letters):
        pass
    return affine(x)


def _on_circle_triple(config: Config, c: Point) -> Triple:
    """The triple of c, which must lie on the circle: X^T A X = 0."""
    x = homogeneous(c)
    if quadric(config.conic, x) != 0:
        raise ActionError(f"point {format_point(c)} is not on the configuration circle")
    return x


def walk(homologies: Sequence[Homology], x: Triple, letters) -> Iterator[Triple]:
    """The images of the triple x after each letter in turn, first letter
    first, letter i acting by homologies[i - 1]."""
    for letter in letters:
        x = apply_homology(homologies[letter - 1], x)
        yield x


def _refuse_past_budget(t: Triple) -> None:
    """Raise ActionError if a coordinate of the orbit point t has more than
    MAX_ORBIT_BITS bits (`orbit`)."""
    bits = MAX_ORBIT_BITS
    if t[0].bit_length() > bits or t[1].bit_length() > bits or t[2].bit_length() > bits:
        raise ActionError(f"an orbit coordinate has more than {bits} bits; lower the depth")


def orbit(config: Config, c: Point, max_word_length: int) -> tuple:
    """All images of c under words of length <= the bound, as the distinct
    canonical triples (`geometry.homogeneous`) of their points, sorted by
    exact (x, y) with `sorted_triples`, which the CLI prints and draws with
    no Point in between; `geometry.affine` gives the point of each.

    Orbits are infinite in general, so the enumeration is truncated by word
    length rather than by point count.  The search is breadth-first over
    canonical integer triples: each new point is expanded once, by every
    letter except the one that first reached it, which only leads back, so
    three points take at most 2 |orbit| + 1 steps.

    Each level can double the orbit and lengthen its coordinates, so the
    start point, or any point the search makes, with a coordinate of more
    than MAX_ORBIT_BITS bits raises ActionError as soon as it is found.
    The budget is the library's own, whatever Python's int-to-str digit
    limit is: at 14,284 bits every number has at most 4,300 digits, the
    default limit, as 2^14284 - 1 has 4,300 digits and 10^4300 has 14,285
    bits, so every orbit it allows prints under the default limit.
    """
    if max_word_length < 0:
        raise ActionError(f"negative word-length bound {max_word_length}")
    start = _on_circle_triple(config, c)
    _refuse_past_budget(start)
    steps = list(enumerate(config.homologies, start=1))
    seen = {start}
    frontier = [(start, 0)]
    for _ in range(max_word_length):
        nxt = []
        for x, first in frontier:
            for letter, h in steps:
                if letter != first:
                    y = apply_homology(h, x)
                    if y not in seen:
                        _refuse_past_budget(y)
                        seen.add(y)
                        nxt.append((y, letter))
        frontier = nxt
    return tuple(sorted_triples(seen))


def _test_triples(config: Config) -> Iterator[Triple]:
    """The off-line test points as canonical triples: the second ends of
    the chords through the base point with directions (k, 1), k = 1, 2, ...
    (slopes 1, 1/2, 1/3, ...), skipping the tangent direction and the hits
    on the interior line.  Rational points are dense on the circle, so the
    stream is effectively inexhaustible.  A single interior point has no
    line to avoid.

    With the base (X/W, Y/W), the center (-b/a, -e/a) read off the conic
    and N = k (X a + b W) + (Y a + e W), which is W a times the dot product
    of the direction with base - center, the chord's far end is
    (X a (k^2 + 1) - 2 k N, Y a (k^2 + 1) - 2 N, W a (k^2 + 1)) up to
    its gcd; N = 0 is the tangent.  The base point is on the circle and
    the first two interior points are distinct, as `Config` checks.
    """
    x0, x1, x2 = homogeneous(config.base_point)
    (a, _, b), (_, _, e), _ = config.conic
    ex, ey = x0 * a + b * x2, x1 * a + e * x2
    line = line_through(*config.triples[:2]) if len(config.points) > 1 else None
    for k in itertools.count(1):
        n = k * ex + ey
        if n == 0:
            continue
        m = a * (k * k + 1)
        p0, p1, p2 = x0 * m - 2 * k * n, x1 * m - 2 * n, x2 * m
        if line is None or line[0] * p0 + line[1] * p1 + line[2] * p2 != 0:
            g = math.gcd(p0, p1, p2)
            yield p0 // g, p1 // g, p2 // g


def offline_test_point(config: Config) -> Point:
    """The point of the cached first triple of the off-line test-point
    stream (`Config.test_triple`)."""
    return affine(config.test_triple)


def _tau(matrix: Conic, x: Triple, y: Triple) -> Tuple[int, int]:
    """tau = lambda + 1/lambda, as the lowest-terms pair (p, q), q >= 1, for
    the translation factor lambda >= 1 of the product of the reversions
    through the points of the triples x and y, from the `conic` matrix A
    alone: Q(x) = x^T A x and B(x, y) = x^T A y.

    The reversions are the hyperbolic half-turns about the two points, so
    the product translates along their line by twice their Cayley-Klein
    distance d, cosh d = |B| / sqrt(Q_x Q_y): tau = 2 cosh 2d, which is
    (2B)^2 / (Q_x Q_y) - 2, with 2B = Q(x + y) - Q_x - Q_y by polarization
    and Q_x Q_y > 0 as both points are inside the circle.
    """
    qx, qy = quadric(matrix, x), quadric(matrix, y)
    b2 = quadric(matrix, (x[0] + y[0], x[1] + y[1], x[2] + y[2])) - qx - qy
    q = qx * qy
    p = b2 * b2 - 2 * q
    g = math.gcd(p, q)
    return p // g, q // g


def _lucas(p: int, q: int, k: int) -> int:
    """N_k = q^k V_k for V_k = lambda^k + lambda^-k and tau = p/q, in
    O(log k) products: from V_2n = V_n^2 - 2 and V_2n+1 = V_n V_n+1 - tau,
    N_2n = N_n^2 - 2 q^2n and N_2n+1 = N_n N_n+1 - p q^2n, with N_0 = 2
    and N_1 = p.  The recurrence N_k = p N_(k-1) - q^2 N_(k-2) gives
    N_k = p^k (mod q) for k >= 1, which is coprime to q as p/q is in lowest
    terms: the denominator of V_k is exactly q^k."""
    a, b, s, qq = 2, p, 1, q * q  # N_n, N_n+1 and q^2n, from n = 0
    for bit in bin(k)[2:]:
        if bit == "1":  # n -> 2n + 1
            a, b, s = a * b - p * s, b * b - 2 * s * qq, s * s * qq
        else:  # n -> 2n
            a, b, s = a * a - 2 * s, a * b - p * s, s * s
    return a


def _power_ratio(x: int, y: int) -> Tuple[int, int]:
    """The primitive (k, m), k, m >= 1, with x^k = y^m, for integers
    x, y >= 1 that are not both 1; (0, 0) when only k = m = 0 solves it.

    A Euclid that divides the larger number by the smaller.  If x^k = y^m
    with x > y, then y divides x and (x/y)^k = y^(m-k), so each division
    keeps every solution, with its exponents moved by a unimodular map; a
    remainder proves that there is none.  The invariants x0 = x^a y^b and
    y0 = x^c y^d hold throughout, so when x = y = r it ends with
    x0 = r^(a+b) and y0 = r^(c+d).  Each division halves one number at
    least, so there are fewer steps than the bits of x0 and y0.
    """
    if x == 1 or y == 1:
        return 0, 0
    a, b, c, d = 1, 0, 0, 1
    while x != y:
        if x > y:
            x, rest = divmod(x, y)
            b, d = b + a, d + c
        else:
            y, rest = divmod(y, x)
            a, c = a + b, c + d
        if rest:
            return 0, 0
    g = math.gcd(a + b, c + d)
    return (c + d) // g, (a + b) // g


def _unit_ratio(p12: int, p23: int, v2_max: int) -> Tuple[int, int]:
    """The first (i, j) with V_i(p12) = V_j(p23), i + j <= v2_max, for
    integral tau = p12 and p23; (0, 0) when there is none.

    Both V sequences increase with the index, as lambda > 1, so a merge
    that advances the smaller one meets every equal pair in order, and
    the first one is the primitive cycle: equal pairs are its multiples.
    """
    i = j = 1
    a, a_prev, b, b_prev = p12, 2, p23, 2
    while i + j <= v2_max:
        if a < b:
            a, a_prev, i = p12 * a - a_prev, a, i + 1
        elif b < a:
            b, b_prev, j = p23 * b - b_prev, b, j + 1
        else:
            return i, j
    return 0, 0


def _cycle_ratio(config: Config, v2_max: int) -> Tuple[int, int]:
    """The primitive (k, m) of the cycle (-k, k+m, -m) in stored order, or
    (0, 0) when the configuration has no cycle with k + m <= v2_max.

    With a = -v1 and b = -v3, a word of balanced signature v acts as
    (2,1)^a (2,3)^b, which on the line of the points, at hyperbolic
    positions d1, d2, d3, translates by +-2 (a (d2 - d1) - b (d3 - d2)).
    The middle point is strictly between the others (`Config` checks it),
    so d2 - d1 and d3 - d2 are nonzero with one sign, and the word fixes
    every off-line point exactly when a b > 0 and
    lambda_12^|a| = lambda_23^|b| for the translation factors of (2,1) and
    (3,2).  So the cycles are the multiples of one primitive, or only 0.

    As x + 1/x increases for x > 1, lambda_12^k = lambda_23^m says
    V_k(tau_12) = V_m(tau_23) for tau = lambda + 1/lambda = p/q (`_tau`, on
    the conic and triples), and the denominator of V_k is exactly q^k
    (`_lucas`), so q_12^k = q_23^m.  When both q exceed 1, their primitive solution
    (`_power_ratio`) is the only candidate, as the solutions are multiples
    of it too, and as it makes the denominators equal, one comparison of
    the numerators q^k V_k decides it.  When only one is 1 there is no
    solution.  When both are 1, both V sequences are integers and a merge
    finds the first equal pair (`_unit_ratio`).
    """
    c1, c2, c3 = config.triples
    (p12, q12), (p23, q23) = _tau(config.conic, c1, c2), _tau(config.conic, c2, c3)
    if q12 == q23 == 1:
        return _unit_ratio(p12, p23, v2_max)
    k, m = _power_ratio(q12, q23)
    if k and k + m <= v2_max and _lucas(p12, q12, k) == _lucas(p23, q23, m):
        return k, m
    return 0, 0


def is_cycle(config: Config, v: Signature) -> bool:
    """Does every word of signature v fix every off-line circle point?

    Decided with no reversion step.  No unbalanced v is a cycle, the zero
    vector is, and on one or two points no other is.  On three, v is a
    cycle exactly when v1 v3 > 0 and (|v1|, |v3|) is a multiple of the
    primitive (k, m) of `_cycle_ratio`, sought up to k + m <= |v1| + |v3|,
    which a multiple never exceeds.  Raises ActionError for more than
    three points or a v of the wrong length.
    """
    if len(v) != config.alphabet:
        raise ActionError(f"vector length {len(v)} != alphabet {config.alphabet}")
    if not is_balanced(v):
        return False
    if config.alphabet > 3 and any(v):
        raise ActionError(f"the cycle test decides at most three points, not {config.alphabet}")
    if config.alphabet < 3 or not any(v):
        return not any(v)
    if v[0] * v[2] <= 0:
        return False
    a, b = abs(v[0]), abs(v[2])
    k, m = _cycle_ratio(config, a + b)
    return k >= 1 and a * m == b * k
