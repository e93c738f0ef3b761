"""The right action of words on a circle through reversions.

A configuration is a circle with an ordered tuple of distinct interior
points; letter i of a word acts by the reversion through the i-th point,
applied in reading order.  For collinear interior points the interesting
structure lives off the interior line: odd-length words swap the two open
half-circle arcs, even-length ones preserve them, and whether the words of
a balanced signature vector fix every off-line point is the cycle test
driving the classification, decided from tau = lambda + 1/lambda of the
homology products (`is_cycle`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .geometry import (
    Circle,
    Conic,
    Homology,
    NotOnCircle,
    Point,
    Triple,
    _strictly_between,
    affine,
    apply_homology,
    conic,
    format_circle,
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
    "ActionError",
    "act",
    "orbit",
    "is_cycle",
    "offline_test_point",
    "walk",
]


class ActionError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """A circle with ordered interior points and a rational seed point on
    the circle.

    Built by `classify.validate_config`, which guarantees that the points
    lie on one line (vacuously for one or two points) and are monotone
    along it, each middle point between its neighbours.

    Three derived values are built on first use and kept on the instance,
    outside the fields that equality and hashing see: the circle's integer
    conic, which validation, the start-point checks of `act` and `orbit`
    and the homologies all read; the integer homology of each interior
    point; and the integer triple of the off-line test point, which the
    classification witness, cycle polygons and the first table seed all
    start from.
    """

    circle: Circle
    points: tuple
    base_point: Point

    @functools.cached_property
    def conic(self) -> Conic:
        """The circle's integer conic matrix (`geometry.conic`)."""
        return conic(self.circle)

    @functools.cached_property
    def homologies(self) -> tuple:
        """The integer homology (`geometry.homology`) of each interior point,
        in index order, all from the one cached conic."""
        return tuple(homology(self.conic, homogeneous(c)) for c in self.points)

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
    return affine(_chain_end(config, _on_circle_triple(config, c), g))


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


def _chain_end(config: Config, x: Triple, g: Word) -> Triple:
    """The triple x moved by the reversions of g (`walk`)."""
    for x in walk(config.homologies, x, g.letters):
        pass
    return x


def orbit(config: Config, c: Point, max_word_length: int) -> tuple:
    """All images of c under words of length <= the bound, as the distinct
    canonical triples (`geometry.homogeneous`) of their points, sorted by
    exact (x, y); `geometry.affine` gives the point of each.

    Orbits are infinite in general, so the enumeration is truncated by word
    length rather than by point count.  The images are the ball of that
    radius around c in the graph whose edges are the reversions, so the
    search is breadth-first over canonical integer triples: each new point
    is expanded once, by every letter except the one that first reached it,
    which only leads back.  That is at most 2 |orbit| + 1 steps for three
    points.  The triples are sorted by `sorted_triples` and returned as
    they are: the CLI prints them with `format_triple` and `svg.render_svg`
    draws them, with no Point in between.
    """
    if max_word_length < 0:
        raise ActionError(f"negative word-length bound {max_word_length}")
    start = _on_circle_triple(config, c)
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

    With the base (X/W, Y/W), the center (u/z, v/z) and
    N = k (X z - u W) + (Y z - v W), which is W z times the dot product of
    the direction with base - center, the chord's far end is
    (X z (k^2 + 1) - 2 k N, Y z (k^2 + 1) - 2 N, W z (k^2 + 1)) up to
    its gcd; N = 0 is the tangent.  Raises NotOnCircle for a base point
    off the circle, and ActionError for first two interior points that
    coincide, which only a Config built without `validate_config` can
    have.
    """
    base = x0, x1, x2 = homogeneous(config.base_point)
    if quadric(config.conic, base) != 0:
        raise NotOnCircle(f"base point {format_point(config.base_point)} "
                          f"is not on {format_circle(config.circle)}")
    u, v, z = homogeneous(config.circle.center)
    ex, ey = x0 * z - u * x2, x1 * z - v * x2
    line = line_through(*map(homogeneous, config.points[:2])) if len(config.points) > 1 else None
    if line == (0, 0, 0):
        raise ActionError("the first two interior points coincide")
    for k in itertools.count(1):
        n = k * ex + ey
        if n == 0:
            continue
        m = z * (k * k + 1)
        p0, p1, p2 = x0 * m - 2 * k * n, x1 * m - 2 * n, x2 * m
        if line is None or line[0] * p0 + line[1] * p1 + line[2] * p2 != 0:
            g = math.gcd(p0, p1, p2)
            yield p0 // g, p1 // g, p2 // g


def offline_test_point(config: Config) -> Point:
    """The point of the cached first triple of the off-line test-point
    stream (`Config.test_triple`)."""
    return affine(config.test_triple)


def _tau(hi: Homology, hj: Homology) -> Tuple[int, int]:
    """tau = lambda + 1/lambda for the translation factor lambda >= 1 of the
    product of two homologies, as the lowest-terms pair (p, q), q >= 1.

    H_i / q_i and H_j / q_j are the hyperbolic half-turns about the two
    points, so their product translates along the line through them by
    lambda, with eigenvalues lambda, 1 and 1/lambda.  Since l . C = q for
    each homology (the gcd that `geometry.homology` divides by keeps it),
    tr(H_i H_j) = 4 (l_i . C_j)(l_j . C_i) - q_i q_j, and
    tau = tr(H_i H_j) / (q_i q_j) - 1 = (t - 2 q) / q
    with t = 4 (l_i . C_j)(l_j . C_i) and q = q_i q_j > 0.
    """
    qi, (li0, li1, li2), (ci0, ci1, ci2) = hi
    qj, (lj0, lj1, lj2), (cj0, cj1, cj2) = hj
    q = qi * qj
    p = 4 * (li0 * cj0 + li1 * cj1 + li2 * cj2) * (lj0 * ci0 + lj1 * ci1 + lj2 * ci2) - 2 * q
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


def _powers_agree(p12: int, q12: int, p23: int, q23: int, k: int, m: int) -> bool:
    """Is lambda_12^k = lambda_23^m?  V_k(p12/q12) = V_m(p23/q23), cross-multiplied."""
    return _lucas(p12, q12, k) * q23 ** m == _lucas(p23, q23, m) * q12 ** k


def is_cycle(config: Config, v: Signature) -> bool:
    """Does every word of signature v fix every off-line circle point?

    Decided with no reversion step.  No unbalanced v is a cycle, the zero
    vector is, and on one or two points no other is.  On three, with
    a = -v1 and b = -v3, a word of signature v acts as (2,1)^a (2,3)^b,
    which on the line of the points, at hyperbolic positions d1, d2, d3,
    translates by +-2 (a (d2 - d1) - b (d3 - d2)).  So v is a cycle
    exactly when lambda_12^|a| = lambda_23^|b| (`_powers_agree`) and, if
    a b != 0, a b > 0 exactly when the middle point is strictly between
    the others.  Off one line only the identity fixes every off-line
    point, and no nonzero v gives it.  Raises ActionError for more than
    three points or a v of the wrong length, and what a raw Config's test
    point or homologies raise.
    """
    if len(v) != config.alphabet:
        raise ActionError(f"vector length {len(v)} != alphabet {config.alphabet}")
    if not is_balanced(v):
        return False
    config.test_triple, config.homologies  # a raw Config's errors come first
    if config.alphabet > 3 and any(v):
        raise ActionError(f"the cycle test decides at most three points, not {config.alphabet}")
    if config.alphabet < 3 or not any(v):
        return not any(v)
    h1, h2, h3 = config.homologies
    (n0, n1, n2), (c0, c1, c2) = line_through(h1[2], h2[2]), h3[2]
    a, b = -v[0], -v[2]
    if n0 * c0 + n1 * c1 + n2 * c2 != 0 \
            or (a * b and (a * b > 0) != _strictly_between(h1[2], h2[2], h3[2])):
        return False
    return _powers_agree(*_tau(h1, h2), *_tau(h2, h3), abs(a), abs(b))
