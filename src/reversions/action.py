"""The right action of words on a circle through reversions.

A configuration is a circle with an ordered tuple of distinct interior
points; letter i of a word acts by the reversion through the i-th point,
applied in reading order.  For collinear interior points the interesting
structure lives off the interior line: odd-length words swap the two open
half-circle arcs, even-length ones preserve them, and whether a balanced
signature vector fixes one off-line point (and then, by the porism, every
off-line point) is exactly the cycle test driving the classification.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .geometry import (
    Circle,
    Point,
    TangentDirection,
    affine,
    apply_homology,
    homogeneous,
    homology,
    on_circle,
    rational_circle_point,
    sorted_triples,
)
from .words import Signature, Word, is_balanced, word_from_signature

__all__ = [
    "Config",
    "ActionError",
    "act",
    "orbit",
    "is_cycle",
    "offline_test_point",
    "offline_test_points",
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
    """

    circle: Circle
    points: tuple
    base_point: Point

    @functools.cached_property
    def homologies(self) -> tuple:
        """The integer homology (`geometry.homology`) of each interior point,
        in index order; built on first use and kept on the instance, outside
        the fields that equality and hashing see."""
        return tuple(homology(self.circle, c) for c in self.points)

    @property
    def alphabet(self) -> int:
        return len(self.points)

    def line(self) -> tuple:
        """Two distinct points spanning the interior line (stored order)."""
        if len(self.points) < 2:
            raise ActionError("configuration has no interior line")
        return (self.points[0], self.points[1])


def act(config: Config, c: Point, g: Word) -> Point:
    """Apply the reversions named by g, first letter first; the empty word
    is the identity and act(act(c, g), h) = act(c, g*h).  The chain runs on
    integer triples, so only the start point is checked on the circle."""
    if g.alphabet != config.alphabet:
        raise ActionError(
            f"word alphabet {g.alphabet} != {config.alphabet} interior points")
    if not on_circle(config.circle, c):
        raise ActionError(f"{c} is not on the configuration circle")
    homologies = config.homologies
    x = homogeneous(c)
    for letter in g.letters:
        x = apply_homology(homologies[letter - 1], x)
    return affine(x)


def orbit(config: Config, c: Point, max_word_length: int) -> tuple:
    """All images of c under words of length <= the bound, as distinct
    points sorted by exact (x, y).

    Orbits are infinite in general, so the enumeration is truncated by word
    length rather than by point count.  The images are the ball of that
    radius around c in the graph whose edges are the reversions, so the
    search is breadth-first over canonical integer triples: each new point
    is expanded once, by every letter except the one that first reached it,
    which only leads back.  That is at most 2 |orbit| + 1 steps for three
    points.  The triples are sorted by `sorted_triples` and converted once,
    at the end.
    """
    if max_word_length < 0:
        raise ActionError(f"negative word-length bound {max_word_length}")
    if not on_circle(config.circle, c):
        raise ActionError(f"{c} is not on the configuration circle")
    steps = list(enumerate(config.homologies, start=1))
    start = homogeneous(c)
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
    return tuple(affine(x) for x in sorted_triples(seen))


def offline_test_points(config: Config) -> Iterator[Point]:
    """Deterministic rational circle points off the interior line: chords
    through the base point with slopes 1, 1/2, 1/3, ...  Rational points are
    dense on the circle, so on-line hits are skipped and the stream is
    effectively inexhaustible.  A single interior point has no line to
    avoid."""
    a, b = config.line() if len(config.points) > 1 else (None, None)
    for k in itertools.count(1):
        try:
            p = rational_circle_point(config.circle, config.base_point, Fraction(1, k))
        except TangentDirection:
            continue
        if a is None or (b - a).cross(p - a) != 0:
            yield p


def offline_test_point(config: Config) -> Point:
    """The first point of `offline_test_points`."""
    return next(offline_test_points(config))


def is_cycle(config: Config, v: Signature) -> bool:
    """Does every word of signature v fix every off-line circle point?

    Evaluated at a single deterministic off-line rational point with the
    normal-form word of signature v; by the porism this single exact test
    decides the question for all off-line points and all words of that
    signature.  Non-balanced vectors are rejected without evaluation: a
    fixing word must have even length, hence a balanced signature.
    """
    if len(v) != config.alphabet:
        raise ActionError(f"vector length {len(v)} != alphabet {config.alphabet}")
    if not is_balanced(v):
        return False
    g = word_from_signature(tuple(v))
    p = offline_test_point(config)
    return act(config, p, g) == p
