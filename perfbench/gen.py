"""Seeded known-answer inputs for the benchmark.

Every answer here comes from a closed form, never from the library's own
search.  Points sit on a diameter of the unit circle at x = (w-1)/(w+1):

* w = (1, s^|v3|, s^(|v1|+|v3|)) realizes the canonical cycle vector v;
* w = (1, p, p*q) with distinct primes p, q has no cycle at all, because a
  cycle would need p^|v1| = q^|v3|.

Each configuration is then moved by a seeded rational similarity (a
Pythagorean rotation, a rational scale and a rational shift), its points are
stored in reversed order at random, and it gets a random rational base
point.  That varies coordinate bit size, stored order and base point while
keeping the answer known.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from reversions.action import Config
from reversions.classify import validate_config
from reversions.geometry import Circle, Point

PRIMES = [p for p in range(3, 400) if all(p % d for d in range(2, math.isqrt(p) + 1))]
CYCLE_BASES = (2, 3, 5)


def canonical_vectors(v2_max: int) -> List[tuple]:
    """Canonical primitive vectors (v1, v2, v3): balanced, v2 >= 1,
    v1 <= v3 <= -1, gcd 1, ascending in v2."""
    out = []
    for v2 in range(2, v2_max + 1):
        for a3 in range(1, v2 // 2 + 1):
            v = (-(v2 - a3), v2, -a3)
            if math.gcd(*v) == 1:
                out.append(v)
    return out


def deck(rng: random.Random, items: Sequence) -> Iterator:
    """Endless draws that use every item once per shuffled round, so every
    seed sees the same mix of items and only their order changes."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def pi13(v: tuple) -> tuple:
    return (v[2], v[1], v[0])


@dataclass(frozen=True)
class Similarity:
    """x -> shift + scale * R(cos, sin) x, with exact rational entries."""

    cos: Fraction
    sin: Fraction
    scale: Fraction
    shift: Point

    def __call__(self, p: Point) -> Point:
        k = self.scale
        return Point(self.shift.x + k * (self.cos * p.x - self.sin * p.y),
                     self.shift.y + k * (self.sin * p.x + self.cos * p.y))

    def circle(self) -> Circle:
        return Circle(self.shift, self.scale * self.scale)


def unit_circle_point(rng: random.Random) -> Point:
    """A rational point of the unit circle off the x-axis."""
    m = rng.randint(2, 12)
    n = rng.randrange(1, m)
    d = m * m + n * n
    x, y = Fraction(m * m - n * n, d), Fraction(2 * m * n, d)
    if rng.random() < 0.5:
        x, y = y, x
    return Point(x * rng.choice((-1, 1)), y * rng.choice((-1, 1)))


def random_similarity(rng: random.Random) -> Similarity:
    rot = unit_circle_point(rng)
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    shift = Point(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return Similarity(rot.x, rot.y, scale, shift)


@dataclass(frozen=True)
class Case:
    """One generated configuration with its known answers.  `stored` is the
    cycle vector in stored point order (None when cycle-free); `canonical`
    is the class label vector."""

    config: Config
    text: str
    canonical: Optional[tuple]
    stored: Optional[tuple]
    weights: tuple
    similarity: Similarity

    def on_circle_point(self, rng: random.Random) -> Point:
        """A fresh random rational point on this configuration's circle."""
        return self.similarity(unit_circle_point(rng))


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def config_text(config: Config) -> str:
    c = config.circle
    lines = [f"circle {_q(c.center.x)} {_q(c.center.y)} {_q(c.radius_sq)}"]
    lines += [f"point {_q(p.x)} {_q(p.y)}" for p in config.points]
    lines.append(f"base {_q(config.base_point.x)} {_q(config.base_point.y)}")
    return "\n".join(lines) + "\n"


def _case(rng: random.Random, weights: tuple, canonical: Optional[tuple],
          reverse: bool) -> Case:
    sim = random_similarity(rng)
    pts = [sim(Point(Fraction(w - 1, w + 1), Fraction(0))) for w in weights]
    if reverse:
        pts.reverse()
    config = validate_config(sim.circle(), tuple(pts), sim(unit_circle_point(rng)))
    stored = None
    if canonical is not None:
        stored = pi13(canonical) if reverse else canonical
    return Case(config, config_text(config), canonical, stored, weights, sim)


def cycle_case(rng: random.Random, v: tuple, s: int,
               reverse: Optional[bool] = None) -> Case:
    if reverse is None:
        reverse = rng.random() < 0.5
    weights = (1, s ** -v[2], s ** (-v[0] - v[2]))
    return _case(rng, weights, v, reverse)


def free_case(rng: random.Random) -> Case:
    p, q = rng.sample(PRIMES, 2)
    return _case(rng, (1, p, p * q), None, rng.random() < 0.5)


def iso_pair(rng: random.Random, va: tuple, vb: tuple, bases: Tuple[int, int]) -> Tuple[Case, Case]:
    """Cycle configurations for va and vb with different s, similarity and
    stored order; isomorphic exactly when va == vb."""
    reverse = rng.random() < 0.5
    return (cycle_case(rng, va, bases[0], reverse),
            cycle_case(rng, vb, bases[1], not reverse))
