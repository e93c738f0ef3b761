"""Classification of a circle with three collinear interior points.

The cycle vectors of a configuration form a cyclic subgroup of Z^3: either
only the zero vector (one single shared class for all such configurations),
or all integer multiples of one primitive balanced vector v with v2 >= 1,
v1 <= v3 <= -1 and gcd 1, which is then a complete class label.  The
search walks the two point chains p.(2,1)^k and p.(3,2)^m from one off-line
rational point p and joins them on exact equality, so a bound B costs
O(B) reversions; the two constructors go the other way and produce a
configuration realizing a prescribed vector, one by exact chord closing,
one by certified bisection on the middle point.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .action import Config, act, offline_test_point
from .geometry import (
    Circle,
    DegenerateLine,
    Point,
    UNIT_CIRCLE,
    apply_homology,
    collinear,
    homogeneous,
    homology,
    in_open_disk,
    is_between,
    line_line_intersection,
    on_circle,
    rational_circle_point,
    reversion,
)
from .words import (
    Signature,
    Word,
    canonical_word,
    gcd_vec,
    is_balanced,
    pi13,
    signature_of,
    word_from_signature,
)

__all__ = [
    "CycleLabel",
    "NoCycleUpTo",
    "ClassLabel",
    "RealizationInterval",
    "ConfigValidationError",
    "RealizationError",
    "SignChangeError",
    "SamplingExhausted",
    "validate_config",
    "default_base_point",
    "find_primitive_cycle",
    "classify",
    "verify_label",
    "format_label",
    "realize_by_closing",
    "search_closing_config",
    "realize_by_bisection",
    "middle_point_residual",
    "avoid_all_cycles",
]

# First inward shift of the bisection endpoints from -1/2 and 1/2.
BISECTION_DELTA = Fraction(1, 1024)
# Third-point samples tried by avoid_all_cycles.
SAMPLING_BUDGET = 100


class ConfigValidationError(ValueError):
    """A configuration failed validation; `check` names the failed test."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class RealizationError(ValueError):
    """A constructor was called outside its precondition."""


class SignChangeError(RuntimeError):
    """The certified sign pattern failed; indicates a bug, not bad input."""


class SamplingExhausted(RuntimeError):
    """The random search budget ran out."""


@dataclass(frozen=True)
class CycleLabel:
    """A verified nonzero cycle class: `vector` is the canonical primitive
    (balanced, v2 >= 1, v1 <= v3 <= -1, gcd 1); the witness word fixes the
    witness point exactly and its signature is the cycle in the stored
    point order (the canonical vector or its 1<->3 swap)."""

    vector: tuple
    witness_word: Word
    witness_point: Point


@dataclass(frozen=True)
class NoCycleUpTo:
    """No nonzero cycle with middle entry up to the bound; an honest search
    bound, not a certificate of the cycle-free class."""

    v2_bound: int


ClassLabel = Union[CycleLabel, NoCycleUpTo]


@dataclass(frozen=True)
class RealizationInterval:
    """Bisection output: the middle interior point abscissa realizing the
    vector lies in (a_lo, a_hi), certified by exact endpoint signs (residual
    positive at a_lo, negative at a_hi)."""

    vector: tuple
    a_lo: Fraction
    a_hi: Fraction


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def default_base_point(circle: Circle) -> Point:
    """Easternmost point when the radius is rational; a rational point on a
    rational circle need not exist in general, so otherwise the caller must
    supply a base point explicitly."""
    r = _rational_sqrt(circle.radius_sq)
    if r is None:
        raise ConfigValidationError(
            "base_point",
            f"radius^2 = {circle.radius_sq} is not a rational square; "
            "supply an explicit rational base point on the circle")
    return Point(circle.center.x + r, circle.center.y)


def validate_config(circle: Circle, points, base_point: Optional[Point] = None) -> Config:
    """Check distinctness, interiority and (for three or more points)
    collinearity and monotone order, and attach a rational seed point on
    the circle.  Each failed check is reported under its own name."""
    points = tuple(points)
    if not points:
        raise ConfigValidationError("count", "need at least one interior point")
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            if p == q:
                raise ConfigValidationError(
                    "distinctness", f"interior point {p} repeated")
    for p in points:
        if not in_open_disk(circle, p):
            raise ConfigValidationError(
                "interiority", f"{p} is not strictly inside the circle")
    if len(points) >= 3:
        a, b = points[0], points[1]
        for p in points[2:]:
            if not collinear(a, b, p):
                raise ConfigValidationError(
                    "collinearity", f"{p} is off the line of the first two points")
        for left, mid, right in zip(points, points[1:], points[2:]):
            if not is_between(left, mid, right):
                raise ConfigValidationError(
                    "ordering", f"{mid} is not between its neighbours")
    if base_point is None:
        base_point = default_base_point(circle)
    elif not on_circle(circle, base_point):
        raise ConfigValidationError(
            "base_point", f"{base_point} is not on the circle")
    return Config(circle, points, base_point)


def _search_cycle(config: Config, v2_max: int) -> Optional[Tuple[tuple, tuple]]:
    """First (canonical, stored-order) cycle pair up to the bound, or None.

    A stored vector (-k, k+m, -m) has the word (2,1)^k (2,3)^m, which fixes
    the test point p exactly when p.(2,1)^k == p.(3,2)^m.  Both chains grow
    one level at a time, up to B - 1 since k, m >= 1 and k + m <= B, and are
    joined on the exact points (canonical integer triples), so both stored
    orders are covered at once.
    The hits are the multiples of the primitive cycle, so the first one
    found, divided by its gcd, is the primitive; when its middle entry
    exceeds the bound, so does every other cycle's.
    """
    if len(config.points) != 3:
        raise ConfigValidationError("count", "cycle search needs three points")
    if v2_max < 1:
        raise ValueError(f"v2_max must be >= 1, got {v2_max}")
    h1, h2, h3 = config.homologies
    pk = qm = homogeneous(offline_test_point(config))
    p_level: dict = {}  # p.(2,1)^k -> k, on integer triples
    q_level: dict = {}  # p.(3,2)^m -> m
    for n in range(1, v2_max):
        pk = apply_homology(h1, apply_homology(h2, pk))
        qm = apply_homology(h2, apply_homology(h3, qm))
        p_level[pk] = n
        q_level[qm] = n
        if pk in q_level:
            k, m = n, q_level[pk]
        elif qm in p_level:
            k, m = p_level[qm], n
        else:
            continue
        g = math.gcd(k, m)
        k, m = k // g, m // g
        if k + m > v2_max:
            return None
        stored = (-k, k + m, -m)
        return (stored if k >= m else pi13(stored)), stored
    return None


def find_primitive_cycle(config: Config, v2_max: int) -> Optional[tuple]:
    """The primitive cycle vector in canonical form, or None up to the
    bound.  All cycles are integer multiples of one vector, so the first
    meeting of the two search chains is the generator."""
    found = _search_cycle(config, v2_max)
    return found[0] if found else None


def classify(config: Config, v2_max: int) -> ClassLabel:
    """Class label of the configuration: the canonical primitive cycle with
    an exactly verified witness, or the bounded no-cycle result."""
    found = _search_cycle(config, v2_max)
    if found is None:
        return NoCycleUpTo(v2_max)
    canonical, stored = found
    witness_word = word_from_signature(stored)
    witness_point = offline_test_point(config)
    label = CycleLabel(canonical, witness_word, witness_point)
    if not verify_label(config, label):
        raise SignChangeError(f"witness for {canonical} failed re-verification")
    return label


def verify_label(config: Config, label: ClassLabel) -> bool:
    """Re-check everything a label claims; True also for bounded no-cycle
    labels (they claim only the search result)."""
    if isinstance(label, NoCycleUpTo):
        return label.v2_bound >= 1
    v = label.vector
    shape_ok = (
        is_balanced(v)
        and v[0] * v[1] * v[2] != 0
        and abs(v[1]) == abs(v[0]) + abs(v[2])
        and v[1] >= 1
        and v[0] <= v[2] <= -1
        and gcd_vec(v) == 1
    )
    if not shape_ok:
        return False
    stored = signature_of(label.witness_word)
    if stored not in (v, pi13(v)):
        return False
    return act(config, label.witness_point, label.witness_word) == label.witness_point


def format_label(label: ClassLabel) -> str:
    if isinstance(label, CycleLabel):
        return "cycle {} {} {}".format(*label.vector)
    return f"no-cycle-upto {label.v2_bound}"


_X_AXIS = (Point.of(0, 0), Point.of(1, 0))


def realize_by_closing(v: Signature, c1x: Fraction, c2x: Fraction,
                       p0: Point) -> Optional[Config]:
    """Construct an exact configuration with cycle v by closing the chord.

    For v = (v1, v2, -1) the word (2,1)^|v1| (2,3) uses the third point
    once, as its final reversion.  Apply every reversion but that last one
    to p0, giving q; the final reversion must send q back to p0, so the
    third point is forced: the crossing of chord [q, p0] with the axis.
    When that crossing is interior, ordered after the second point, and the
    full word then fixes p0 exactly, the configuration is returned;
    otherwise None (the forced point can land outside the disk or out of
    order for particular choices).
    """
    v = tuple(v)
    if len(v) != 3 or not is_balanced(v) or v[2] != -1 or v[0] > -1:
        raise RealizationError(
            f"{v} must be balanced with v3 = -1 and v1 <= -1")
    if not (-1 < c1x < c2x < 1):
        raise RealizationError(f"need -1 < c1x < c2x < 1, got {c1x}, {c2x}")
    if not on_circle(UNIT_CIRCLE, p0):
        raise RealizationError(f"{p0} is not on the unit circle")
    if p0.y == 0:
        raise RealizationError("p0 must be off the x-axis")
    c1 = Point(Fraction(c1x), Fraction(0))
    c2 = Point(Fraction(c2x), Fraction(0))
    word = canonical_word(v)
    q = p0
    for letter in word.letters[:-1]:
        q = reversion(UNIT_CIRCLE, (c1, c2)[letter - 1], q)
    if q == p0:
        return None
    try:
        c3 = line_line_intersection(q, p0, *_X_AXIS)
    except DegenerateLine:
        return None
    if c3 is None or not in_open_disk(UNIT_CIRCLE, c3) or c3.x <= c2x:
        return None
    config = validate_config(UNIT_CIRCLE, (c1, c2, c3))
    if act(config, p0, word) != p0:
        return None
    return config


def search_closing_config(v: Signature) -> Optional[Config]:
    """Deterministic grid retry over (c1x, c2x, start chord slope) until the
    closing construction succeeds."""
    west = Point.of(-1, 0)
    starts = []
    for t in (1, Fraction(1, 2), Fraction(1, 3), 2, Fraction(2, 3), 3):
        p = rational_circle_point(UNIT_CIRCLE, west, t)
        if p.y != 0:
            starts.append(p)
    c1_grid = [Fraction(-1, 2), Fraction(-3, 5), Fraction(-2, 5),
               Fraction(-7, 10), Fraction(-3, 10), Fraction(-2, 3)]
    c2_grid = [Fraction(0), Fraction(1, 8), Fraction(-1, 8),
               Fraction(1, 5), Fraction(-1, 5), Fraction(1, 4)]
    for c1x in c1_grid:
        for c2x in c2_grid:
            if c1x >= c2x:
                continue
            for p0 in starts:
                config = realize_by_closing(v, c1x, c2x, p0)
                if config is not None:
                    return config
    return None


@functools.cache
def _end_homologies() -> tuple:
    """The reversions through (-1/2, 0) and (1/2, 0), the fixed first and
    third points of every bisection configuration; built on first use."""
    return (homology(UNIT_CIRCLE, Point.of(Fraction(-1, 2), 0)),
            homology(UNIT_CIRCLE, Point.of(Fraction(1, 2), 0)))


def middle_point_residual(v: Signature, a: Fraction) -> Fraction:
    """First coordinate of the canonical word of v acting on (0, 1), with
    interior points (-1/2, 0), (a, 0), (1/2, 0); zero exactly when the
    configuration realizes v.

    Only the middle homology is built per call; the two end ones are
    cached.  Raises ValueError unless v is a canonical 3-vector, and
    NotInterior unless -1 < a < 1.
    """
    word = canonical_word(tuple(v))
    first, last = _end_homologies()
    homologies = (first, homology(UNIT_CIRCLE, Point(Fraction(a), Fraction(0))), last)
    x = (0, 1, 1)  # the triple of (0, 1)
    for letter in word.letters:
        x = apply_homology(homologies[letter - 1], x)
    return Fraction(x[0], x[2])


def realize_by_bisection(v: Signature, width_bound: Fraction) -> RealizationInterval:
    """Isolate the middle-point abscissa realizing v between (-1/2, 0) and
    (1/2, 0) by exact bisection.

    The residual is positive just right of -1/2 and negative just left of
    1/2 (the configuration degenerates at the exact endpoints, so they are
    shifted inward by BISECTION_DELTA, halving the shift if the sign pattern
    is not yet visible).  There is at most one root in the family, so the
    certified enclosure is unique.  An exact root hit ends with a recentred
    interval whose endpoint signs are still verified.
    """
    v = tuple(v)
    if len(v) != 3 or not is_balanced(v):
        raise RealizationError(f"{v} must be a balanced 3-vector")
    if v[1] < 0:
        v = (-v[0], -v[1], -v[2])
    if v[1] < 1 or v[0] > -1 or v[2] > -1:
        raise RealizationError(
            f"{v} must satisfy v2 >= 1 and v1, v3 <= -1 (up to negation)")
    width_bound = Fraction(width_bound)
    if width_bound <= 0:
        raise RealizationError(f"width bound must be positive, got {width_bound}")
    half = Fraction(1, 2)
    delta = BISECTION_DELTA
    for _ in range(24):
        lo, hi = -half + delta, half - delta
        flo, fhi = middle_point_residual(v, lo), middle_point_residual(v, hi)
        if flo > 0 and fhi < 0:
            break
        delta /= 2
    else:
        raise SignChangeError(
            f"no certified sign change near the endpoints for {v}")
    while hi - lo > width_bound:
        mid = (lo + hi) / 2
        fmid = middle_point_residual(v, mid)
        if fmid > 0:
            lo = mid
        elif fmid < 0:
            hi = mid
        else:
            lo = mid - width_bound / 2
            hi = mid + width_bound / 2
            if middle_point_residual(v, lo) <= 0 or middle_point_residual(v, hi) >= 0:
                raise SignChangeError(
                    f"endpoint signs failed around the exact root {mid} for {v}")
            break
    return RealizationInterval(v, lo, hi)


def avoid_all_cycles(v2_max: int, seed: int) -> Config:
    """A configuration with no nonzero cycle up to the bound: points
    (-1/2, 0), (0, 0) and a seeded random rational third point, kept when
    the cycle search finds nothing up to the bound.  Each candidate vector
    excludes at most one third-point abscissa, so nearly every sample
    succeeds."""
    if v2_max < 1:
        raise ValueError(f"v2_max must be >= 1, got {v2_max}")
    rng = random.Random(seed)
    q = 1048583  # prime, so every sampled abscissa is in lowest terms
    for _ in range(SAMPLING_BUDGET):
        a = Fraction(rng.randrange(1, q), q)
        config = validate_config(
            UNIT_CIRCLE,
            (Point.of(Fraction(-1, 2), 0), Point.of(0, 0), Point(a, Fraction(0))))
        if find_primitive_cycle(config, v2_max) is None:
            return config
    raise SamplingExhausted(f"no cycle-free sample in {SAMPLING_BUDGET} tries")
