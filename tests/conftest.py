import contextlib
import dataclasses
import enum
import functools
import itertools
import math
import random
import sys
import types
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import pytest

from reversions import action
from reversions.action import ActionError, Config, _test_triples, act, orbit
from reversions.classify import (
    ClassLabel,
    ConfigValidationError,
    NoCycleUpTo,
    RealizationError,
    RealizationInterval,
    SignChangeError,
    _search_cycle,
    _witness_word,
    default_base_point,
    validate_config,
)
from reversions.cli import serialize_config
from reversions.geometry import (
    Circle,
    GeometryError,
    NotInterior,
    NotOnCircle,
    Point,
    Rational,
    Triple,
    UNIT_CIRCLE,
    affine,
    apply_homology,
    conic,
    format_circle,
    format_point,
    homogeneous,
    homology,
)
from reversions.hull import EndpointToken, hull_isomorphism
from reversions.iso import (
    CollisionError,
    Isomorphic,
    IsoVerdict,
    PartialIsoTable,
    VerdictError,
    _key_str,
    format_verdict,
    verify_table,
)
from reversions.svg import OutOfFloatRange, UnverifiedCycle, _chord_ends, _float, _num
from reversions.words import (
    Signature,
    Word,
    apply_letter_permutation,
    canonical_word,
    gcd_vec,
    is_balanced,
    letters_from_str,
    pi13,
    reduce_letters,
    signature_of,
    word_from_signature,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def fr(a, b=1):
    return Fraction(a, b)


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


# Points -1/2, 1/(2^1200 + 1), 1/3 of the unit circle, a 411-byte file:
# the orbit of (0, 1) has coordinates of at most 12,006 bits to depth 10,
# and in level 11 one outgrows `action.MAX_ORBIT_BITS` (14,284 bits) and
# Python's default limit of 4300 digits for int-to-str.
BIG_ORBIT_TEXT = f"circle 0 0 1\npoint -1/2 0\npoint 1/{2 ** 1200 + 1} 0\npoint 1/3 0\n"


@contextlib.contextmanager
def int_max_str_digits(digits: int) -> Iterator[None]:
    """Python's int-to-str digit limit set to `digits` (0 for none) inside
    the block, and restored after it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TangentDirection(GeometryError):
    """The requested chord direction is tangent, so the second intersection
    coincides with the base point."""


class DegenerateLine(GeometryError):
    """A line was specified by two equal points."""


# Fraction vector arithmetic on Points, for the oracles below.
def sub(a: Point, b: Point) -> Point:
    return Point(a.x - b.x, a.y - b.y)


def along(p: Point, d: Point, t: Rational) -> Point:
    """p + t d."""
    return Point(p.x + t * d.x, p.y + t * d.y)


def dot(a: Point, b: Point) -> Fraction:
    return a.x * b.x + a.y * b.y


def cross(a: Point, b: Point) -> Fraction:
    return a.x * b.y - a.y * b.x


def norm_sq(a: Point) -> Fraction:
    return dot(a, a)


def on_circle(circle: Circle, p: Point) -> bool:
    return norm_sq(sub(p, circle.center)) == circle.radius_sq


def in_open_disk(circle: Circle, p: Point) -> bool:
    return norm_sq(sub(p, circle.center)) < circle.radius_sq


def collinear(a: Point, b: Point, c: Point) -> bool:
    """Exact determinant test; degenerate triples (repeated points) count
    as collinear."""
    return cross(sub(b, a), sub(c, a)) == 0


def fraction_is_between(a: Point, x: Point, b: Point) -> bool:
    """Reference for `geometry.is_between`: x lies strictly inside the open
    segment (a, b), by a Fraction cross product and the chord parameter.

    False whenever a == b (the open segment is empty), x coincides with an
    endpoint, or the three points are not collinear.
    """
    if a == b:
        return False
    d = sub(b, a)
    r = sub(x, a)
    if cross(d, r) != 0:
        return False
    t = dot(r, d)
    return 0 < t < norm_sq(d)


def fraction_reversion(circle: Circle, center: Point, p: Point) -> Point:
    """Reference for `geometry.reversion`: the second endpoint of the chord
    of `circle` through `center` from `p`, on Fractions.

    With d = center - p and w = p - circle center, the chord parameter of
    the far endpoint is t = -2<w,d>/<d,d> (the root t = 0 is p itself), so
    the result is p + t d.  Because `center` is strictly interior it is
    distinct from p, t > 1, and `center` lies strictly between p and the
    result; applying the map twice gives p back.
    """
    w = sub(p, circle.center)
    if norm_sq(w) != circle.radius_sq:
        raise NotOnCircle(f"point {format_point(p)} is not on {format_circle(circle)}")
    if not in_open_disk(circle, center):
        raise NotInterior(f"reversion center {format_point(center)} is not inside the circle")
    d = sub(center, p)
    return along(p, d, Fraction(-2) * dot(w, d) / norm_sq(d))


def point_homology(circle: Circle, c: Point):
    """`geometry.homology` of the point c for the circle."""
    return homology(conic(circle), homogeneous(c))


def rational_circle_point(circle: Circle, base: Point, t: Rational) -> Point:
    """The second intersection of `circle` with the line through `base` of
    direction (1, t).

    Same known-root computation as `fraction_reversion`.  Raises if (1, t) is the
    tangent direction at `base`, since then the two intersections coincide.
    """
    if not on_circle(circle, base):
        raise NotOnCircle(f"base point {format_point(base)} is not on {format_circle(circle)}")
    d = Point.of(1, Fraction(t))
    wd = dot(sub(base, circle.center), d)
    if wd == 0:
        raise TangentDirection(f"direction (1, {t}) is tangent at {base}")
    return along(base, d, Fraction(-2) * wd / norm_sq(d))


def line_line_intersection(p1: Point, p2: Point, q1: Point, q2: Point) -> Optional[Point]:
    """Intersection of line(p1,p2) with line(q1,q2); None when parallel or
    coincident."""
    if p1 == p2 or q1 == q2:
        raise DegenerateLine("line endpoints coincide")
    dp = sub(p2, p1)
    dq = sub(q2, q1)
    denom = cross(dp, dq)
    if denom == 0:
        return None
    return along(p1, dp, cross(sub(q1, p1), dq) / denom)


def offline_test_points(config: Config) -> Iterator[Point]:
    """The off-line test points, one `geometry.affine` point per triple of
    the stream that `Config.test_triple` starts: chords through the base
    point with slopes 1, 1/2, 1/3, ..., skipping the tangent and the hits
    on the interior line."""
    return map(affine, _test_triples(config))


def symmetric_config() -> Config:
    return validate_config(
        UNIT_CIRCLE, (pt("-1/2", 0), pt(0, 0), pt("1/2", 0)))


@pytest.fixture
def sym() -> Config:
    return symmetric_config()


def fraction_validate_config(circle: Circle, points,
                             base_point: Optional[Point] = None) -> Config:
    """Reference for `classify.validate_config`: the same checks in the
    same order with the Fraction predicates `in_open_disk`, `collinear`,
    `fraction_is_between` and `on_circle`."""
    points = tuple(points)
    if not points:
        raise ConfigValidationError("count", "need at least one interior point")
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            if p == q:
                raise ConfigValidationError(
                    "distinctness", f"interior point {format_point(p)} repeated")
    for p in points:
        if not in_open_disk(circle, p):
            raise ConfigValidationError(
                "interiority", f"point {format_point(p)} is not strictly inside the circle")
    if len(points) >= 3:
        a, b = points[0], points[1]
        for p in points[2:]:
            if not collinear(a, b, p):
                raise ConfigValidationError("collinearity", f"point {format_point(p)} "
                                            "is off the line of the first two points")
        for left, mid, right in zip(points, points[1:], points[2:]):
            if not fraction_is_between(left, mid, right):
                raise ConfigValidationError(
                    "ordering", f"point {format_point(mid)} is not between its neighbours")
    if base_point is None:
        base_point = default_base_point(circle)
    elif not on_circle(circle, base_point):
        raise ConfigValidationError(
            "base_point", f"base point {format_point(base_point)} is not on the circle")
    return Config(circle, points, base_point)


def fraction_offline_test_points(config: Config) -> Iterator[Point]:
    """Reference for `action.offline_test_points`: chords through the base
    point with slopes 1, 1/2, 1/3, ... by `rational_circle_point` on
    Fractions, skipping the tangent and the hits on the interior line."""
    a, b = config.points[:2] if len(config.points) > 1 else (None, None)
    for k in itertools.count(1):
        try:
            p = rational_circle_point(config.circle, config.base_point, Fraction(1, k))
        except TangentDirection:
            continue
        if a is None or cross(sub(b, a), sub(p, a)) != 0:
            yield p


def _compare_triples(s: Triple, t: Triple) -> int:
    """-1, 0 or 1 as the point of s is before, at or after that of t in
    (x, y) order; exact for W > 0."""
    a, b = s[0] * t[2], t[0] * s[2]
    if a == b:
        a, b = s[1] * t[2], t[1] * s[2]
    return (a > b) - (a < b)


def offset_between(left: Triple, middle: Triple, right: Triple) -> bool:
    """Reference for `geometry.collinear_between`: the offsets
    a = middle - left and b = right - middle, each cross-multiplied to
    integers by the positive product of its two W, have a zero cross
    product and a positive dot product."""
    def offset(s: Triple, t: Triple) -> Tuple[int, int]:
        (u, v, z), (x, y, w) = s, t
        return x * z - u * w, y * z - v * w

    (ax, ay), (bx, by) = offset(left, middle), offset(middle, right)
    return ax * by == ay * bx and ax * bx + ay * by > 0


def cmp_sorted_triples(triples) -> list:
    """Reference for `geometry.sorted_triples`: a sort by
    cross-multiplied comparisons of each pair."""
    return sorted(triples, key=functools.cmp_to_key(_compare_triples))


def concatenated_canonical_word(v: Signature) -> Word:
    """Reference for `words.canonical_word`: the letters (2,1)^|v1| and
    (2,3)^|v3|, concatenated."""
    return Word((2, 1) * (-v[0]) + (2, 3) * (-v[2]), 3)


def word_from_str(text: str, alphabet: int) -> Word:
    """The reduced word of a literal (`words.letters_from_str`) over the
    alphabet."""
    return Word.reduced(letters_from_str(text), alphabet)


def parity_normal_form(g: Word) -> Word:
    """Reference for `words.normal_form`: for each letter, from the largest
    down, shift its occurrences to the left within their position-parity
    class (a parity-preserving position permutation leaves the circle
    action unchanged) and cancel."""
    seq = list(g.letters)
    for letter in range(g.alphabet, 0, -1):
        odd = seq[0::2]
        even = seq[1::2]
        odd = [x for x in odd if x == letter] + [x for x in odd if x != letter]
        even = [x for x in even if x == letter] + [x for x in even if x != letter]
        merged = [odd[i // 2] if i % 2 == 0 else even[i // 2]
                  for i in range(len(seq))]
        seq = list(reduce_letters(merged))
    return Word(tuple(seq), g.alphabet)


def rand_fraction(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_interior_point(rng: random.Random, circle: Circle) -> Point:
    """Random rational point strictly inside the circle, by rejection on a
    box scaled slightly inside the radius."""
    while True:
        num = 2 * rng.randint(0, 48) - 48
        x = circle.center.x + circle.radius_sq * Fraction(num, 100)
        num = 2 * rng.randint(0, 48) - 48
        y = circle.center.y + circle.radius_sq * Fraction(num, 100)
        p = Point(x, y)
        if in_open_disk(circle, p):
            return p


def rand_unit_circle_point(rng: random.Random) -> Point:
    t = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
    return rational_circle_point(UNIT_CIRCLE, Point(Fraction(-1), Fraction(0)), t)


def rand_raw_letters(rng: random.Random, alphabet: int, max_len: int) -> tuple:
    return tuple(rng.randint(1, alphabet) for _ in range(rng.randint(0, max_len)))


def rand_word(rng: random.Random, alphabet: int, length: int) -> Word:
    letters = []
    for _ in range(length):
        choices = [x for x in range(1, alphabet + 1)
                   if not letters or x != letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters), alphabet)


class Side(enum.Enum):
    PLUS = 1
    MINUS = -1
    ON_LINE = 0


def halfplane_side(config: Config, p: Point) -> Side:
    """Which side of the interior line p lies on; the sign is the exact
    cross product against the stored point order."""
    if len(config.points) < 2:
        raise ActionError("configuration has no interior line")
    a, b = config.points[:2]
    s = cross(sub(b, a), sub(p, a))
    if s > 0:
        return Side.PLUS
    if s < 0:
        return Side.MINUS
    return Side.ON_LINE


def fraction_orbit(config: Config, c: Point, max_word_length: int) -> set:
    """Reference for `action.orbit`: the same breadth-first enumeration
    with each image computed by `fraction_reversion` on Fraction points."""
    if max_word_length < 0:
        raise ActionError(f"negative word-length bound {max_word_length}")
    if not on_circle(config.circle, c):
        raise ActionError(f"point {format_point(c)} is not on the configuration circle")
    seen = {c}
    frontier = {(c, 0)}
    for _ in range(max_word_length):
        nxt = set()
        for p, last in frontier:
            for letter in range(1, config.alphabet + 1):
                if letter == last:
                    continue
                q = fraction_reversion(config.circle, config.points[letter - 1], p)
                seen.add(q)
                nxt.add((q, letter))
        frontier = nxt
    return seen


def point_orbit(config: Config, c: Point, max_word_length: int) -> tuple:
    """The orbit as Points, in the order `action.orbit` gives its triples.
    That set and order are checked against `fraction_orbit` and the
    Fraction sort in test_integer_core.py; this is the input of the Point
    path that `point_orbit_stdout` and `point_render_svg` draw from."""
    return tuple(map(affine, orbit(config, c, max_word_length)))


def point_orbit_stdout(points: Sequence[Point]) -> str:
    """Reference for what `orbit` prints: one `format_point` line per
    point."""
    return "".join(format_point(p) + "\n" for p in points)


def point_cycle_polygon(config: Config, v: Signature) -> List[Point]:
    """Reference for `svg.cycle_polygon`: the chain of `fraction_reversion`
    images of the first off-line test point under the witness word
    (`classify._witness_word`) of a cycle verified by `act_is_cycle`."""
    v = tuple(v)
    if not any(v):
        raise UnverifiedCycle("the zero vector has no cycle polygon")
    if not act_is_cycle(config, v):
        raise UnverifiedCycle(f"{v} is not a cycle for this configuration")
    chain = [next(fraction_offline_test_points(config))]
    for letter in _witness_word(v).letters:
        chain.append(fraction_reversion(config.circle, config.points[letter - 1], chain[-1]))
    return chain


def point_render_svg(config: Config,
                     orbit_points: Optional[Sequence[Point]] = None,
                     cycle_points: Optional[Sequence[Point]] = None) -> str:
    """Reference for `svg.render_svg` on Points: every coordinate goes
    through `float` of its Fraction."""
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


def stab_contains(config: Config, c: Point, g: Word) -> bool:
    """Exact fixed-point test: act(c, g) == c."""
    return act(config, c, g) == c


def betweenness_iso_ok(mapping) -> bool:
    """Does this bijection preserve and reflect strict betweenness on every
    triple of its domain?"""
    pts = list(mapping)
    for p, q, r in itertools.permutations(pts, 3):
        if fraction_is_between(p, q, r) != fraction_is_between(mapping[p], mapping[q], mapping[r]):
            return False
    return True


def is_extreme_in_sample(sample, c: Point) -> bool:
    """No pair of sample points witnesses c strictly between them."""
    if c not in sample:
        raise ValueError(f"{c} is not in the sample")
    return not any(
        fraction_is_between(a, c, b) for a, b in itertools.combinations(sample, 2))


BRUTE_FORCE_CAP = 8


class CapExceeded(ValueError):
    """The brute-force oracle is limited to small samples."""


def _between_triples(pts: List[Point]) -> frozenset:
    """Index triples (i, j, k), i < k, with pts[j] strictly between."""
    found = set()
    for i, k in itertools.combinations(range(len(pts)), 2):
        for j in range(len(pts)):
            if j != i and j != k and fraction_is_between(pts[i], pts[j], pts[k]):
                found.add((i, j, k))
    return frozenset(found)


def brute_force_iso(sample_a: Sequence[Point],
                    sample_b: Sequence[Point]) -> Optional[Dict[Point, Point]]:
    """Exhaustive search for a betweenness isomorphism between two small
    point sets; returns the lexicographically first witness or None.

    Both sets are sorted by coordinates and every bijection is tried in
    permutation order, so the returned witness is deterministic.  The
    betweenness triples of each side are computed once; a bijection is an
    isomorphism exactly when it carries the one triple set onto the other.
    """
    if len(sample_a) != len(sample_b):
        return None
    if len(sample_a) > BRUTE_FORCE_CAP:
        raise CapExceeded(f"{len(sample_a)} points exceeds cap {BRUTE_FORCE_CAP}")
    a = sorted(set(sample_a), key=lambda p: (p.x, p.y))
    b = sorted(set(sample_b), key=lambda p: (p.x, p.y))
    if len(a) != len(sample_a) or len(b) != len(sample_b):
        raise ValueError("sample points must be pairwise distinct")
    ta = _between_triples(a)
    tb = _between_triples(b)
    if len(ta) != len(tb):
        return None
    for image in itertools.permutations(range(len(b))):
        ok = True
        for i, j, k in ta:
            pi, pj, pk = image[i], image[j], image[k]
            if pi > pk:
                pi, pk = pk, pi
            if (pi, pj, pk) not in tb:
                ok = False
                break
        if ok:
            return {a[m]: b[image[m]] for m in range(len(a))}
    return None


def _canonical_residual(points: tuple, v: Signature) -> Fraction:
    config = Config(UNIT_CIRCLE, points, Point.of(1, 0))
    return act(config, Point.of(0, 1), canonical_word(tuple(v))).x


def third_point_residual(v: Signature, a: Fraction) -> Fraction:
    """First coordinate of the canonical word of v acting on (0, 1), with
    interior points (-1/2, 0), (0, 0) and a moving third point (a, 0),
    a in (0, 1); zero exactly when the configuration realizes v."""
    return _canonical_residual((Point.of(Fraction(-1, 2), 0), Point.of(0, 0),
                                Point(Fraction(a), Fraction(0))), v)


def act_middle_point_residual(v: Signature, a: Fraction) -> Fraction:
    """Reference for `classify.middle_point_residual`: the canonical word of
    v acting through `act` on a freshly built configuration with interior
    points (-1/2, 0), (a, 0), (1/2, 0)."""
    return _canonical_residual((Point.of(Fraction(-1, 2), 0), Point(Fraction(a), Fraction(0)),
                                Point.of(Fraction(1, 2), 0)), v)


def chain_middle_point_residual(v: Signature, a: Fraction) -> Fraction:
    """Reference for `classify.middle_point_residual`: the canonical word of
    v run by `apply_homology` on the triple of (0, 1), with a homology
    built for the middle point (a, 0) at every call."""
    word = canonical_word(tuple(v))
    homologies = (point_homology(UNIT_CIRCLE, Point.of(Fraction(-1, 2), 0)),
                  point_homology(UNIT_CIRCLE, Point(Fraction(a), Fraction(0))),
                  point_homology(UNIT_CIRCLE, Point.of(Fraction(1, 2), 0)))
    x = (0, 1, 1)
    for letter in word.letters:
        x = apply_homology(homologies[letter - 1], x)
    return Fraction(x[0], x[2])


def fraction_realize_by_bisection(v: Signature, width_bound: Fraction) -> RealizationInterval:
    """Reference for `classify.realize_by_bisection`: the same bisection of
    [-1/2, 1/2] on Fraction endpoints, with one `chain_middle_point_residual`
    per point."""
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
    # the chain's homologies are defined where the middle point meets an end
    lo, hi = Fraction(-1, 2), Fraction(1, 2)
    if not chain_middle_point_residual(v, lo) > 0 > chain_middle_point_residual(v, hi):
        raise SignChangeError(f"no sign change between the ends -1/2 and 1/2 for {v}")
    while hi - lo > width_bound:
        mid = (lo + hi) / 2
        fmid = chain_middle_point_residual(v, mid)
        if fmid > 0:
            lo = mid
        elif fmid < 0:
            hi = mid
        else:
            lo = mid - width_bound / 2
            hi = mid + width_bound / 2
            if chain_middle_point_residual(v, lo) <= 0 \
                    or chain_middle_point_residual(v, hi) >= 0:
                raise SignChangeError(
                    f"endpoint signs failed around the exact root {mid} for {v}")
            break
    return RealizationInterval(v, lo, hi)


def count_sign_changes(values) -> int:
    """Strict sign alternations in a sequence, ignoring exact zeros."""
    signs = [1 if x > 0 else -1 for x in values if x != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def primitive_candidates(v2_max: int) -> Iterator[tuple]:
    """Canonical candidate vectors (v1, v2, v3), balanced, v1 <= v3 <= -1,
    gcd 1, ascending in v2 then in v1."""
    for v2 in range(1, v2_max + 1):
        for v1 in range(-(v2 - 1), -((v2 + 1) // 2) + 1):
            v3 = -v2 - v1
            v = (v1, v2, v3)
            if gcd_vec(v) == 1:
                yield v


def scan_search_cycle(config: Config, v2_max: int) -> Optional[Tuple[tuple, tuple]]:
    """Reference for `classify._search_cycle`: test every canonical
    candidate up to the bound with `act_is_cycle`, which shares no code
    with the search, in both point orders, and return the first
    (canonical, stored-order) hit or None."""
    for v in primitive_candidates(v2_max):
        if act_is_cycle(config, v):
            return v, v
        w = pi13(v)
        if w != v and act_is_cycle(config, w):
            return v, w
    return None


def chain_ratio(config: Config, v2_max: int) -> Tuple[int, int]:
    """The first (k, m) with p.(2,1)^k == p.(3,2)^m at the off-line test
    point p, for k, m < v2_max, divided by its gcd; (0, 0) when there is
    none.

    Both chains grow one level at a time and are joined on the exact
    points (canonical integer triples), so both stored orders are covered
    at once.  The hits are the multiples of the primitive cycle, so the
    first one found, divided by its gcd, is the primitive.
    """
    h1, h2, h3 = config.homologies
    pk = qm = config.test_triple
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
        return k // g, m // g
    return 0, 0


def linear_lucas(p: int, q: int, k: int) -> int:
    """Reference for `action._lucas`: N_k = q^k V_k(p/q) by k steps of
    N_k = p N_(k-1) - q^2 N_(k-2) from N_0 = 2 and N_1 = p."""
    a, b, qq = 2, p, q * q
    for _ in range(k):
        a, b = b, p * b - qq * a
    return a


def doubling_config(a: int) -> Config:
    """The unit-circle diameter configuration whose points (x, 0) have
    w = (1 + x)/(1 - x) = 1, 2^a and 2^(2a+1): lambda_12 = 2^a and
    lambda_23 = 2^(a+1), so its cycle is (-(a+1), 2a+1, -a).  Its
    coordinates have about 2a bits."""
    weights = (1, 2 ** a, 2 ** (2 * a + 1))
    return validate_config(UNIT_CIRCLE, [Point(Fraction(w - 1, w + 1), Fraction(0))
                                         for w in weights])


def doubling_file(directory: Path, a: int) -> Path:
    """`doubling_config(a)` written as a configuration file."""
    path = directory / f"doubling-{a}.cfg"
    path.write_text(serialize_config(doubling_config(a)), encoding="utf-8")
    return path


def chain_search_cycle(config: Config, v2_max: int) -> Optional[Tuple[tuple, tuple]]:
    """Reference for `classify._search_cycle`: the bounded chain search,
    O(B) reversions at the bound B, which joins the two point chains of
    the test point (`chain_ratio`) and knows nothing of tau."""
    if len(config.points) != 3:
        raise ConfigValidationError("count", "cycle search needs three points")
    if v2_max < 1:
        raise ValueError(f"v2_max must be >= 1, got {v2_max}")
    k, m = chain_ratio(config, v2_max)
    if k == 0 or k + m > v2_max:
        return None
    stored = (-k, k + m, -m)
    return (stored if k >= m else pi13(stored)), stored


# Lines y = slope x + offset whose chords of the unit circle have
# irrational ends: y = 1/3, 1/2, 2/5, 1/4 and 3/7, and y = x/3 + 1/4, which
# meets the circle where 160 x^2 + 24 x - 135 = 0, whose discriminant
# 86,976 is not a square.
IRRATIONAL_CHORDS = tuple((Fraction(s), Fraction(o)) for s, o in [
    (0, "1/3"), (0, "1/2"), (0, "2/5"), (0, "1/4"), (0, "3/7"), ("1/3", "1/4")])


def translated_config(chord, x1: Fraction, x2: Fraction, a: int, b: int) -> Config:
    """The unit-circle configuration c1, S^a.c1, S^(a+b).c1 for the points
    c1 and c2 at x1 < x2 on the chord (slope, offset), with S = H2 H1 the
    product of the reversions through c1 and c2.  S translates along the
    chord, so the points are a and b steps of S apart, in line order:
    lambda_12^k = lambda_23^m exactly when a k = b m, and the primitive
    cycle is (k, m) = (b, a) / gcd(a, b), stored as (-k, k+m, -m)."""
    slope, offset = chord
    h1, h2 = (point_homology(UNIT_CIRCLE, Point(x, slope * x + offset)) for x in (x1, x2))
    chain = [homogeneous(Point(x1, slope * x1 + offset))]
    for _ in range(a + b):
        chain.append(apply_homology(h2, apply_homology(h1, chain[-1])))
    return validate_config(UNIT_CIRCLE, [affine(chain[i]) for i in (0, a, a + b)])


def find_primitive_cycle(config: Config, v2_max: int) -> Optional[tuple]:
    """The primitive cycle vector in canonical form, or None up to the
    bound: the canonical half of `classify._search_cycle`."""
    found = _search_cycle(config, v2_max)
    return found[0] if found else None


# A table token of the Point oracles: a point, or a chord end.
Token = Union[Point, EndpointToken]


def point_of(key) -> Token:
    """The Point of a table key's triple; a chord-end token stays itself."""
    return affine(key) if isinstance(key, tuple) else key


def token_text(token) -> str:
    """How table messages print a key or token: the point as `format_point`
    gives it, a chord end as endpoint-<role>."""
    token = point_of(token)
    if isinstance(token, EndpointToken):
        return f"endpoint-{token.role}"
    return format_point(token)


def _triple_between(a: Token, x: Token, b: Token,
                    pos: Dict[Token, int]) -> bool:
    """Strict betweenness extended to endpoint tokens: ordinal along the
    hull when all three tokens sit on it, impossible when an endpoint token
    meets a non-hull point (endpoints lie on the interior line and on the
    circle; every non-hull table point is off that line, and no three
    circle points are collinear)."""
    if a in pos and x in pos and b in pos:
        return min(pos[a], pos[b]) < pos[x] < max(pos[a], pos[b])
    if isinstance(a, EndpointToken) or isinstance(x, EndpointToken) \
            or isinstance(b, EndpointToken):
        return False
    return fraction_is_between(a, x, b)


def cubic_verify_table(table: PartialIsoTable) -> Optional[tuple]:
    """Reference for `iso.verify_table`: two-sided betweenness check over
    every triple of the table domain, on the Points of its keys; returns an
    offending source triple of keys or None.  Checking all triples is
    exactly the condition that every small subsample passes the
    brute-force oracle: a restriction is an isomorphism if and only if
    each of its triples agrees on both sides."""
    src_pos = {t: i for i, t in enumerate(point_hull(table.src))}
    dst_pos = {t: i for i, t in enumerate(point_hull(table.dst))}
    rows = [(point_of(a), point_of(b)) for a, b in table.rows]
    for r1, r2, r3 in itertools.combinations(range(len(rows)), 3):
        for i, j, k in ((r1, r2, r3), (r2, r1, r3), (r1, r3, r2)):
            (a, fa), (x, fx), (b, fb) = rows[i], rows[j], rows[k]
            if _triple_between(a, x, b, src_pos) != _triple_between(fa, fx, fb, dst_pos):
                return tuple(table.rows[m][0] for m in (i, j, k))
    return None


def serialize_table(table: PartialIsoTable) -> str:
    """A table as text: a header naming the permutation, then one
    tab-separated row per pair, each key as `CollisionError` messages
    print it."""
    lines = ["sigma\t" + " ".join(str(x) for x in table.sigma)]
    for src, dst in table.rows:
        lines.append(f"{_key_str(src)}\t->\t{_key_str(dst)}")
    return "\n".join(lines) + "\n"


def verify_label(config: Config, label: ClassLabel) -> bool:
    """Re-check everything a label claims, through `act`; True also for
    bounded no-cycle labels (they claim only the search result)."""
    if isinstance(label, NoCycleUpTo):
        return label.v2_bound >= 1
    v = label.vector
    if not (len(v) == 3 and is_balanced(v) and v[1] >= 1 and v[0] <= v[2] <= -1
            and gcd_vec(v) == 1):
        return False
    if signature_of(label.witness_word) not in (v, pi13(v)):
        return False
    return act(config, label.witness_point, label.witness_word) == label.witness_point


def act_is_cycle(config: Config, v: Signature) -> bool:
    """Reference for `action.is_cycle`: the normal-form word of v through
    `act` on Fraction points, at the first point of a fresh test-point
    stream."""
    if len(v) != config.alphabet:
        raise ActionError(f"vector length {len(v)} != alphabet {config.alphabet}")
    if not is_balanced(v):
        return False
    g = word_from_signature(tuple(v))
    p = next(fraction_offline_test_points(config))
    return act(config, p, g) == p


def trace_tau(hi, hj) -> Tuple[int, int]:
    """Reference for `action._tau` by the homology route: tau = lambda +
    1/lambda for the translation factor lambda >= 1 of the product of two
    homologies (`geometry.homology`), as the lowest-terms pair (p, q).

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


def powers_agree_is_cycle(config: Config, v: Signature) -> bool:
    """Reference for `action.is_cycle` on three points: the rule that
    checks the Lucas values at the vector's own entries.  A nonzero
    balanced v is a cycle exactly when v1 v3 > 0 and
    N_|v1|(tau_12) q_23^|v3| = N_|v3|(tau_23) q_12^|v1| (`linear_lucas`),
    with tau from the homology traces (`trace_tau`)."""
    if not is_balanced(v):
        return False
    if not any(v):
        return True
    h1, h2, h3 = config.homologies
    (p12, q12), (p23, q23) = trace_tau(h1, h2), trace_tau(h2, h3)
    a, b = abs(v[0]), abs(v[2])
    return v[0] * v[2] > 0 and \
        linear_lucas(p12, q12, a) * q23 ** b == linear_lucas(p23, q23, b) * q12 ** a


def rebind_everywhere(patch: pytest.MonkeyPatch, original, replacement) -> List[str]:
    """Rebind, through `patch`, every name that holds `original` in every
    `reversions` module to `replacement`, as `perfbench/spans.py` wraps
    its functions, so that no namespace keeps calling the original; the
    names of the modules patched, in `sys.modules` order."""
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "reversions" or module_name.startswith("reversions."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch.setattr(module, attr, replacement)
                    patched.append(module_name)
    return patched


@contextlib.contextmanager
def no_reversion_steps():
    """A context in which `walk` (which `act` and `_closed_chain` walk
    by) and `apply_homology` raise in every namespace that holds them, so
    that any reversion step taken inside it fails the test."""
    def refuse(*args):
        raise AssertionError("a reversion step was taken")

    with pytest.MonkeyPatch.context() as patch:
        for original in (action.walk, apply_homology):
            rebind_everywhere(patch, original, refuse)
        yield


def _act_stored_vector(config: Config, vector: tuple) -> tuple:
    if act_is_cycle(config, vector):
        return vector
    swapped = pi13(vector)
    if act_is_cycle(config, swapped):
        return swapped
    raise CollisionError(f"{vector} is not a cycle for the configuration")


def _act_orbit_seeds(config: Config, words: Sequence[Word], count: int) -> List[Point]:
    seeds: List[Point] = []
    taken: set = set()
    for p in fraction_offline_test_points(config):
        if count > 1:
            reached = {p} | {act(config, p, w) for w in words}
            if not taken.isdisjoint(reached):
                continue
            taken |= reached
        seeds.append(p)
        if len(seeds) == count:
            return seeds
    raise CollisionError("seed stream exhausted")  # pragma: no cover


def point_hull(config: Config) -> tuple:
    """Reference for `hull.collinear_hull` on Points: the low chord end,
    the points in stored order, the high chord end; one point alone."""
    if len(config.points) == 1:
        return config.points
    return (EndpointToken("low"),) + config.points + (EndpointToken("high"),)


def keyed_table(table: PartialIsoTable) -> PartialIsoTable:
    """The table with every Point of its rows and seed pairs replaced by its
    `homogeneous` triple, the key the library uses."""
    def key(token):
        return homogeneous(token) if isinstance(token, Point) else token

    return dataclasses.replace(
        table, rows=tuple((key(a), key(b)) for a, b in table.rows),
        seed_pairs=tuple((key(x), key(y)) for x, y in table.seed_pairs))


def act_build_partial_iso(s: Config, r: Config, verdict: IsoVerdict,
                          sample_words: Sequence[Word], seeds: int) -> PartialIsoTable:
    """Reference for `iso.build_partial_iso`: one `act` per sampled word and
    side on Fraction points, hulls of Points, seeds and mirroring from
    fresh test-point streams, and the well-definedness and injectivity maps
    keyed by points; the finished table is keyed by `keyed_table` and goes
    through `verify_table` as in the library."""
    if not isinstance(verdict, Isomorphic):
        raise VerdictError(f"need an Isomorphic verdict, got {format_verdict(verdict)}")
    if len(s.points) != len(r.points):
        raise VerdictError(
            f"configurations have {len(s.points)} vs {len(r.points)} interior points")
    l = len(s.points)
    for w in sample_words:
        if w.alphabet != l:
            raise VerdictError(f"sample word {w.letters} has alphabet {w.alphabet} != {l}")
    mirrored = (l == 3 and verdict.vector is not None
                and _act_stored_vector(s, verdict.vector) != _act_stored_vector(r, verdict.vector))
    hull_iso = hull_isomorphism(point_hull(s), point_hull(r), mirrored)
    sigma = hull_iso.sigma
    mapping: Dict[Token, Token] = {}

    def put(src: Token, dst: Token) -> None:
        if src in mapping:
            if mapping[src] != dst:
                raise CollisionError(f"source {token_text(src)} maps to both "
                                     f"{token_text(mapping[src])} and {token_text(dst)}")
            return
        mapping[src] = dst

    for a, b in hull_iso.pairs:
        put(a, b)
    seed_pairs = []
    if seeds > 0:
        xs = _act_orbit_seeds(s, sample_words, seeds)
        ys = _act_orbit_seeds(r, sample_words, seeds)
        seed_pairs = list(zip(xs, ys))
        for x, y in seed_pairs:
            for g in sample_words:
                put(act(s, x, g), act(r, y, apply_letter_permutation(g, sigma)))
    targets: Dict[Token, Token] = {}
    for src, dst in mapping.items():
        if dst in targets:
            raise CollisionError(f"targets collide: {token_text(targets[dst])} and "
                                 f"{token_text(src)} both map to {token_text(dst)}")
        targets[dst] = src
    table = keyed_table(PartialIsoTable(tuple(mapping.items()), sigma, tuple(seed_pairs), s, r))
    bad = verify_table(table)
    if bad is not None:
        raise CollisionError("triple check failed at " + ", ".join(map(token_text, bad)))
    return table


_X_AXIS = (Point.of(0, 0), Point.of(1, 0))


def fraction_realize_by_closing(v: Signature, c1x: Fraction, c2x: Fraction,
                                p0: Point) -> Optional[Config]:
    """Reference for `classify.realize_by_closing`: the chain of
    `fraction_reversion` on Fraction points, the forced third point by
    `line_line_intersection` with the axis, and None where the forced
    point is not interior and beyond the second one, or the word does not
    fix p0."""
    v = tuple(v)
    if len(v) != 3 or not is_balanced(v) or v[2] != -1 or v[0] > -1:
        raise RealizationError(
            f"{v} must be balanced with v3 = -1 and v1 <= -1")
    if not (-1 < c1x < c2x < 1):
        raise RealizationError(f"need -1 < c1x < c2x < 1, got {c1x}, {c2x}")
    if not on_circle(UNIT_CIRCLE, p0):
        raise RealizationError(f"point {format_point(p0)} is not on the unit circle")
    if p0.y == 0:
        raise RealizationError("p0 must be off the x-axis")
    c1 = Point(Fraction(c1x), Fraction(0))
    c2 = Point(Fraction(c2x), Fraction(0))
    word = canonical_word(v)
    q = p0
    for letter in word.letters[:-1]:
        q = fraction_reversion(UNIT_CIRCLE, (c1, c2)[letter - 1], q)
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


def fraction_search_closing_config(v: Signature) -> Optional[Config]:
    """Reference for `classify.search_closing_config`: the grid retry over
    (c1x, c2x, start chord slope) that it replaced, first success wins."""
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
                config = fraction_realize_by_closing(v, c1x, c2x, p0)
                if config is not None:
                    return config
    return None


def fresh(config: Config) -> Config:
    """An equal configuration with nothing cached yet."""
    return Config(config.circle, config.points, config.base_point)


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def load_perfbench(name: str) -> types.ModuleType:
    """Execute perfbench/<name>.py from its source, registered under a
    private module name, without writing a bytecode cache next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module
