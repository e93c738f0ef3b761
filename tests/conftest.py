import enum
import itertools
import random
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import pytest

from reversions.action import ActionError, Config, act, is_cycle
from reversions.classify import validate_config
from reversions.geometry import (
    Circle,
    Point,
    UNIT_CIRCLE,
    is_between,
    on_circle,
    rational_circle_point,
    reversion,
)
from reversions.hull import EndpointToken
from reversions.iso import PartialIsoTable, Token
from reversions.words import Signature, Word, canonical_word, gcd_vec, pi13


def fr(a, b=1):
    return Fraction(a, b)


def pt(x, y):
    return Point(Fraction(x), Fraction(y))


def symmetric_config() -> Config:
    return validate_config(
        UNIT_CIRCLE, (pt("-1/2", 0), pt(0, 0), pt("1/2", 0)))


@pytest.fixture
def sym() -> Config:
    return symmetric_config()


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
        if (p - circle.center).norm_sq() < circle.radius_sq:
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
    a, b = config.line()
    s = (b - a).cross(p - a)
    if s > 0:
        return Side.PLUS
    if s < 0:
        return Side.MINUS
    return Side.ON_LINE


def fraction_orbit(config: Config, c: Point, max_word_length: int) -> set:
    """Reference for `action.orbit`: the same breadth-first enumeration
    with each image computed by `geometry.reversion` on Fraction points."""
    if max_word_length < 0:
        raise ActionError(f"negative word-length bound {max_word_length}")
    if not on_circle(config.circle, c):
        raise ActionError(f"{c} is not on the configuration circle")
    seen = {c}
    frontier = {(c, 0)}
    for _ in range(max_word_length):
        nxt = set()
        for p, last in frontier:
            for letter in range(1, config.alphabet + 1):
                if letter == last:
                    continue
                q = reversion(config.circle, config.points[letter - 1], p)
                seen.add(q)
                nxt.add((q, letter))
        frontier = nxt
    return seen


def stab_contains(config: Config, c: Point, g: Word) -> bool:
    """Exact fixed-point test: act(c, g) == c."""
    return act(config, c, g) == c


def betweenness_iso_ok(mapping) -> bool:
    """Does this bijection preserve and reflect strict betweenness on every
    triple of its domain?"""
    pts = list(mapping)
    for p, q, r in itertools.permutations(pts, 3):
        if is_between(p, q, r) != is_between(mapping[p], mapping[q], mapping[r]):
            return False
    return True


def is_extreme_in_sample(sample, c: Point) -> bool:
    """No pair of sample points witnesses c strictly between them."""
    if c not in sample:
        raise ValueError(f"{c} is not in the sample")
    return not any(
        is_between(a, c, b) for a, b in itertools.combinations(sample, 2))


BRUTE_FORCE_CAP = 8


class CapExceeded(ValueError):
    """The brute-force oracle is limited to small samples."""


def _between_triples(pts: List[Point]) -> frozenset:
    """Index triples (i, j, k), i < k, with pts[j] strictly between."""
    found = set()
    for i, k in itertools.combinations(range(len(pts)), 2):
        for j in range(len(pts)):
            if j != i and j != k and is_between(pts[i], pts[j], pts[k]):
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
    candidate up to the bound with `is_cycle`, in both point orders, and
    return the first (canonical, stored-order) hit or None."""
    for v in primitive_candidates(v2_max):
        if is_cycle(config, v):
            return v, v
        w = pi13(v)
        if w != v and is_cycle(config, w):
            return v, w
    return None


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
    return is_between(a, x, b)


def cubic_verify_table(table: PartialIsoTable) -> Optional[tuple]:
    """Reference for `iso.verify_table`: two-sided betweenness check over
    every triple of the table domain; returns an offending source triple or
    None.  Checking all triples is exactly the condition that every small
    subsample passes the brute-force oracle: a restriction is an
    isomorphism if and only if each of its triples agrees on both sides."""
    src_pos = {t: i for i, t in enumerate(table.src_hull)}
    dst_pos = {t: i for i, t in enumerate(table.dst_hull)}
    rows = list(table.rows)
    for r1, r2, r3 in itertools.combinations(rows, 3):
        for (a, fa), (x, fx), (b, fb) in ((r1, r2, r3), (r2, r1, r3), (r1, r3, r2)):
            if _triple_between(a, x, b, src_pos) != _triple_between(fa, fx, fb, dst_pos):
                return (a, x, b)
    return None
