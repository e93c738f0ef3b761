import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    DegenerateLine,
    along,
    TangentDirection,
    collinear,
    fraction_is_between,
    fraction_reversion,
    in_open_disk,
    line_line_intersection,
    on_circle,
    outcome,
    pt,
    rand_interior_point,
    rand_unit_circle_point,
    rational_circle_point,
    sub,
)
from reversions.geometry import (
    Circle,
    GeometryError,
    NotInterior,
    NotOnCircle,
    Point,
    UNIT_CIRCLE,
    format_fraction,
    is_between,
    parse_fraction,
    reversion,
)


def test_circle_requires_positive_radius():
    with pytest.raises(GeometryError):
        Circle.of(0, 0, 0)
    with pytest.raises(GeometryError):
        Circle.of(0, 0, -1)


def test_on_circle():
    assert on_circle(UNIT_CIRCLE, pt(0, 1))
    assert on_circle(UNIT_CIRCLE, pt("3/5", "4/5"))
    assert not on_circle(UNIT_CIRCLE, pt(1, 1))


def test_in_open_disk():
    assert in_open_disk(UNIT_CIRCLE, pt(0, 0))
    assert not in_open_disk(UNIT_CIRCLE, pt(0, 1))
    assert in_open_disk(UNIT_CIRCLE, pt("1/2", 0))


def test_is_between():
    assert is_between(pt(0, 0), pt(1, 0), pt(2, 0))
    assert not is_between(pt(0, 0), pt(0, 0), pt(2, 0))
    assert not is_between(pt(0, 0), pt(2, 0), pt(2, 0))
    assert not is_between(pt(0, 0), pt(1, 1), pt(2, 0))
    assert not is_between(pt(1, 1), pt(0, 0), pt(1, 1))


def test_collinear():
    assert collinear(pt(0, 0), pt(1, 1), pt(2, 2))
    assert not collinear(pt(0, 0), pt(1, 0), pt(0, 1))
    assert collinear(pt(3, 4), pt(3, 4), pt(7, -1))


def test_reversion_examples():
    assert reversion(UNIT_CIRCLE, pt(0, 0), pt(0, 1)) == pt(0, -1)
    assert reversion(UNIT_CIRCLE, pt("1/2", 0), pt(0, 1)) == pt("4/5", "-3/5")
    c = pt(1, 0)
    x = pt("1/3", "1/4")
    assert reversion(UNIT_CIRCLE, x, reversion(UNIT_CIRCLE, x, c)) == c


def test_reversion_preconditions():
    with pytest.raises(NotOnCircle):
        reversion(UNIT_CIRCLE, pt(0, 0), pt(2, 0))
    with pytest.raises(NotInterior):
        reversion(UNIT_CIRCLE, pt(2, 0), pt(0, 1))
    # coincident center and circle point is already a NotInterior violation
    with pytest.raises(NotInterior):
        reversion(UNIT_CIRCLE, pt(0, 1), pt(0, 1))


def test_rational_circle_point_examples():
    west = pt(-1, 0)
    assert rational_circle_point(UNIT_CIRCLE, west, 1) == pt(0, 1)
    assert rational_circle_point(UNIT_CIRCLE, west, Fraction(1, 2)) == pt("3/5", "4/5")
    assert rational_circle_point(UNIT_CIRCLE, west, 0) == pt(1, 0)
    with pytest.raises(TangentDirection):
        rational_circle_point(UNIT_CIRCLE, pt(0, 1), 0)
    with pytest.raises(NotOnCircle):
        rational_circle_point(UNIT_CIRCLE, pt(0, 2), 1)


def test_line_line_intersection():
    hit = line_line_intersection(pt(0, 0), pt(1, 0), pt("4/5", "-3/5"), pt(0, 1))
    assert hit == pt("1/2", 0)
    assert line_line_intersection(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)) is None
    assert line_line_intersection(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0)) is None
    with pytest.raises(DegenerateLine):
        line_line_intersection(pt(0, 0), pt(0, 0), pt(0, 1), pt(1, 1))


def test_reversion_random_involution_and_witness():
    rng = random.Random(11)
    for _ in range(200):
        c = rand_unit_circle_point(rng)
        x = rand_interior_point(rng, UNIT_CIRCLE)
        if x == c:
            continue
        image = reversion(UNIT_CIRCLE, x, c)
        assert on_circle(UNIT_CIRCLE, image)
        assert fraction_is_between(c, x, image)
        assert reversion(UNIT_CIRCLE, x, image) == c


def test_reversion_and_is_between_match_the_fraction_oracles():
    # the integer homology step and `collinear_between` against the
    # Fraction chord formula and segment test, refusals included
    rng = random.Random(13)
    # each circle with a rational point on it
    circles = [(UNIT_CIRCLE, pt(-1, 0)),
               (Circle.of(Fraction(1, 3), Fraction(-2, 5), Fraction(49, 25)), pt("26/15", "-2/5"))]
    for _ in range(300):
        circle, base = rng.choice(circles)
        p = rational_circle_point(circle, base, Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
        center = rng.choice([rand_interior_point(rng, circle), p, pt(2, 2)])
        got, want = (outcome(f, circle, center, p) for f in (reversion, fraction_reversion))
        if isinstance(want, Point):
            assert got == want
        else:
            assert got[0] is want[0]
        a, b = rand_interior_point(rng, circle), rand_interior_point(rng, circle)
        t = Fraction(rng.randint(-3, 13), 10)
        for x in (along(a, sub(b, a), t), rand_interior_point(rng, circle), a, b):
            assert is_between(a, x, b) == fraction_is_between(a, x, b)
            assert is_between(a, x, a) == fraction_is_between(a, x, a) is False


def rand_collinear_interior_triple(rng):
    """Three distinct interior points on one random chord line.  The
    triple-composition involution genuinely needs collinear centers."""
    while True:
        a = rand_interior_point(rng, UNIT_CIRCLE)
        b = rand_interior_point(rng, UNIT_CIRCLE)
        c = along(a, sub(b, a), Fraction(rng.randint(1, 9), 10))
        triple = (a, b, c)
        if len({a, b, c}) == 3 and in_open_disk(UNIT_CIRCLE, c):
            return triple


def test_triple_composition_involution():
    rng = random.Random(23)
    for _ in range(20):
        centers = rand_collinear_interior_triple(rng)
        c = rand_unit_circle_point(rng)
        image = c
        for trip in (centers, centers):
            for x in trip:
                image = reversion(UNIT_CIRCLE, x, image)
        assert image == c


def test_collinear_centers_chords_concur():
    rng = random.Random(37)
    centers = [pt("-2/5", 0), pt("1/10", 0), pt("3/7", 0)]

    def triple(c):
        for x in centers:
            c = reversion(UNIT_CIRCLE, x, c)
        return c

    for _ in range(20):
        c = rand_unit_circle_point(rng)
        d = rand_unit_circle_point(rng)
        if c.y == 0 or d.y == 0 or c == d:
            continue
        hit1 = line_line_intersection(c, triple(c), pt(0, 0), pt(1, 0))
        hit2 = line_line_intersection(d, triple(d), pt(0, 0), pt(1, 0))
        assert hit1 is not None and hit1 == hit2
        assert in_open_disk(UNIT_CIRCLE, hit1)


fractions_st = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@given(fractions_st)
def test_fraction_round_trip(x):
    assert parse_fraction(format_fraction(x)) == x


def test_fraction_parse_errors():
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    with pytest.raises(ValueError):
        parse_fraction("a/2")
