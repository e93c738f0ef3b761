"""The integer projective core against the Fraction reversion it replaces
on every chain: `act`, `orbit` and `cycle_polygon` run on primitive
integer triples, and each must give exactly the points of a fold of
`geometry.reversion`, on the unit circle, an off-centre circle and a
circle with irrational radius."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fraction_orbit, pt
from reversions.action import Config, act, offline_test_point, orbit
from reversions.geometry import (
    Circle,
    NotInterior,
    UNIT_CIRCLE,
    affine,
    apply_homology,
    conic,
    homogeneous,
    homology,
    in_open_disk,
    on_circle,
    rational_circle_point,
    reversion,
)
from reversions.svg import cycle_polygon
from reversions.words import Word, pi13, word_from_signature

OFF_CENTRE = Circle.of(Fraction(1, 3), Fraction(-2, 5), Fraction(49, 25))
IRRATIONAL = Circle.of(0, 0, 2)
# (circle, a rational point on it, the image of a unit-circle point (x, y))
CIRCLES = {
    "unit": (UNIT_CIRCLE, pt(1, 0), lambda x, y: pt(x, y)),
    "off-centre": (OFF_CENTRE, pt("26/15", "-2/5"),
                   lambda x, y: pt(Fraction(1, 3) + Fraction(7, 5) * x,
                                   Fraction(-2, 5) + Fraction(7, 5) * y)),
    "irrational": (IRRATIONAL, pt(1, 1), lambda x, y: pt(x - y, x + y)),
}

# |offset|^2 <= 0.98 < r^2 on all three circles
offsets = st.fractions(Fraction(-7, 10), Fraction(7, 10), max_denominator=12)
slopes = st.fractions(Fraction(0), Fraction(30), max_denominator=20)


@st.composite
def configs(draw, max_points=3):
    circle, base, _ = CIRCLES[draw(st.sampled_from(sorted(CIRCLES)))]
    n = draw(st.integers(1, max_points))
    deltas = draw(st.lists(st.tuples(offsets, offsets), min_size=n, max_size=n, unique=True))
    points = tuple(pt(circle.center.x + dx, circle.center.y + dy) for dx, dy in deltas)
    return Config(circle, points, base)


def start_point(config: Config, t: Fraction):
    return rational_circle_point(config.circle, config.base_point, t)


@st.composite
def words(draw, alphabet: int, max_length: int):
    """An irreducible word: each letter after the first moves 1..l-1 on."""
    length = draw(st.integers(0, max_length if alphabet > 1 else 1))
    letters = [draw(st.integers(1, alphabet))] if length else []
    for _ in range(length - 1):
        letters.append((letters[-1] + draw(st.integers(1, alphabet - 1)) - 1) % alphabet + 1)
    return Word(tuple(letters), alphabet)


def reversion_fold(config: Config, c, letters) -> list:
    chain = [c]
    for letter in letters:
        chain.append(reversion(config.circle, config.points[letter - 1], chain[-1]))
    return chain


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), config=configs(), t=slopes)
def test_act_agrees_with_reversion_fold(data, config, t):
    g = data.draw(words(config.alphabet, 60))
    c = start_point(config, t)
    assert act(config, c, g) == reversion_fold(config, c, g.letters)[-1]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(config=configs(), t=slopes, depth=st.integers(0, 8))
def test_orbit_agrees_with_fraction_orbit(config, t, depth):
    c = start_point(config, t)
    assert orbit(config, c, depth) == fraction_orbit(config, c, depth)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(circle=st.sampled_from(sorted(CIRCLES)), s=st.sampled_from([2, 3]),
       v=st.sampled_from([(-1, 2, -1), (-2, 3, -1), (-3, 5, -2), (-4, 7, -3), (-5, 6, -1)]),
       reverse=st.booleans())
def test_cycle_polygon_agrees_with_reversion_chain(circle, s, v, reverse):
    # points at x = (w-1)/(w+1) on a diameter with w = (1, s^|v3|,
    # s^(|v1|+|v3|)) realize v; a similarity carries them to each circle
    circ, base, move = CIRCLES[circle]
    weights = (1, s ** -v[2], s ** (-v[0] - v[2]))
    points = [move(Fraction(w - 1, w + 1), 0) for w in weights]
    if reverse:
        points.reverse()
    config = Config(circ, tuple(points), base)
    stored = pi13(v) if reverse else v
    chain = cycle_polygon(config, stored)
    expected = reversion_fold(config, offline_test_point(config),
                              word_from_signature(stored).letters)
    assert chain == expected
    assert chain[-1] == chain[0]


@pytest.mark.parametrize("circle", sorted(CIRCLES))
def test_triples_are_canonical_and_stay_on_the_conic(circle):
    circ, base, _ = CIRCLES[circle]
    a = conic(circ)
    hs = [homology(circ, circ.center + pt(dx, dy))
          for dx, dy in ((0, 0), ("1/5", "-1/7"), ("-2/3", "1/4"))]
    x = homogeneous(base)
    for k in range(40):
        x = apply_homology(hs[k % 3], x)
        assert x[2] > 0 and homogeneous(affine(x)) == x
        assert sum(x[i] * a[i][j] * x[j] for i in range(3) for j in range(3)) == 0
        assert on_circle(circ, affine(x))


@pytest.mark.parametrize("circle", sorted(CIRCLES))
def test_homology_needs_an_interior_center(circle):
    circ, base, _ = CIRCLES[circle]
    assert in_open_disk(circ, circ.center)
    homology(circ, circ.center)
    outside = circ.center + (base - circ.center).scale(Fraction(11, 10))
    for center in (base, outside, circ.center + (base - circ.center).scale(2)):
        with pytest.raises(NotInterior):
            homology(circ, center)
