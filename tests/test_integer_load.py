"""Configuration loading on integer triples against the Fraction code it
replaces: `validate_config` and a direct `Config` must accept exactly the
configurations of `fraction_validate_config` and refuse the others under
the same check name and message, the off-line test-point stream must give the points of the
`rational_circle_point` stream, and nothing on the load path may call a
Fraction predicate."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    along,
    fraction_offline_test_points,
    fraction_validate_config,
    offline_test_points,
    offset_between,
    norm_sq,
    pt,
    rebind_everywhere,
    sub,
)
from reversions import action, geometry
from reversions.action import Config, _test_triples, act, orbit
from reversions.classify import ConfigValidationError, CycleLabel, classify, validate_config
from reversions.cli import parse_config
from reversions.geometry import (
    Circle,
    Point,
    collinear_between,
    conic,
    homogeneous,
)
from reversions.words import Word


def verdict(validate, circle, points, base):
    """The validated configuration, or the check name and message of the
    refusal."""
    try:
        return validate(circle, points, base)
    except ConfigValidationError as exc:
        return exc.check, str(exc)


def first_triples(config, count=5):
    return list(itertools.islice(_test_triples(config), count))


def oracle_triples(config, count=5):
    return [homogeneous(p) for p in itertools.islice(fraction_offline_test_points(config), count)]


small = st.builds(Fraction, st.integers(-21, 21), st.integers(1, 7))
halves = st.builds(Fraction, st.integers(-4, 4), st.just(9))
anchors = st.lists(st.tuples(halves, halves), min_size=2, max_size=2, unique=True)
params = st.lists(st.builds(Fraction, st.integers(-4, 12), st.sampled_from([8, 9])),
                  min_size=3, max_size=3, unique=True)
radii = st.one_of(st.tuples(small, small).filter(any),
                  st.tuples(st.sampled_from([(3, 4), (-5, 12), (1, 0), (0, -1)]),  # |d| rational
                            small.filter(bool)).map(lambda t: (t[0][0] * t[1], t[0][1] * t[1])))
kinds = st.sampled_from(["line"] * 8 + ["on", "off", "repeat"])
scales = st.sampled_from([Fraction(1), Fraction(10) ** 300, Fraction(1, 10**300),
                          Fraction(7, 3) * Fraction(10) ** -299])
shifts = st.sampled_from([Fraction(0), Fraction(10) ** 300, -Fraction(10) ** 300 + Fraction(1, 3)])


@st.composite
def raw_configs(draw):
    """(circle, points, base point or None) meant to reach every check: a
    circle through a rational point `on`, up to three points drawn from
    a line through two interior anchors (repeats, any order, some beyond
    the circle), `on` itself and points off the line, and a base that is
    missing, on the circle or just off it; everything moved by a
    similarity with coordinates up to 10^+-300."""
    center = Point(draw(small), draw(small))
    d = Point(*draw(radii))
    on = along(center, d, 1)
    normal = Point(-d.y, d.x)

    def inside(alpha, beta):  # |alpha d + beta normal|^2 < |d|^2 / 2
        return along(along(center, d, alpha), normal, beta)

    a, b = (inside(*ab) for ab in draw(anchors))
    n = draw(st.sampled_from([3, 3, 3, 3, 3, 2, 1, 0]))
    points = []
    for t in draw(params)[:n]:
        kind = draw(kinds)
        if kind == "repeat" and points:
            points.append(points[draw(st.integers(0, len(points) - 1))])
        elif kind == "on":
            points.append(on)
        elif kind == "off":
            points.append(inside(draw(halves), draw(halves)))
        else:
            points.append(along(a, sub(b, a), t))
    base = draw(st.sampled_from(
        [None, on, along(center, sub(center, on), 1), along(on, Point.of(0, 1), Fraction(1, 97))]))
    s, h = draw(scales), draw(shifts)

    def move(p):
        return Point(p.x * s + h, p.y * s - h)

    circle = Circle(move(center), norm_sq(d) * s * s)
    return circle, tuple(map(move, points)), None if base is None else move(base)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw=raw_configs())
def test_validate_config_agrees_with_fraction_oracle(raw):
    got = verdict(validate_config, *raw)
    assert got == verdict(fraction_validate_config, *raw) == verdict(Config, *raw)
    if not isinstance(got, tuple):
        assert got.conic == conic(got.circle)
        assert got.triples == tuple(map(homogeneous, got.points))
        assert first_triples(got) == oracle_triples(got)
        assert got.test_triple == first_triples(got)[0]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw=raw_configs())
def test_three_point_premise_agrees_with_offsets_and_validation(raw):
    # collinear with the middle point strictly between: the offset formula
    # agrees everywhere, and validation refuses a configuration for it
    # exactly when the premise fails, unless it refused it earlier
    _, points, _ = raw
    if len(points) != 3:
        return
    premise = collinear_between(*map(homogeneous, points))
    assert premise == offset_between(*map(homogeneous, points))
    got = verdict(validate_config, *raw)
    if not isinstance(got, tuple) or got[0] == "base_point":
        assert premise
    elif got[0] in ("distinctness", "collinearity", "ordering"):
        assert not premise


SYMMETRIC_TEXT = "circle 0 0 1\npoint -1/2 0\npoint 0 0\npoint 1/2 0\n"
UNIT = Circle.of(0, 0, 1)
FAR = Fraction(10) ** 300
NEAR = Fraction(1, 10**300)
CASES = {
    "empty": (UNIT, (), None, "count"),
    "repeated": (UNIT, (pt(0, 0), pt("1/2", 0), pt(0, 0)), None, "distinctness"),
    "repeated-unreduced": (UNIT, (pt("2/4", 0), pt("1/2", 0)), None, "distinctness"),
    "on-circle": (UNIT, (pt("3/5", "4/5"), pt(0, 0)), None, "interiority"),
    "outside": (UNIT, (pt(0, 0), pt(1, 1)), None, "interiority"),
    "off-line": (UNIT, (pt(0, 0), pt("1/2", 0), pt("1/4", "1/100")), None, "collinearity"),
    "misordered": (UNIT, (pt("-1/2", 0), pt("1/2", 0), pt(0, 0)), None, "ordering"),
    "misordered-diagonal": (UNIT, (pt("1/4", "1/4"), pt("-1/3", "-1/3"), pt("-1/5", "-1/5")),
                            None, "ordering"),
    "base-off-circle": (UNIT, (pt(0, 0),), pt("1/2", "1/2"), "base_point"),
    "irrational-no-base": (Circle.of(0, 0, 2), (pt(0, 0),), None, "base_point"),
    "one-point": (UNIT, (pt("1/3", "1/7"),), None, None),
    "two-points": (UNIT, (pt("-1/2", 0), pt("1/4", 0)), pt("3/5", "-4/5"), None),
    "three-points": (UNIT, (pt("1/2", "1/2"), pt(0, 0), pt("-1/3", "-1/3")), None, None),
    "huge": (Circle.of(FAR, -FAR, FAR * FAR), (pt(FAR, -FAR), pt(FAR + FAR / 2, -FAR)),
             pt(FAR + FAR * Fraction(3, 5), -FAR + FAR * Fraction(4, 5)), None),
    "huge-misordered": (Circle.of(0, FAR, FAR * FAR),
                        (pt(0, FAR), pt(FAR / 2, FAR), pt(FAR / 3, FAR)), None, "ordering"),
    "tiny": (Circle.of(NEAR, 0, NEAR * NEAR),
             (pt(NEAR / 2, 0), pt(NEAR, 0), pt(NEAR * Fraction(3, 2), 0)), None, None),
    "tiny-on-circle": (Circle.of(0, 0, NEAR * NEAR), (pt(0, 0), pt(0, NEAR)), None, "interiority"),
    "tiny-base-off": (Circle.of(0, 0, NEAR * NEAR), (pt(0, 0),), pt(NEAR, NEAR / 10**300),
                      "base_point"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_validate_config_cases(case):
    circle, points, base, check = CASES[case]
    got = verdict(validate_config, circle, points, base)
    assert got == verdict(fraction_validate_config, circle, points, base) \
        == verdict(Config, circle, points, base)
    if check is None:
        assert first_triples(got) == oracle_triples(got)
        assert list(itertools.islice(offline_test_points(got), 5)) == \
            list(itertools.islice(fraction_offline_test_points(got), 5))
    else:
        assert got[0] == check


def test_stream_skips_the_tangent_and_the_interior_line():
    # on r^2 = 2 from the base (1, -1), the direction (1, 1) is tangent,
    # so the first point is the chord end along (2, 1)
    tangent = validate_config(Circle.of(0, 0, 2), (pt(0, 0),), pt(1, -1))
    assert first_triples(tangent, 1) == [(1, -7, 5)]
    # from (1, 0) the chord along (1, 1) ends at (0, -1), on the line x = 0
    on_line = validate_config(UNIT, (pt(0, 0), pt(0, "-1/2")))
    assert first_triples(on_line, 1) == [(-3, -4, 5)]
    for config in (tangent, on_line):
        assert first_triples(config, 12) == oracle_triples(config, 12)
    # no Config has its base off the circle, where the chords would not end
    assert verdict(Config, UNIT, (pt(0, 0),), pt(1, 1)) == \
        ("base_point", "base point 1 1 is not on the circle")


def test_load_path_needs_no_fraction_predicate(monkeypatch):
    # `geometry.is_between` is the library's one Fraction predicate; the
    # others are the oracles' own, in tests/conftest.py
    def forbidden(*args):
        raise AssertionError("a Fraction predicate ran on the integer load path")

    assert "reversions.geometry" in rebind_everywhere(monkeypatch, geometry.is_between, forbidden)
    for text in (SYMMETRIC_TEXT, SYMMETRIC_TEXT + "base 3/5 -4/5\n",
                 "circle 0 0 1\npoint 1/3 1/7\n", "circle 0 0 2\npoint 0 0\npoint 1/2 1/2\nbase 1 1\n"):
        config = parse_config(text)
        assert config.test_triple[2] > 0
        assert len(config.homologies) == len(config.points)
        p = offline_test_points(config).__next__()
        word = Word(tuple(range(1, config.alphabet + 1)), config.alphabet)
        act(config, p, word)
        assert len(orbit(config, p, 3)) > 1
    label = classify(parse_config(SYMMETRIC_TEXT), 8)
    assert isinstance(label, CycleLabel) and label.vector == (-1, 2, -1)
    for bad in ("circle 0 0 1\npoint 0 0\npoint 0 0\n", "circle 0 0 1\npoint 0 1\n",
                "circle 0 0 1\npoint 0 0\npoint 1/2 0\npoint 1/4 1/8\n",
                "circle 0 0 1\npoint 0 0\npoint 1/2 0\npoint 1/4 0\n",
                "circle 0 0 1\npoint 0 0\nbase 1 1\n"):
        with pytest.raises(ConfigValidationError):
            parse_config(bad)
    with pytest.raises(action.ActionError, match="not on the configuration circle"):
        act(parse_config(SYMMETRIC_TEXT), pt(1, 1), Word((1,), 3))
