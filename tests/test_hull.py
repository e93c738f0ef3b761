import math
from fractions import Fraction

import pytest

from conftest import (
    BRUTE_FORCE_CAP,
    CapExceeded,
    betweenness_iso_ok,
    brute_force_iso,
    collinear,
    is_extreme_in_sample,
    pt,
)
from reversions.action import act, offline_test_point
from reversions.classify import validate_config
from reversions.geometry import Circle, UNIT_CIRCLE, affine
from reversions.hull import EndpointToken, collinear_hull, hull_isomorphism
from reversions.svg import _chord_ends
from reversions.words import Word


def test_hull_symmetric(sym):
    hull = collinear_hull(sym)
    # the points as canonical triples (X, Y, W): W > 0, gcd 1
    assert hull == (EndpointToken("low"), (-1, 0, 2), (0, 0, 1), (1, 0, 2),
                    EndpointToken("high"))
    # chord ends of the x-axis line are (-1, 0) and (1, 0)
    low, high = _chord_ends(sym)
    assert math.isclose(low[0], -1.0, abs_tol=1e-12)
    assert math.isclose(high[0], 1.0, abs_tol=1e-12)


def test_hull_endpoint_approx_on_circle():
    config = validate_config(
        UNIT_CIRCLE, (pt("-1/3", "1/8"), pt(0, "1/8"), pt("2/5", "1/8")))
    for x, y in _chord_ends(config):
        assert math.isclose(x * x + y * y, 1.0, rel_tol=1e-12)
        assert math.isclose(y, 1 / 8, abs_tol=1e-12)


def test_hull_single_point():
    config = validate_config(UNIT_CIRCLE, (pt("1/3", "1/7"),))
    assert collinear_hull(config) == ((7, 3, 21),)


def test_hull_two_points():
    config = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0)))
    assert collinear_hull(config) == (EndpointToken("low"), (-1, 0, 2),
                                      (1, 0, 4), EndpointToken("high"))


def test_hull_orders_along_line():
    # stored order is always monotone for validated configs, so the hull
    # keeps it, here running in decreasing x
    config = validate_config(
        UNIT_CIRCLE, (pt("1/2", 0), pt(0, 0), pt("-1/2", 0)))
    hull = collinear_hull(config)
    assert tuple(map(affine, hull[1:-1])) == config.points
    assert [affine(t).x for t in hull[1:-1]] == [Fraction(1, 2), 0, Fraction(-1, 2)]


def test_hull_closure_breaks_off_line(sym):
    # an off-line circle point is collinear with an interior point and a
    # second circle point outside the hull, so adding it is not closed
    hull = collinear_hull(sym)
    q = offline_test_point(sym)
    r = act(sym, q, Word((1,), 3))
    hull_points = {affine(t) for t in hull if isinstance(t, tuple)}
    assert collinear(q, sym.points[0], r)
    assert r not in hull_points and r != q


def test_hull_isomorphism_identity(sym):
    scaled = validate_config(
        Circle.of(0, 0, 4), (pt(-1, 0), pt(0, 0), pt(1, 0)))
    iso = hull_isomorphism(collinear_hull(sym), collinear_hull(scaled))
    assert iso.sigma == (1, 2, 3)
    assert iso.pairs == tuple(zip(collinear_hull(sym), collinear_hull(scaled)))
    one = validate_config(UNIT_CIRCLE, (pt(0, 0),))
    assert hull_isomorphism(collinear_hull(one), collinear_hull(one)).sigma == (1,)


def test_hull_isomorphism_reversed_tokens(sym):
    hull = collinear_hull(sym)
    iso = hull_isomorphism(hull, hull, reverse=True)
    assert iso.sigma == (3, 2, 1)
    assert iso.pairs == tuple(zip(hull, hull[::-1]))
    assert iso.pairs[0] == (EndpointToken("low"), EndpointToken("high"))
    two = collinear_hull(validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0))))
    assert hull_isomorphism(two, two, reverse=True).sigma == (2, 1)
    one = collinear_hull(validate_config(UNIT_CIRCLE, (pt(0, 0),)))
    assert hull_isomorphism(one, one, reverse=True).sigma == (1,)


def test_hull_isomorphism_size_mismatch(sym):
    two = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0)))
    assert hull_isomorphism(collinear_hull(sym), collinear_hull(two)) is None


def test_brute_force_iso_examples():
    a = [pt(0, 0), pt(1, 0), pt(2, 0)]
    b = [pt(0, 0), pt(1, 0), pt(4, 0)]
    mapping = brute_force_iso(a, b)
    assert mapping is not None
    assert mapping[pt(1, 0)] == pt(1, 0)  # middle to middle
    assert brute_force_iso(a, [pt(0, 0), pt(1, 1), pt(2, 0)]) is None
    single = brute_force_iso([pt(3, 4)], [pt(-1, -1)])
    assert single == {pt(3, 4): pt(-1, -1)}


def test_brute_force_iso_deterministic():
    # a discrete square admits many isomorphisms; the witness is the
    # lexicographically first bijection
    square = [pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1)]
    mapping = brute_force_iso(square, square)
    assert mapping == {p: p for p in square}


def test_brute_force_cap():
    many = [pt(i, i * i) for i in range(BRUTE_FORCE_CAP + 1)]
    with pytest.raises(CapExceeded):
        brute_force_iso(many, many)


def test_brute_force_requires_distinct():
    with pytest.raises(ValueError):
        brute_force_iso([pt(0, 0), pt(0, 0)], [pt(0, 0), pt(1, 0)])


def test_is_extreme_in_sample():
    line = [pt(0, 0), pt(1, 0), pt(2, 0)]
    assert not is_extreme_in_sample(line, pt(1, 0))
    assert is_extreme_in_sample(line, pt(0, 0))
    triangle = [pt(0, 0), pt(2, 0), pt(1, 2)]
    assert all(is_extreme_in_sample(triangle, p) for p in triangle)
    with pytest.raises(ValueError):
        is_extreme_in_sample(line, pt(5, 5))


def test_l2_counterexample_swap_fails_oracle():
    # hull of two interior points on the x-axis inside the unit circle, with
    # rational chord ends; swapping the ends while fixing everything else
    # satisfies the interior-point condition but not betweenness
    x1, c1, c2, x2 = pt(-1, 0), pt("-1/2", 0), pt("1/4", 0), pt(1, 0)
    extra = [pt(0, 1), pt("3/5", "-4/5")]
    sample = [x1, c1, c2, x2] + extra
    swap = {x1: x2, x2: x1, c1: c1, c2: c2, extra[0]: extra[0], extra[1]: extra[1]}
    assert not betweenness_iso_ok(swap)
    assert betweenness_iso_ok({p: p for p in sample})
    # the identity on just the interior points is trivially fine
    assert betweenness_iso_ok({c1: c1, c2: c2})


def test_hull_iso_agrees_with_brute_force_on_surrogates(sym):
    # replace endpoint tokens by rational stand-ins beyond the interior
    # points on the same line, preserving order
    scaled = validate_config(
        Circle.of(0, 0, 4), (pt(-1, 0), pt(0, 0), pt(1, 0)))
    iso = hull_isomorphism(collinear_hull(sym), collinear_hull(scaled))
    sample_a = [pt("-9/10", 0), pt("-1/2", 0), pt(0, 0), pt("1/2", 0), pt("9/10", 0)]
    sample_b = [pt("-19/10", 0), pt(-1, 0), pt(0, 0), pt(1, 0), pt("19/10", 0)]
    mapping = brute_force_iso(sample_a, sample_b)
    assert mapping is not None
    for a_tok, b_tok in iso.pairs:
        if isinstance(a_tok, tuple):
            assert mapping[affine(a_tok)] == affine(b_tok)
    # both matchings, with the stand-ins in place of the endpoint tokens,
    # are betweenness isomorphisms of the samples
    stand_a = dict(zip(collinear_hull(sym), sample_a))
    stand_b = dict(zip(collinear_hull(scaled), sample_b))
    for reverse in (False, True):
        pairs = hull_isomorphism(collinear_hull(sym), collinear_hull(scaled), reverse).pairs
        assert betweenness_iso_ok({stand_a[a]: stand_b[b] for a, b in pairs})
