import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    act_middle_point_residual,
    count_sign_changes,
    primitive_candidates,
    pt,
    scan_search_cycle,
    third_point_residual,
)
from reversions.action import act, is_cycle
from reversions.classify import (
    _search_cycle,
    ConfigValidationError,
    CycleLabel,
    NoCycleUpTo,
    RealizationError,
    avoid_all_cycles,
    classify,
    default_base_point,
    find_primitive_cycle,
    format_label,
    middle_point_residual,
    realize_by_bisection,
    realize_by_closing,
    search_closing_config,
    validate_config,
    verify_label,
)
from reversions.geometry import Circle, NotInterior, Point, UNIT_CIRCLE
from reversions.words import gcd_vec, is_balanced, pi13, signature_of


def check_of(excinfo):
    return excinfo.value.check


def test_validate_config_accepts_symmetric():
    config = validate_config(
        UNIT_CIRCLE, (pt("-1/2", 0), pt(0, 0), pt("1/2", 0)))
    assert config.points == (pt("-1/2", 0), pt(0, 0), pt("1/2", 0))
    assert config.base_point == pt(1, 0)


def test_validate_config_order_error():
    with pytest.raises(ConfigValidationError) as err:
        validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/2", 0), pt(0, 0)))
    assert check_of(err) == "ordering"


def test_validate_config_interiority_error():
    with pytest.raises(ConfigValidationError) as err:
        validate_config(UNIT_CIRCLE, (pt(0, 1), pt(0, 0), pt("1/2", 0)))
    assert check_of(err) == "interiority"


def test_validate_config_distinctness_error():
    with pytest.raises(ConfigValidationError) as err:
        validate_config(UNIT_CIRCLE, (pt(0, 0), pt(0, 0)))
    assert check_of(err) == "distinctness"


def test_validate_config_collinearity_error():
    with pytest.raises(ConfigValidationError) as err:
        validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt(0, "1/4"), pt("1/2", "1/8")))
    assert check_of(err) == "collinearity"


def test_validate_config_empty():
    with pytest.raises(ConfigValidationError) as err:
        validate_config(UNIT_CIRCLE, ())
    assert check_of(err) == "count"


def test_base_point_handling():
    surd = Circle.of(0, 0, 3)  # no rational point exists on x^2 + y^2 = 3
    with pytest.raises(ConfigValidationError) as err:
        validate_config(surd, (pt(0, 0),))
    assert check_of(err) == "base_point"
    explicit = validate_config(UNIT_CIRCLE, (pt(0, 0),), base_point=pt("3/5", "4/5"))
    assert explicit.base_point == pt("3/5", "4/5")
    with pytest.raises(ConfigValidationError):
        validate_config(UNIT_CIRCLE, (pt(0, 0),), base_point=pt("1/2", "1/2"))
    assert default_base_point(Circle.of(1, 2, Fraction(9, 4))) == pt("5/2", 2)


def test_primitive_candidates_shape():
    for v in primitive_candidates(8):
        assert is_balanced(v)
        assert v[1] >= 1 and v[0] <= v[2] <= -1
        assert gcd_vec(v) == 1
    listed = list(primitive_candidates(4))
    assert listed == [(-1, 2, -1), (-2, 3, -1), (-3, 4, -1)]


def test_find_primitive_cycle_symmetric(sym):
    assert find_primitive_cycle(sym, 8) == (-1, 2, -1)


def test_find_primitive_cycle_requires_bound(sym):
    with pytest.raises(ValueError):
        find_primitive_cycle(sym, 0)


def test_classify_symmetric(sym):
    label = classify(sym, 8)
    assert isinstance(label, CycleLabel)
    assert label.vector == (-1, 2, -1)
    assert act(sym, label.witness_point, label.witness_word) == label.witness_point
    assert verify_label(sym, label)
    assert format_label(label) == "cycle -1 2 -1"


def test_classify_scaled_copy(sym):
    scaled = validate_config(
        Circle.of(0, 0, 4), (pt(-1, 0), pt(0, 0), pt(1, 0)))
    label = classify(scaled, 8)
    assert isinstance(label, CycleLabel) and label.vector == (-1, 2, -1)


def test_classify_reversed_storage():
    closing = search_closing_config((-2, 3, -1))
    reversed_cfg = validate_config(closing.circle, closing.points[::-1])
    label = classify(reversed_cfg, 8)
    assert label.vector == (-2, 3, -1)
    # the stored-order cycle is the mirrored vector
    assert signature_of(label.witness_word) == (-1, 3, -2)
    assert verify_label(reversed_cfg, label)


def test_no_cycle_label(sym):
    candidate = avoid_all_cycles(6, seed=1)
    label = classify(candidate, 6)
    assert label == NoCycleUpTo(6)
    assert format_label(label) == "no-cycle-upto 6"
    assert verify_label(candidate, label)


def test_avoid_all_cycles_minimal_bound():
    # no candidate vector has middle entry 1, so the first sample wins
    config = avoid_all_cycles(1, seed=5)
    assert find_primitive_cycle(config, 1) is None


def test_detected_cycles_linearly_dependent():
    config = search_closing_config((-2, 3, -1))
    detected = []
    for v in primitive_candidates(8):
        for u in (v, pi13(v)):
            for k in (1, 2):
                scaled = tuple(k * x for x in u)
                if is_cycle(config, scaled):
                    detected.append(scaled)
    assert detected
    v0 = detected[0]
    for u in detected:
        assert v0[0] * u[1] == v0[1] * u[0] and v0[1] * u[2] == v0[2] * u[1]


def test_canonical_label_unique(sym):
    # pi13-related hits collapse onto one canonical label
    mirrored = validate_config(sym.circle, sym.points[::-1])
    assert classify(sym, 8).vector == classify(mirrored, 8).vector


def test_realize_by_closing_example():
    config = realize_by_closing((-1, 2, -1), Fraction(-1, 2), Fraction(0), pt(0, 1))
    assert config is not None
    assert config.points[2] == pt("1/2", 0)
    assert is_cycle(config, (-1, 2, -1))


def test_realize_by_closing_preconditions():
    with pytest.raises(RealizationError):
        realize_by_closing((-1, 2, -1), Fraction(-1, 2), Fraction(0), pt(1, 0))
    with pytest.raises(RealizationError):
        realize_by_closing((-1, 2, -2), Fraction(-1, 2), Fraction(0), pt(0, 1))
    with pytest.raises(RealizationError):
        realize_by_closing((-1, 2, -1), Fraction(1, 2), Fraction(0), pt(0, 1))


def test_search_closing_corpus():
    for v in [(-1, 2, -1), (-2, 3, -1), (-3, 4, -1), (-4, 5, -1)]:
        config = search_closing_config(v)
        assert config is not None
        assert classify(config, 8).vector == v


def test_bisection_symmetric_root():
    interval = realize_by_bisection((-1, 2, -1), Fraction(1, 2**20))
    assert interval.a_lo < 0 < interval.a_hi
    assert middle_point_residual((-1, 2, -1), Fraction(0)) == 0
    assert middle_point_residual((-1, 2, -1), interval.a_lo) > 0
    assert middle_point_residual((-1, 2, -1), interval.a_hi) < 0


def test_bisection_certificates():
    width = Fraction(1, 2**20)
    interval = realize_by_bisection((-2, 3, -1), width)
    assert interval.a_hi - interval.a_lo <= width
    assert middle_point_residual((-2, 3, -1), interval.a_lo) > 0
    assert middle_point_residual((-2, 3, -1), interval.a_hi) < 0
    # the enclosed abscissa realizes the vector approximately: the residual
    # at the midpoint is tiny but generally nonzero; exact realization is
    # the irrational root
    assert interval.a_lo > Fraction(-1, 2) and interval.a_hi < Fraction(1, 2)


def test_bisection_accepts_negated_vector():
    a = realize_by_bisection((-2, 3, -1), Fraction(1, 1024))
    b = realize_by_bisection((2, -3, 1), Fraction(1, 1024))
    assert (a.a_lo, a.a_hi) == (b.a_lo, b.a_hi)


def test_bisection_preconditions():
    with pytest.raises(RealizationError):
        realize_by_bisection((0, 1, -1), Fraction(1, 1024))
    with pytest.raises(RealizationError):
        realize_by_bisection((-1, 2, -1), Fraction(0))


def test_middle_point_residual_agrees_with_act():
    # every canonical vector with v2 <= 5, at 200 seeded abscissas in (-1/2, 1/2)
    rng = random.Random(5)
    abscissas = []
    for _ in range(200):
        q = rng.randint(2, 2**31)
        abscissas.append(Fraction(rng.randint(-((q - 1) // 2), (q - 1) // 2), q))
    vectors = [(v1, v2, -v2 - v1) for v2 in range(2, 6) for v1 in range(-(v2 - 1), 0)]
    assert len(vectors) == 10
    for v in vectors:
        for a in abscissas:
            assert middle_point_residual(v, a) == act_middle_point_residual(v, a)


@pytest.mark.parametrize("v, a, error", [
    ((-1, 2, -1), Fraction(1), NotInterior),
    ((-1, 2, -1), Fraction(-3, 2), NotInterior),
    ((-1, 2), Fraction(0), ValueError),
    ((1, -2, 1), Fraction(0), ValueError),
    ((-1, 3, -1), Fraction(0), ValueError),
])
def test_middle_point_residual_errors_match_act(v, a, error):
    with pytest.raises(error) as expected:
        act_middle_point_residual(v, a)
    with pytest.raises(error) as got:
        middle_point_residual(v, a)
    assert type(got.value) is type(expected.value)


def test_third_point_scan_at_most_one_sign_change():
    for v in [(-1, 2, -1), (-2, 3, -1), (-1, 3, -2)]:
        values = [third_point_residual(v, Fraction(k, 200)) for k in range(1, 200)]
        assert count_sign_changes(values) <= 1


def test_count_sign_changes():
    assert count_sign_changes([1, 2, -1, -3]) == 1
    assert count_sign_changes([1, 0, -1]) == 1
    assert count_sign_changes([1, 0, 1]) == 0
    assert count_sign_changes([-1, 1, -1]) == 2
    assert count_sign_changes([]) == 0


ROTATION = (Fraction(3, 5), Fraction(4, 5))
SCALE = Fraction(7, 2)
SHIFT = pt("11/3", "-5/7")


def move(p: Point) -> Point:
    """A fixed rational similarity: rotate, scale, then shift."""
    cos, sin = ROTATION
    x = cos * p.x - sin * p.y
    y = sin * p.x + cos * p.y
    return Point(SCALE * x + SHIFT.x, SCALE * y + SHIFT.y)


def moved_copy(config):
    """The configuration under `move`, with the default base point."""
    circle = Circle(move(config.circle.center), config.circle.radius_sq * SCALE * SCALE)
    return validate_config(circle, tuple(move(p) for p in config.points))


def diameter_config(weights, reverse=False):
    """Points at x = (w-1)/(w+1) on a diameter of the unit circle, moved by
    `move`.  Weights (1, s^|v3|, s^(|v1|+|v3|)) realize the canonical vector
    v; weights (1, p, p*q) with distinct primes p, q have no cycle, which
    would need p^|v1| = q^|v3|."""
    pts = [pt(Fraction(w - 1, w + 1), 0) for w in weights]
    if reverse:
        pts.reverse()
    return moved_copy(validate_config(UNIT_CIRCLE, pts))


def cycle_weights(v, s):
    return (1, s ** -v[2], s ** (-v[0] - v[2]))


def test_similarity_invariance(sym):
    for base in (sym, search_closing_config((-2, 3, -1))):
        assert classify(moved_copy(base), 8).vector == classify(base, 8).vector


JOIN_BOUND = 14


def assert_join_agrees_with_scan(config):
    """`_search_cycle` equals the scan at every bound up to JOIN_BOUND.  The
    scan's candidates at a bound are a prefix of those at JOIN_BOUND, so its
    answer there is its answer at JOIN_BOUND when that hit's middle entry is
    within the bound, and None otherwise."""
    scan = scan_search_cycle(config, JOIN_BOUND)
    for bound in range(1, JOIN_BOUND + 1):
        expected = scan if scan is not None and scan[0][1] <= bound else None
        assert _search_cycle(config, bound) == expected, bound
    return scan


def test_join_agrees_with_scan():
    for v in primitive_candidates(12):
        for s in (2, 3, 5):
            for reverse in (False, True):
                config = diameter_config(cycle_weights(v, s), reverse)
                stored = pi13(v) if reverse else v
                assert assert_join_agrees_with_scan(config) == (v, stored)
    for p, q in [(2, 3), (3, 2), (3, 5), (5, 7), (7, 2)]:
        for reverse in (False, True):
            config = diameter_config((1, p, p * q), reverse)
            assert assert_join_agrees_with_scan(config) is None
    for n in range(2, 10):
        v = (-(n - 1), n, -1)
        closing = search_closing_config(v)
        assert assert_join_agrees_with_scan(closing) == (v, v)
        mirrored = validate_config(closing.circle, closing.points[::-1])
        assert assert_join_agrees_with_scan(mirrored) == (v, pi13(v))


inner = st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=12)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(xs=st.lists(inner, min_size=3, max_size=3, unique=True), slope=inner, offset=inner)
def test_join_agrees_with_scan_on_random_triples(xs, slope, offset):
    # |x| <= 1/2 and |y| <= 3/4 keep every point inside the unit circle,
    # and ascending x is line order
    pts = [Point(x, slope * x + offset) for x in sorted(xs)]
    assert_join_agrees_with_scan(validate_config(UNIT_CIRCLE, pts))


@pytest.mark.parametrize("reverse", [False, True])
def test_cycle_bound_is_on_middle_entry(reverse, monkeypatch):
    # (-3, 5, -2): the chains meet at level 3, but the middle entry is 5
    v = (-3, 5, -2)
    config = diameter_config(cycle_weights(v, 2), reverse)
    assert classify(config, 4) == NoCycleUpTo(4)
    label = classify(config, 5)
    assert label.vector == v
    assert signature_of(label.witness_word) == (pi13(v) if reverse else v)

    def no_step(*args):
        raise AssertionError("bound 1 needs no reversion step")

    monkeypatch.setattr(sys.modules["reversions.classify"], "apply_homology", no_step)
    assert classify(config, 1) == NoCycleUpTo(1)
