import dataclasses
import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    IRRATIONAL_CHORDS,
    act_middle_point_residual,
    chain_middle_point_residual,
    chain_search_cycle,
    count_sign_changes,
    doubling_config,
    doubling_file,
    find_primitive_cycle,
    fraction_realize_by_bisection,
    fraction_realize_by_closing,
    fraction_search_closing_config,
    linear_lucas,
    load_perfbench,
    no_reversion_steps,
    offline_test_points,
    outcome,
    primitive_candidates,
    powers_agree_is_cycle,
    pt,
    rebind_everywhere,
    scan_search_cycle,
    third_point_residual,
    trace_tau,
    translated_config,
    verify_label,
)
from reversions.action import ActionError, Config, act, is_cycle, walk
from reversions.cli import EXIT_INVALID, EXIT_OK, MAX_BOUND, main, parse_config, serialize_config
from reversions.classify import (
    _search_cycle,
    ConfigValidationError,
    CycleLabel,
    NoCycleUpTo,
    RealizationError,
    RealizationInterval,
    SignChangeError,
    avoid_all_cycles,
    classify,
    default_base_point,
    format_label,
    middle_point_residual,
    realize_by_bisection,
    realize_by_closing,
    search_closing_config,
    validate_config,
)
from reversions.geometry import (
    Circle,
    NotInterior,
    Point,
    UNIT_CIRCLE,
    apply_homology,
    conic,
    homogeneous,
    homology,
)
from reversions.iso import ConditionallyIsomorphic, Isomorphic, build_partial_iso, decide_iso
from reversions.svg import cycle_polygon
from reversions.words import Word, gcd_vec, is_balanced, pi13, signature_of


def check_of(excinfo):
    return excinfo.value.check


def refused(circle, points, base_point=None) -> str:
    """The check that refuses the configuration, which must be the same,
    with the same message, for `validate_config` and a direct `Config`."""
    refusals = []
    for build in (validate_config, Config):
        with pytest.raises(ConfigValidationError) as err:
            build(circle, points, base_point)
        refusals.append((check_of(err), str(err.value)))
    assert refusals[0] == refusals[1]
    return refusals[0][0]


def test_validate_config_accepts_symmetric():
    points = (pt("-1/2", 0), pt(0, 0), pt("1/2", 0))
    config = validate_config(UNIT_CIRCLE, points)
    assert config.points == points
    assert config.base_point == pt(1, 0)
    assert Config(UNIT_CIRCLE, list(points), None) == config


def test_validate_config_order_error():
    assert refused(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/2", 0), pt(0, 0))) == "ordering"


def test_validate_config_interiority_error():
    assert refused(UNIT_CIRCLE, (pt(0, 1), pt(0, 0), pt("1/2", 0))) == "interiority"


def test_validate_config_distinctness_error():
    assert refused(UNIT_CIRCLE, (pt(0, 0), pt(0, 0))) == "distinctness"


def test_validate_config_collinearity_error():
    assert refused(UNIT_CIRCLE, (pt("-1/2", 0), pt(0, "1/4"), pt("1/2", "1/8"))) \
        == "collinearity"


def test_validate_config_empty():
    assert refused(UNIT_CIRCLE, ()) == "count"


def test_base_point_handling():
    surd = Circle.of(0, 0, 3)  # no rational point exists on x^2 + y^2 = 3
    assert refused(surd, (pt(0, 0),)) == "base_point"
    explicit = validate_config(UNIT_CIRCLE, (pt(0, 0),), base_point=pt("3/5", "4/5"))
    assert explicit.base_point == pt("3/5", "4/5")
    assert refused(UNIT_CIRCLE, (pt(0, 0),), pt("1/2", "1/2")) == "base_point"
    assert default_base_point(Circle.of(1, 2, Fraction(9, 4))) == pt("5/2", 2)


def test_validation_reports_the_first_failed_check():
    # a point outside x^2 + y^2 = 2 and no base line: the point checks run
    # before the default base point is sought on the irrational radius
    text = "circle 0 0 2\npoint 2 0\n"
    with pytest.raises(ConfigValidationError) as err:
        parse_config(text)
    assert (check_of(err), str(err.value)) == \
        ("interiority", "point 2 0 is not strictly inside the circle")
    assert refused(Circle.of(0, 0, 2), (pt(2, 0),)) == "interiority"
    assert refused(Circle.of(0, 0, 2), (pt(0, 0),)) == "base_point"


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


def test_verify_label_with_another_witness_point(sym):
    # classify's witness is the cached test point; any other witness point
    # is checked with `act`, on the circle or not
    label = classify(sym, 8)
    other = list(itertools.islice(offline_test_points(sym), 2))[1]
    assert verify_label(sym, dataclasses.replace(label, witness_point=other))
    with pytest.raises(ActionError, match="is not on the configuration circle"):
        verify_label(sym, dataclasses.replace(label, witness_point=pt(0, "1/3")))


def test_verify_label_refuses_a_bad_shape_or_a_foreign_word(sym):
    # the vector must be canonical, of any length, and the witness word's
    # signature the vector or its 1<->3 swap
    label = classify(sym, 8)
    for vector in ((-1, 2, -1, 0), (-1, 2), (1, -2, 1), (-2, 4, -2), (-1, 3, -2), (0, 0, 0),
                   (-1, 2, 0)):
        assert verify_label(sym, dataclasses.replace(label, vector=vector)) is False, vector
    foreign = dataclasses.replace(label, vector=(-2, 3, -1))
    assert verify_label(sym, foreign) is False
    assert verify_label(sym, dataclasses.replace(foreign, witness_word=Word((2, 1), 3))) is False


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
    candidate = avoid_all_cycles(seed=1)
    label = classify(candidate, 6)
    assert label == NoCycleUpTo(6)
    assert format_label(label) == "no-cycle-upto 6"
    assert verify_label(candidate, label)


def test_avoid_all_cycles_minimal_bound():
    # the construction has no cycle at any bound, so none up to 1
    config = avoid_all_cycles(seed=5)
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
    config = realize_by_closing((-1, 2, -1), Fraction(-1, 2), Fraction(0))
    assert config is not None
    assert config.points[2] == pt("1/2", 0)
    assert is_cycle(config, (-1, 2, -1))


def test_realize_by_closing_preconditions():
    with pytest.raises(RealizationError):
        realize_by_closing((-1, 2, -2), Fraction(-1, 2), Fraction(0))
    with pytest.raises(RealizationError):
        realize_by_closing((-1, 2, -1), Fraction(1, 2), Fraction(0))


def test_search_closing_corpus():
    for v in [(-1, 2, -1), (-2, 3, -1), (-3, 4, -1), (-4, 5, -1)]:
        config = search_closing_config(v)
        assert config is not None
        assert classify(config, 8).vector == v


def test_search_closing_config_matches_the_grid_oracle():
    # the grid's first cell always succeeds, so one construction there
    # gives the configuration the whole grid search gave
    for n in range(2, 65):
        v = (-(n - 1), n, -1)
        assert serialize_config(search_closing_config(v)) == \
            serialize_config(fraction_search_closing_config(v)), n


def test_search_closing_config_steps_only_through_its_check(monkeypatch):
    # the third point is in closed form, (3^k - 1)/(3^k + 1) at the default
    # points, so the only homology steps are the 2n letters of the check,
    # which walks from the built configuration's test point: (0, -1) at
    # the default points, whose base is (1, 0)
    steps = []
    rebind_everywhere(monkeypatch, apply_homology,
                      lambda h, x: steps.append(x) or apply_homology(h, x))
    for n in range(2, 65):
        v = (-(n - 1), n, -1)
        steps.clear()
        config = search_closing_config(v)
        assert len(steps) == 2 * n and steps[0] == config.test_triple == (0, -1, 1)
        assert config.points[2] == pt(Fraction(3 ** (n - 1) - 1, 3 ** (n - 1) + 1), 0)
        steps.clear()
        config = realize_by_closing(v, Fraction(-1, 3), Fraction(1, 5))
        assert len(steps) == 2 * n and steps[0] == config.test_triple


def unit_circle_point(t: Fraction) -> Point:
    """The rational point ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)), on the
    upper half circle for t > 0 and on the lower one for t < 0."""
    return Point((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


abscissas = st.fractions(Fraction(-19, 20), Fraction(19, 20), max_denominator=20)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 12),
       cs=st.lists(abscissas, min_size=2, max_size=2, unique=True).map(sorted),
       t=st.fractions(Fraction(-8), Fraction(8), max_denominator=9).filter(bool))
@example(k=1, cs=[Fraction(-1, 2), Fraction(0)], t=Fraction(-1))
@example(k=12, cs=[Fraction(9, 10), Fraction(19, 20)], t=Fraction(1, 9))
def test_realize_by_closing_never_fails_and_matches_the_oracle(k, cs, t):
    # the oracle closes the chain from any off-axis circle point (the
    # porism), and its third point is the closed form's
    v = (-k, k + 1, -1)
    config = realize_by_closing(v, cs[0], cs[1])
    assert config == fraction_realize_by_closing(v, cs[0], cs[1], unit_circle_point(t))
    assert is_cycle(config, v)


@pytest.mark.parametrize("args", [
    ((-1, 2, -2), Fraction(-1, 2), Fraction(0)),
    ((1, -2, 1), Fraction(-1, 2), Fraction(0)),
    ((-1, 3, -1), Fraction(-1, 2), Fraction(0)),
    ((-1, 1), Fraction(-1, 2), Fraction(0)),
    ((-1, 2, -1), Fraction(1, 2), Fraction(0)),
    ((-1, 2, -1), Fraction(-1), Fraction(0)),
    ((-1, 2, -1), Fraction(0), Fraction(1)),
])
def test_realize_by_closing_refusals_match_the_oracle(args):
    # the oracle's start point is on the circle and off the axis
    got = outcome(realize_by_closing, *args)
    assert got == outcome(fraction_realize_by_closing, *args, pt(0, 1))
    assert got[0] is RealizationError


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


def test_bisection_brackets_at_the_exact_ends():
    # alpha/beta is 3^(4m) at -1/2 and 3^(-4k) at 1/2 (`_residual_pair`), and
    # the chain oracle, whose homologies stay defined there, agrees in sign
    half = Fraction(1, 2)
    for k in range(1, 13):
        for m in range(1, 13):
            v, r, s = (-k, k + m, -m), 3 ** (4 * m), 3 ** (4 * k)
            assert middle_point_residual(v, -half) == Fraction(r - 1, r + 1), v
            assert middle_point_residual(v, half) == Fraction(1 - s, 1 + s), v
            assert chain_middle_point_residual(v, -half) > 0 > \
                chain_middle_point_residual(v, half), v


def test_bisection_stops_at_exactly_a_power_of_two_width():
    # a width 2^-h takes h halvings of [-1/2, 1/2] to the aligned dyadic
    # cell that holds the root, on either side of 0 and for either sign of v
    for h in (0, 1, 2, 7, 20, 64):
        width = Fraction(1, 2 ** h)
        for v in ((-2, 3, -1), (-1, 3, -2), (2, -3, 1), (1, -3, 2), (-5, 12, -7)):
            interval = realize_by_bisection(v, width)
            assert interval.a_hi - interval.a_lo == width, (v, h)
            assert ((interval.a_lo + Fraction(1, 2)) / width).denominator == 1, (v, h)
            w = interval.vector
            assert middle_point_residual(w, interval.a_lo) > 0 > \
                middle_point_residual(w, interval.a_hi), (v, h)


def test_bisection_accepts_negated_vector():
    a = realize_by_bisection((-2, 3, -1), Fraction(1, 1024))
    b = realize_by_bisection((2, -3, 1), Fraction(1, 1024))
    assert (a.a_lo, a.a_hi) == (b.a_lo, b.a_hi)


def test_bisection_preconditions():
    with pytest.raises(RealizationError):
        realize_by_bisection((0, 1, -1), Fraction(1, 1024))
    with pytest.raises(RealizationError):
        realize_by_bisection((-1, 2, -1), Fraction(0))


def residual_abscissas(count: int) -> list:
    """Seeded abscissas in (-1/2, 1/2) with denominators up to 2^31."""
    rng = random.Random(5)
    abscissas = []
    for _ in range(count):
        q = rng.randint(2, 2**31)
        abscissas.append(Fraction(rng.randint(-((q - 1) // 2), (q - 1) // 2), q))
    return abscissas


def test_middle_point_residual_agrees_with_act():
    # every canonical vector with v2 <= 24 against the chain at 20 seeded
    # abscissas, and those with v2 <= 5 against the chain and act at 200
    abscissas = residual_abscissas(200)
    vectors = [(v1, v2, -v2 - v1) for v2 in range(2, 25) for v1 in range(-(v2 - 1), 0)]
    assert len(vectors) == 276
    for v in vectors:
        for a in abscissas if v[1] <= 5 else abscissas[:20]:
            expected = chain_middle_point_residual(v, a)
            assert middle_point_residual(v, a) == expected, (v, a)
            if v[1] <= 5:
                assert act_middle_point_residual(v, a) == expected, (v, a)


def test_middle_point_residual_signs_the_translation_factors():
    # on the family (-1/2, 0), (a, 0), (1/2, 0) the residual has the sign
    # of lambda_23^m - lambda_12^k, which is the sign of
    # V_m(tau_23) - V_k(tau_12), V_k(p/q) = N_k / q^k (`_lucas`), as
    # x + 1/x increases for x > 1
    matrix = conic(UNIT_CIRCLE)
    ends = (homogeneous(pt("-1/2", 0)), homogeneous(pt("1/2", 0)))
    vectors = [(v1, v2, -v2 - v1) for v2 in range(2, 13) for v1 in range(-(v2 - 1), 0)]
    lucas = action_module._lucas
    for a in [Fraction(0), Fraction(1, 3), Fraction(-2, 7), *residual_abscissas(12)]:
        middle = homogeneous(Point(a, Fraction(0)))
        (p12, q12) = action_module._tau(matrix, ends[0], middle)
        (p23, q23) = action_module._tau(matrix, middle, ends[1])
        for v in vectors:
            k, m = -v[0], -v[2]
            gap = lucas(p23, q23, m) * q12 ** k - lucas(p12, q12, k) * q23 ** m
            residual = middle_point_residual(v, a)
            assert (residual > 0) - (residual < 0) == (gap > 0) - (gap < 0), (v, a)


# every balanced vector with entries up to 12 is (-k, k + m, -m)
balanced = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
    lambda km: abs(km[0] + km[1]) <= 12).map(lambda km: (-km[0], km[0] + km[1], -km[1]))
bisection_widths = st.one_of(
    st.integers(0, 64).map(lambda k: Fraction(1, 2**k)),
    st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(1, 1000), Fraction(5)]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(v=balanced, negate=st.booleans(), width=bisection_widths)
@example(v=(-1, 2, -1), negate=False, width=Fraction(1, 2**20))  # exact root 0
@example(v=(-3, 6, -3), negate=True, width=Fraction(2, 7))
@example(v=(-12, 13, -1), negate=False, width=Fraction(1, 2**64))
@example(v=(0, 0, 0), negate=False, width=Fraction(1, 3))
def test_bisection_matches_the_fraction_oracle(v, negate, width):
    if negate:
        v = tuple(-x for x in v)
    assert outcome(realize_by_bisection, v, width) == \
        outcome(fraction_realize_by_bisection, v, width)


def test_bisection_makes_no_homology_step(monkeypatch):
    # the residual polynomial pair is in closed form, so the search builds
    # and applies no homology
    width = Fraction(1, 2**30)
    expected = fraction_realize_by_bisection((-2, 3, -1), width)
    steps = []

    def counted(name, f):
        def step(*args):
            steps.append(name)
            return f(*args)
        return step

    for name, original in (("homology", homology), ("apply_homology", apply_homology)):
        rebind_everywhere(monkeypatch, original, counted(name, original))
    assert realize_by_bisection((-2, 3, -1), width) == expected
    assert steps == []


@pytest.mark.parametrize("v, a, error", [
    ((-1, 2, -1), Fraction(1), NotInterior),
    ((-1, 2, -1), Fraction(-3, 2), NotInterior),
    ((-1, 2), Fraction(0), ValueError),
    ((1, -2, 1), Fraction(0), ValueError),
    ((-1, 3, -1), Fraction(0), ValueError),
])
def test_middle_point_residual_errors_match_act(v, a, error):
    with pytest.raises(error) as got:
        middle_point_residual(v, a)
    expected = (type(got.value), str(got.value))
    assert outcome(chain_middle_point_residual, v, a) == expected
    if error is NotInterior:
        # act needs a Config, which refuses the middle point as it is built
        assert outcome(act_middle_point_residual, v, a)[0] is ConfigValidationError
    else:
        assert outcome(act_middle_point_residual, v, a) == expected


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

    monkeypatch.setattr(sys.modules["reversions.action"], "apply_homology", no_step)
    assert classify(config, 1) == NoCycleUpTo(1)


classify_module = sys.modules["reversions.classify"]
action_module = sys.modules["reversions.action"]
ORACLE_BOUNDS = range(1, 25)


def assert_dispatch_matches_chain(config):
    """`_search_cycle`, which decides every chord exactly, equals the
    bounded chain search at every bound from 1 to 24; returns the answer
    at the largest bound."""
    for bound in ORACLE_BOUNDS:
        found = _search_cycle(config, bound)
        assert found == chain_search_cycle(config, bound), bound
    return found


def test_dispatch_matches_chain_on_generated_cases():
    gen = load_perfbench("gen")
    rng = random.Random(29)
    for v in gen.canonical_vectors(12):
        for s in gen.CYCLE_BASES:
            for reverse in (False, True):
                case = gen.cycle_case(rng, v, s, reverse)
                k, m = -case.stored[0], -case.stored[2]
                assert action_module._cycle_ratio(case.config, 24) == (k, m)
                assert assert_dispatch_matches_chain(case.config) == (v, case.stored)
    for _ in range(40):
        case = gen.free_case(rng)
        assert action_module._cycle_ratio(case.config, MAX_BOUND) == (0, 0)
        assert assert_dispatch_matches_chain(case.config) is None


def test_dispatch_matches_chain_on_closing_configs():
    for n in range(2, 65):
        v = (-(n - 1), n, -1)
        closing = search_closing_config(v)
        assert action_module._cycle_ratio(closing, n) == (n - 1, 1)
        assert assert_dispatch_matches_chain(closing) == ((v, v) if n <= 24 else None)


def test_dispatch_matches_chain_on_avoid_all_cycles():
    # the construction does not rest on the cycle decision: with it
    # switched off, the same configuration comes back, and the chain
    # search agrees
    def no_decision(*args):
        raise AssertionError("the construction ran the cycle decision")

    for seed in (5, 1, 2, 3, 4):
        config = avoid_all_cycles(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify_module, "_cycle_ratio", no_decision)
            assert avoid_all_cycles(seed) == config
        assert assert_dispatch_matches_chain(config) is None


AVOID_SEEDS = range(-5, 41)


def test_avoid_all_cycles_is_cycle_free_in_closed_form():
    # w = (1/3, 1, 2^j) makes lambda_12 = 3 and lambda_23 = 2^j, and
    # 3^k = 2^(jm) has no solution with k, m >= 1: tau_12 = 10/3 and
    # tau_23 = (4^j + 1)/2^j, and already 3^k != 2^(jm) at any bound
    for seed in AVOID_SEEDS:
        config = avoid_all_cycles(seed)
        assert action_module._cycle_ratio(config, 10 ** 9) == (0, 0), seed
        tau12, tau23 = taus(config)
        j = abs(seed) + 1
        assert tau12 == (10, 3)
        assert tau23 == (4 ** j + 1, 2 ** j), seed


def test_avoid_all_cycles_has_no_chain_cycle_at_bound_64():
    for seed in AVOID_SEEDS:
        assert chain_search_cycle(avoid_all_cycles(seed), 64) is None, seed


def test_avoid_all_cycles_depends_on_the_size_of_the_seed():
    configs = {seed: avoid_all_cycles(seed) for seed in AVOID_SEEDS}
    for seed in range(1, 6):
        assert configs[-seed] == configs[seed]
    assert len({configs[seed].points for seed in range(41)}) == 41


diameter = st.fractions(Fraction(-20, 21), Fraction(20, 21), max_denominator=21)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(xs=st.lists(diameter, min_size=3, max_size=3, unique=True),
       seed=st.integers(0, 2**16), reverse=st.booleans())
@example(xs=[Fraction(-1, 2), Fraction(0), Fraction(1, 2)], seed=0, reverse=False)
@example(xs=[Fraction(0), Fraction(1, 3), Fraction(1, 2)], seed=1, reverse=True)
def test_dispatch_matches_chain_on_random_diameter_triples(xs, seed, reverse):
    gen = load_perfbench("gen")
    rng = random.Random(seed)
    sim = gen.random_similarity(rng)
    pts = [sim(pt(x, 0)) for x in sorted(xs, reverse=reverse)]
    config = validate_config(sim.circle(), pts, sim(gen.unit_circle_point(rng)))
    # rational chord ends: lambda = a/b and tau = (a^2 + b^2)/(a b), so
    # neither tau is an integer
    assert not any(q == 1 for _, q in taus(config))
    assert_dispatch_matches_chain(config)


def power_ratio_by_search(x, y):
    """The least (k, m), k, m >= 1, with x^k == y^m, or (0, 0).  When
    x = r^s and y = r^t solve it, k = t/gcd(s, t) <= log2(y) and
    m <= log2(x), so the search is complete."""
    for k in range(1, y.bit_length() + 1):
        for m in range(1, x.bit_length() + 1):
            if x ** k == y ** m:
                return k, m
    return 0, 0


power_bases = st.sampled_from([1, 2, 3, 5, 6, 10, 12, 30, 49, 1001])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(r=st.integers(1, 40), e1=st.integers(0, 9), e2=st.integers(0, 9),
       u=power_bases, w=power_bases)
@example(r=1, e1=1, e2=1, u=1, w=2)    # 1 against a number above it
@example(r=7, e1=3, e2=3, u=1, w=1)    # equal values
@example(r=2, e1=6, e2=4, u=1, w=1)    # 64 = 2^6 and 16 = 2^4
@example(r=6, e1=2, e2=3, u=1, w=1)    # 36 and 216
@example(r=1, e1=0, e2=0, u=12, w=49)  # coprime, not powers of one another
@example(r=1, e1=0, e2=0, u=12, w=6)   # not coprime, no common power
def test_power_ratio_matches_brute_force(r, e1, e2, u, w):
    x, y = r ** e1 * u, r ** e2 * w
    if x == y == 1:
        return
    assert action_module._power_ratio(x, y) == power_ratio_by_search(x, y)


def taus(config):
    """(p, q) of tau_12 and tau_23 (`action._tau`)."""
    c1, c2, c3 = config.triples
    return action_module._tau(config.conic, c1, c2), action_module._tau(config.conic, c2, c3)


def random_line_config(rng) -> Config:
    """A valid three-point configuration: a random rational center and
    radius, and three points in line order on a random rational line,
    vertical or horizontal one time in three each."""
    while True:
        r = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        center = pt(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        dx, dy = rng.choice([(0, 1), (1, 0), (rng.randint(-9, 9), rng.randint(-9, 9))])
        if dx == dy == 0:
            continue
        x0 = center.x + r * Fraction(rng.randint(-6, 6), 10)
        y0 = center.y + r * Fraction(rng.randint(-6, 6), 10)
        step = r / (40 * (abs(dx) + abs(dy)))
        ts = sorted(step * t for t in rng.sample(range(-39, 40), 3))
        if rng.random() < 0.5:
            ts.reverse()
        points = [pt(x0 + t * dx, y0 + t * dy) for t in ts]
        try:
            return validate_config(Circle(center, r * r), points)
        except ConfigValidationError:
            continue


def test_tau_from_the_quadratic_form_matches_the_homology_trace():
    # tau = (2B)^2 / (Q_i Q_j) - 2 (`action._tau`) against the trace of the
    # product of the two homologies (`trace_tau`), on 6,000 adjacent pairs
    rng = random.Random(22)
    slopes = set()
    for _ in range(3000):
        config = random_line_config(rng)
        a, b = config.points[:2]
        slopes.add("vertical" if a.x == b.x else "horizontal" if a.y == b.y else "other")
        c, h = config.triples, config.homologies
        for i in (0, 1):
            assert action_module._tau(config.conic, c[i], c[i + 1]) == \
                trace_tau(h[i], h[i + 1]), config
    assert slopes == {"vertical", "horizontal", "other"}


def irrational(tau) -> bool:
    """lambda + 1/lambda = p/q has an irrational root lambda exactly when
    p^2 - 4 q^2 is not a square."""
    p, q = tau
    d = p * p - 4 * q * q
    return math.isqrt(d) ** 2 != d


@pytest.mark.parametrize("y", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)])
def test_irrational_chord_ends_reach_the_chain_search(y):
    # the chords y = 1/3, 1/2 and 2/5 meet the unit circle at irrational
    # x = +-sqrt(1 - y^2), so the translation factors are irrational; the
    # decision agrees with the chain search there too
    xs = [Fraction(a, 12) for a in range(-9, 10, 3)]
    for left, middle, right in itertools.combinations(xs, 3):
        config = validate_config(UNIT_CIRCLE, [Point(x, y) for x in (left, middle, right)])
        assert all(map(irrational, taus(config)))
        assert_dispatch_matches_chain(config)


def test_premise_is_checked_when_the_config_is_built():
    # with the middle point outside the other two the words (2,1) and
    # (3,2) would translate in opposite directions, and off one line along
    # different lines; no Config has either, so the decision needs no guard
    assert refused(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/2", 0), pt(0, 0))) == "ordering"
    assert refused(UNIT_CIRCLE, (pt("-1/2", 0), pt(0, "1/4"), pt("1/2", 0))) == "collinearity"
    ordered = Config(UNIT_CIRCLE, (pt("-1/2", 0), pt(0, 0), pt("1/2", 0)), pt(1, 0))
    assert action_module._cycle_ratio(ordered, 40) == (1, 1)
    assert _search_cycle(ordered, 40) == chain_search_cycle(ordered, 40)
    assert find_primitive_cycle(ordered, 40) == (-1, 2, -1)
    assert_dispatch_matches_chain(ordered)


def test_square_d_classify_at_the_bound_cap_takes_no_step(monkeypatch):
    config = validate_config(UNIT_CIRCLE, (pt(0, 0), pt("1/3", 0), pt("5/7", 0)))

    def no_step(*args):
        raise AssertionError("square D needs no reversion step")

    monkeypatch.setattr(sys.modules["reversions.action"], "apply_homology", no_step)
    assert classify(config, 4096) == NoCycleUpTo(4096)


def test_irrational_chord_at_the_bound_cap_takes_no_step(tmp_path, capsys, monkeypatch):
    # -1/4, 0, 1/3 on y = 1/3: tau_12 = 274/119 and tau_23 = 18/7, whose
    # denominators have no common power, so the largest bound costs no
    # reversion step
    y = Fraction(1, 3)
    config = validate_config(UNIT_CIRCLE, [Point(x, y) for x in (Fraction(-1, 4), 0, y)])
    path = tmp_path / "chord.cfg"
    path.write_text(serialize_config(config))

    def no_step(*args):
        raise AssertionError("the cycle decision takes no reversion step")

    monkeypatch.setattr(sys.modules["reversions.action"], "apply_homology", no_step)
    bound = str(MAX_BOUND)
    assert main(["classify", str(path), "--bound", bound]) == EXIT_OK
    assert capsys.readouterr().out == f"no-cycle-upto {MAX_BOUND}\n"
    assert main(["iso", str(path), str(path), "--bound", bound]) == EXIT_OK
    assert capsys.readouterr().out == f"conditionally-isomorphic bound={MAX_BOUND}\n"


def test_translated_points_on_irrational_chords_give_their_ratio():
    # c1, S^a.c1, S^(a+b).c1 with S = H2 H1 are a and b steps of S apart:
    # the cycle is (k, m) = (b, a)/gcd(a, b), stored straight or mirrored
    rng = random.Random(16)
    xs = [Fraction(a, 12) for a in range(-6, 7)]
    for chord in IRRATIONAL_CHORDS:
        for a, b in itertools.product(range(1, 4), repeat=2):
            x1, x2 = sorted(rng.sample(xs, 2))
            config = translated_config(chord, x1, x2, a, b)
            assert all(map(irrational, taus(config)))
            g = math.gcd(a, b)
            k, m = b // g, a // g
            stored = (-k, k + m, -m)
            canonical = stored if k >= m else pi13(stored)
            assert assert_dispatch_matches_chain(config) == (canonical, stored)
            mirrored = validate_config(config.circle, config.points[::-1])
            assert assert_dispatch_matches_chain(mirrored) == (canonical, pi13(stored))


def chord_corpus(y: Fraction, den: int, reach: int):
    """Every triple of points x = a/den, |a| <= reach, on the chord y of
    the unit circle, in line order."""
    xs = [Fraction(a, den) for a in range(-reach, reach + 1)]
    for triple in itertools.combinations(xs, 3):
        yield validate_config(UNIT_CIRCLE, [Point(x, y) for x in triple])


def test_integral_tau_cases_match_the_chain():
    # on y = 1/2 and y = 1/4 some tau are integers (units of a real
    # quadratic field): both integral is a merge of two integer sequences,
    # which always finds a cycle here; one integral means no cycle
    both = one = 0
    for y, den, reach in [(Fraction(1, 2), 12, 10), (Fraction(1, 4), 24, 23)]:
        for config in chord_corpus(y, den, reach):
            (_, q12), (_, q23) = taus(config)
            if q12 == q23 == 1:
                both += 1
                assert assert_dispatch_matches_chain(config) is not None
            elif 1 in (q12, q23) and one < 40:
                one += 1
                assert assert_dispatch_matches_chain(config) is None
    assert both == 52 and one == 40


def test_lucas_refuted_cases_match_the_chain():
    # equal powers of the tau denominators but unequal numerators
    refuted = 0
    for y in (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)):
        for config in chord_corpus(y, 24, 10):
            (p12, q12), (p23, q23) = taus(config)
            k, m = action_module._power_ratio(q12, q23)
            if k and action_module._lucas(p12, q12, k) != action_module._lucas(p23, q23, m):
                refuted += 1
                assert assert_dispatch_matches_chain(config) is None
    assert refuted > 200


def test_lucas_doubling_matches_the_linear_recurrence():
    rng = random.Random(41)
    cases = [(rng.randint(-10**6, 10**6), rng.randint(1, 10**4), rng.randint(0, 200))
             for _ in range(300)]
    cases += [(p, q, k) for p in (-3, 0, 2, 7) for q in (1, 2, 9) for k in range(6)]
    for p, q, k in cases:
        assert action_module._lucas(p, q, k) == linear_lucas(p, q, k), (p, q, k)


def is_cycle_oracle_configs():
    """The configurations on which `is_cycle` meets its oracle: those of
    `test_integral_tau_cases_match_the_chain` (52 with both tau integral,
    40 with one) and of `test_lucas_refuted_cases_match_the_chain`, and
    the 138 generated cycle cases with v2 <= 12, every base, both orders."""
    one = 0
    for y, den, reach in [(Fraction(1, 2), 12, 10), (Fraction(1, 4), 24, 23)]:
        for config in chord_corpus(y, den, reach):
            (_, q12), (_, q23) = taus(config)
            if q12 == q23 == 1:
                yield config
            elif 1 in (q12, q23) and one < 40:
                one += 1
                yield config
    for y in (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)):
        for config in chord_corpus(y, 24, 10):
            (p12, q12), (p23, q23) = taus(config)
            k, m = action_module._power_ratio(q12, q23)
            if k and action_module._lucas(p12, q12, k) != action_module._lucas(p23, q23, m):
                yield config
    gen = load_perfbench("gen")
    rng = random.Random(29)
    for v in gen.canonical_vectors(12):
        for s in gen.CYCLE_BASES:
            for reverse in (False, True):
                yield gen.cycle_case(rng, v, s, reverse).config


def test_is_cycle_agrees_with_the_powers_agree_rule():
    # `is_cycle` reads the primitive (k, m) and tests for a multiple; the
    # rule it replaced checked the Lucas values at (|v1|, |v3|) themselves
    configs = list(is_cycle_oracle_configs())
    assert len(configs) > 52 + 40 + 200 + 138
    cycles = 0
    for config in configs:
        vectors = [(-a, a + b, -b) for a in range(1, 7) for b in range(1, 7)]
        vectors += [(1, 1, -2), (-3, 1, 2), (2, -7, 5), (0, 4, -4), (-5, 5, 0)]
        k, m = action_module._cycle_ratio(config, 10 ** 6)
        if k:
            cycles += 1
            vectors += [(-t * k, t * (k + m), -t * m) for t in range(1, 5)]
            vectors.append((k, -k - m, m))
            near = (-k - 1, k + m + 2, -m - 1)
            assert is_cycle(config, near) == (k == m == 1), (config, near)
            vectors.append(near)
        for v in vectors:
            assert is_cycle(config, v) == powers_agree_is_cycle(config, v), (config, v)
    assert cycles >= 52 + 138


def test_every_cycle_question_reads_the_one_primitive(monkeypatch):
    # with `_cycle_ratio` a raising stub in every namespace that holds it,
    # each cycle question on three points reaches the stub, and `is_cycle`
    # still answers the vectors it decides without the primitive
    class Decided(Exception):
        pass

    def stub(*args):
        raise Decided

    rebind_everywhere(monkeypatch, action_module._cycle_ratio, stub)
    config = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt(0, 0), pt("1/2", 0)))
    word = Word((2, 1, 2, 3), 3)
    for question in (lambda: is_cycle(config, (-1, 2, -1)),
                     lambda: is_cycle(config, (2, -3, 1)),
                     lambda: classify(config, 8),
                     lambda: decide_iso(config, config, 8),
                     lambda: build_partial_iso(config, config, Isomorphic((-1, 2, -1)), [word], 1),
                     lambda: cycle_polygon(config, (-1, 2, -1))):
        with pytest.raises(Decided):
            question()
    assert is_cycle(config, (0, 0, 0))
    for v in [(1, 1, -1), (-2, 2, 1), (0, 3, -3), (-3, 3, 0), (1, 1, -2), (-4, 1, 3)]:
        assert not is_cycle(config, v), v


def test_cycle_decisions_read_no_homology(monkeypatch):
    # with `Config.homologies` raising, `is_cycle` on the vectors above,
    # `classify` on cycle-free configurations and `decide_iso` of two of them
    # give their answers from the conic and the triples alone; `classify` of
    # a cycle decides it too, and raises only from the walk of its witness
    # (`_closed_chain`)
    class HomologiesRead(Exception):
        pass

    def read(self):
        raise HomologiesRead

    config = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt(0, 0), pt("1/2", 0)))
    vectors = [(-1, 2, -1), (2, -3, 1), (0, 0, 0), (1, 1, -1), (-2, 2, 1), (0, 3, -3),
               (-3, 3, 0), (1, 1, -2), (-4, 1, 3)]
    cycles = [is_cycle(config, v) for v in vectors]
    assert cycles == [True, False, True] + [False] * 6
    monkeypatch.setattr(Config, "homologies", property(read))
    config = validate_config(config.circle, config.points)
    assert [is_cycle(config, v) for v in vectors] == cycles
    for seed in AVOID_SEEDS:
        assert classify(avoid_all_cycles(seed), 64) == NoCycleUpTo(64), seed
    assert decide_iso(avoid_all_cycles(1), avoid_all_cycles(2), 64) == ConditionallyIsomorphic(64)
    assert _search_cycle(config, 8) == ((-1, 2, -1), (-1, 2, -1))
    with pytest.raises(HomologiesRead) as raised:
        classify(config, 8)
    assert [entry.name for entry in raised.traceback][-3:] == \
        ["classify", "_closed_chain", "read"]


@pytest.mark.parametrize("k, m", [(1, 1), (2, 1), (1, 2), (3, 5), (7, 4), (12, 1), (1, 12)])
def test_witness_word_interleaves_the_stored_cycle(k, m):
    word = classify_module._witness_word((-k, k + m, -m))
    pairs = [word.letters[i:i + 2] for i in range(0, len(word.letters), 2)]
    assert sorted(pairs) == [(2, 1)] * k + [(2, 3)] * m
    assert signature_of(word) == (-k, k + m, -m)
    # it acts as the normal-form word: both fix the test point of the cycle
    v = (-k, k + m, -m)
    for reverse in (False, True):
        config = diameter_config(cycle_weights(v if k >= m else pi13(v), 2), reverse)
        stored = pi13(v) if reverse != (k < m) else v
        label = classify(config, k + m)
        assert signature_of(label.witness_word) == stored
        assert label.witness_word == classify_module._witness_word(stored)


@pytest.mark.parametrize("v, pairs", [
    ((-1, 2, -1), "21 23"),
    ((-2, 3, -1), "21 23 21"),
    ((-1, 3, -2), "21 23 23"),
    ((-3, 5, -2), "21 23 21 23 21"),
])
def test_witness_word_draws_a_tie_as_2_1(v, pairs):
    # Bresenham from d = 0 takes (2,1) while d <= 0, so a tie, the first
    # pair included, goes to (2,1)
    letters = tuple(int(c) for c in pairs.replace(" ", ""))
    assert classify_module._witness_word(v) == Word(letters, 3)


def test_witness_walk_stays_near_the_homology_size():
    # the normal-form word (2,1)^k (2,3)^m walks out to about k log2 lambda_12
    # bits (2a^2 here) before it comes back; the interleaved witness stays
    # within a few times the size of the homologies (about 2a bits)
    for a in (10, 100, 300):
        config = doubling_config(a)
        label = classify(config, 4 * a)
        assert label.vector == (-(a + 1), 2 * a + 1, -a)
        bits = max(abs(x).bit_length() for h in config.homologies
                   for x in (h[0], *h[1], *h[2]))
        chain = walk(config.homologies, config.test_triple, label.witness_word.letters)
        assert max(abs(x).bit_length() for t in chain for x in t) <= 3 * bits


@pytest.mark.parametrize("a", [300, 600])
def test_large_coordinate_cycles_classify_within_the_budget(tmp_path, capsys, a):
    # about 2a-bit coordinates and the cycle (-(a+1), 2a+1, -a): the Lucas
    # check, the witness walk and its re-check stay well under 2 s each, and
    # `is-cycle` walks no word
    path = str(doubling_file(tmp_path, a))
    vector = (-(a + 1), 2 * a + 1, -a)
    for argv, expected in [
            (["classify", path, "--bound", "4096"], "cycle {} {} {}\n".format(*vector)),
            (["iso", path, path, "--bound", "4096"], "isomorphic v=({},{},{})\n".format(*vector)),
            (["is-cycle", path, "--v", "{},{},{}".format(*vector)], "true\n"),
            (["is-cycle", path, "--v", "{},{},{}".format(*(2 * x for x in vector))], "true\n"),
            (["is-cycle", path, "--v", "{},{},{}".format(*pi13(vector))], "false\n")]:
        start = time.perf_counter()
        assert main(argv) == EXIT_OK
        assert time.perf_counter() - start < 2, argv
        assert capsys.readouterr().out == expected


def test_found_cycle_questions_take_no_reversion_step(tmp_path, capsys):
    # `is-cycle` of the cycle of the a = 300 doubling file and of its 1<->3
    # swap, and `render --cycle` of the swap, which is refused before any walk
    path = str(doubling_file(tmp_path, 300))
    with no_reversion_steps():
        for v, expected in [("-301,601,-300", "true\n"), ("-300,601,-301", "false\n")]:
            assert main(["is-cycle", path, "--v", v]) == EXIT_OK
            assert capsys.readouterr().out == expected
        start = time.perf_counter()
        assert main(["render", path, "--svg", str(tmp_path / "c.svg"),
                     "--cycle", "-300,601,-301"]) == EXIT_INVALID
        assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == \
        "error: (-300, 601, -301) is not a cycle for this configuration\n"
    assert not (tmp_path / "c.svg").exists()


def test_render_cycle_walks_the_witness_within_the_budget(tmp_path, capsys):
    # the polygon of the a = 300 cycle, and of twice it, walks the witness
    # word, whose triples stay near the size of the homologies: one polygon
    # of 2 v2 + 1 vertices, well under 2 s (the normal-form word of the
    # first took about 7 s)
    path = str(doubling_file(tmp_path, 300))
    svg = tmp_path / "c.svg"
    for t in (1, 2):
        v = (-301 * t, 601 * t, -300 * t)
        start = time.perf_counter()
        assert main(["render", path, "--svg", str(svg), "--cycle", "{},{},{}".format(*v)]) \
            == EXIT_OK
        assert time.perf_counter() - start < 2, v
        polygons = re.findall(r'<polygon points="([^"]*)"', svg.read_text(encoding="utf-8"))
        assert len(polygons) == 1 and len(polygons[0].split()) == 2 * v[1] + 1, v
    assert capsys.readouterr() == ("", "")


def test_cycle_walks_build_no_normal_form_word(tmp_path, capsys, monkeypatch):
    # with `word_from_signature` and `canonical_word` raising in every
    # namespace that holds them, `classify`, `render --cycle` and
    # `realize --closing` give the same answers and pictures: every walk of
    # a cycle takes its word from `_witness_word`
    sym = tmp_path / "sym.cfg"
    sym.write_text("circle 0 0 1\npoint -1/2 0\npoint 0 0\npoint 1/2 0\n", encoding="utf-8")
    closing = tmp_path / "closing.cfg"
    closing.write_text(serialize_config(search_closing_config((-3, 4, -1))), encoding="utf-8")
    svg = tmp_path / "c.svg"
    runs = [["classify", str(sym)], ["classify", str(closing), "--bound", "8"],
            ["render", str(sym), "--svg", str(svg), "--cycle", "-3,6,-3"],
            ["render", str(closing), "--svg", str(svg), "--cycle", "3,-4,1"],
            ["render", str(closing), "--svg", str(svg), "--cycle", "-6,8,-2"],
            ["realize", "--v", "-3,4,-1", "--closing"],
            ["realize", "--v", "-5,6,-1", "--closing"]]

    def answers() -> list:
        out = []
        for argv in runs:
            code = main(argv)
            picture = svg.read_bytes() if argv[0] == "render" else None
            out.append((code, capsys.readouterr(), picture))
        return out

    expected = answers()
    assert {code for code, _, _ in expected} == {EXIT_OK}

    def refuse(*args):
        raise AssertionError("a normal-form word was built")

    words_module = sys.modules["reversions.words"]
    for name in ("word_from_signature", "canonical_word"):
        rebind_everywhere(monkeypatch, getattr(words_module, name), refuse)
    with pytest.raises(AssertionError, match="normal-form word"):
        words_module.canonical_word((-1, 2, -1))
    assert answers() == expected


def test_avoid_all_cycles_refuses_a_seed_past_its_budget():
    # 2^(|seed| + 1) is never built for a seed past the budget
    assert avoid_all_cycles(-4096) == avoid_all_cycles(4096)
    for seed in (4097, -4097, 10 ** 9):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the budget of 4096"):
            avoid_all_cycles(seed)
        assert time.perf_counter() - start < 0.5


def test_cycle_ratio_on_a_thousand_doublings_is_fast():
    config = doubling_config(1000)
    start = time.perf_counter()
    assert action_module._cycle_ratio(config, 4096) == (1001, 1000)
    assert time.perf_counter() - start < 1


@pytest.fixture
def sym_file(tmp_path, sym):
    path = tmp_path / "sym.cfg"
    path.write_text(serialize_config(sym), encoding="utf-8")
    return str(path)


def assert_cli_refuses(argv, message, capsys, svg=None):
    """`main` exits 2 with the message as its one stderr line, prints
    nothing and writes no picture."""
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert svg is None or not svg.exists()


def test_closed_chain_refuses_a_witness_of_another_signature(sym, sym_file, tmp_path, capsys,
                                                              monkeypatch):
    # a `_witness_word` whose word lacks its last letter pair
    witness_word = classify_module._witness_word
    monkeypatch.setattr(classify_module, "_witness_word",
                        lambda v: Word(witness_word(v).letters[:-2], 3))
    svg = tmp_path / "c.svg"
    sym_message = "the witness word of (-1, 2, -1) has signature (-1, 1, 0)"
    closing_message = "the witness word of (-2, 3, -1) has signature (-1, 2, -1)"
    for call, message in ((lambda: classify(sym, 8), sym_message),
                          (lambda: cycle_polygon(sym, (-1, 2, -1)), sym_message),
                          (lambda: search_closing_config((-2, 3, -1)), closing_message)):
        with pytest.raises(SignChangeError) as err:
            call()
        assert str(err.value) == message
    assert_cli_refuses(["classify", sym_file], sym_message, capsys)
    assert_cli_refuses(["render", sym_file, "--svg", str(svg), "--cycle", "-1,2,-1"],
                       sym_message, capsys, svg)
    assert_cli_refuses(["realize", "--v", "-2,3,-1", "--closing"], closing_message, capsys)


def test_closed_chain_refuses_a_chain_that_does_not_close(sym, sym_file, tmp_path, capsys,
                                                           monkeypatch):
    # (-2, 3, -1) is not a cycle of the symmetric points, so its witness
    # chain does not close; the closing construction fails when its third
    # point moves
    svg = tmp_path / "c.svg"
    message = "the chain of the witness word of (-2, 3, -1) does not close"
    with pytest.raises(SignChangeError) as err:
        classify_module._closed_chain(sym, (-2, 3, -1))
    assert str(err.value) == message
    monkeypatch.setattr(classify_module, "_search_cycle",
                        lambda config, v2_max: ((-2, 3, -1), (-2, 3, -1)))
    monkeypatch.setattr(sys.modules["reversions.svg"], "is_cycle", lambda config, v: True)
    diameter_config = classify_module._diameter_config
    monkeypatch.setattr(classify_module, "_diameter_config",
                        lambda weights: diameter_config((*weights[:2], 2 * weights[2])))
    for call in (lambda: classify(sym, 8), lambda: cycle_polygon(sym, (-2, 3, -1)),
                 lambda: search_closing_config((-2, 3, -1))):
        with pytest.raises(SignChangeError) as err:
            call()
        assert str(err.value) == message
    assert_cli_refuses(["classify", sym_file], message, capsys)
    assert_cli_refuses(["render", sym_file, "--svg", str(svg), "--cycle", "-2,3,-1"],
                       message, capsys, svg)
    assert_cli_refuses(["realize", "--v", "-2,3,-1", "--closing"], message, capsys)


def test_classify_refuses_a_cycle_that_is_not_primitive(sym, sym_file, capsys, monkeypatch):
    monkeypatch.setattr(classify_module, "_search_cycle",
                        lambda config, v2_max: ((-2, 4, -2), (-2, 4, -2)))
    message = "the cycle (-2, 4, -2) is not primitive"
    with pytest.raises(SignChangeError) as err:
        classify(sym, 8)
    assert str(err.value) == message
    assert_cli_refuses(["classify", sym_file], message, capsys)


def test_bisection_checks_the_endpoint_signs_of_an_exact_root(capsys, monkeypatch):
    # the root of (-2, 3, -1) is left of 0, where the residual is negative;
    # a residual that reads 0 there makes a false exact root, and the two
    # endpoints around it are both negative
    residual_sign = classify_module._residual_sign
    monkeypatch.setattr(classify_module, "_residual_sign",
                        lambda v, n, d: 0 if n == 0 else residual_sign(v, n, d))
    message = "endpoint signs failed around the exact root 0 for (-2, 3, -1)"
    with pytest.raises(SignChangeError) as err:
        realize_by_bisection((-2, 3, -1), Fraction(1, 1024))
    assert str(err.value) == message
    assert_cli_refuses(["realize", "--v", "-2,3,-1", "--bisect"], message, capsys)
    # the true exact root 0 of the symmetric cycle passes its endpoint check
    assert realize_by_bisection((-1, 2, -1), Fraction(1, 1024)) == \
        RealizationInterval((-1, 2, -1), Fraction(-1, 2048), Fraction(1, 2048))
