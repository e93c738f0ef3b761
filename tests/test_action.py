import random
from fractions import Fraction

import pytest

from conftest import (
    Side,
    act_is_cycle,
    fresh,
    halfplane_side,
    no_reversion_steps,
    offline_test_points,
    point_orbit,
    pt,
    rand_word,
    stab_contains,
)
from reversions.action import ActionError, Config, act, is_cycle, offline_test_point, orbit
from reversions.classify import ConfigValidationError, validate_config
from reversions.geometry import UNIT_CIRCLE, Circle
from reversions.words import Word, normal_form, signature_of


def two_point_config(rng):
    while True:
        a = pt(Fraction(rng.randint(-7, 7), 16), Fraction(rng.randint(-7, 7), 16))
        b = pt(Fraction(rng.randint(-7, 7), 16), Fraction(rng.randint(-7, 7), 16))
        if a != b:
            return validate_config(UNIT_CIRCLE, (a, b))


def test_act_examples(sym):
    assert act(sym, pt(0, 1), Word((2,), 3)) == pt(0, -1)
    assert act(sym, pt(0, 1), Word((2, 1, 2, 3), 3)) == pt(0, 1)
    assert act(sym, pt(0, 1), Word.empty(3)) == pt(0, 1)


def test_act_intermediate_chain(sym):
    chain = [pt(0, 1), pt(0, -1), pt("-4/5", "3/5"), pt("4/5", "-3/5"), pt(0, 1)]
    letters = (2, 1, 2, 3)
    for k in range(1, 5):
        assert act(sym, chain[0], Word(letters[:k], 3)) == chain[k]


def test_act_preconditions(sym):
    with pytest.raises(ActionError):
        act(sym, pt(0, 2), Word((1,), 3))
    with pytest.raises(ActionError):
        act(sym, pt(0, 1), Word((1,), 2))


def test_action_law_random(sym):
    rng = random.Random(4)
    for _ in range(50):
        c = offline_test_point(sym)
        g = rand_word(rng, 3, rng.randint(0, 8))
        h = rand_word(rng, 3, rng.randint(0, 8))
        assert act(sym, act(sym, c, g), h) == act(sym, c, g * h)


def test_stab_examples(sym):
    assert stab_contains(sym, pt(0, 1), Word((2, 1, 2, 3), 3))
    assert not stab_contains(sym, pt(0, 1), Word((1,), 3))
    assert stab_contains(sym, pt(0, 1), Word.empty(3))


def test_orbit_single_point():
    config = validate_config(UNIT_CIRCLE, (pt(0, 0),))
    assert point_orbit(config, pt(0, 1), 5) == (pt(0, -1), pt(0, 1))


def test_orbit_depth_zero(sym):
    assert orbit(sym, pt(0, 1), 0) == ((0, 1, 1),)


def test_orbit_symmetric_depth_one(sym):
    # distinct points, sorted by (x, y)
    got = point_orbit(sym, pt(0, 1), 1)
    assert got == (pt("-4/5", "-3/5"), pt(0, -1), pt(0, 1), pt("4/5", "-3/5"))


def test_orbit_rejects_negative_bound(sym):
    with pytest.raises(ActionError):
        orbit(sym, pt(0, 1), -1)


def test_halfplane_side(sym):
    assert halfplane_side(sym, pt(0, 1)) is Side.PLUS
    assert halfplane_side(sym, pt(0, -1)) is Side.MINUS
    assert halfplane_side(sym, pt(1, 0)) is Side.ON_LINE
    single = validate_config(UNIT_CIRCLE, (pt(0, 0),))
    with pytest.raises(ActionError):
        halfplane_side(single, pt(0, 1))


def test_parity_flips_halfplane(sym):
    rng = random.Random(9)
    points = offline_test_points(sym)
    for _ in range(40):
        c = next(points)
        g = rand_word(rng, 3, rng.randint(1, 9))
        side_before = halfplane_side(sym, c)
        side_after = halfplane_side(sym, act(sym, c, g))
        if len(g) % 2 == 1:
            assert {side_before, side_after} == {Side.PLUS, Side.MINUS}
        else:
            assert side_before is side_after


def test_offline_test_point_is_deterministic_and_off_line(sym):
    p = offline_test_point(sym)
    assert p == pt(0, -1)
    assert halfplane_side(sym, p) is not Side.ON_LINE


def test_is_cycle_examples(sym):
    assert is_cycle(sym, (-1, 2, -1))
    assert is_cycle(sym, (0, 0, 0))
    assert not is_cycle(sym, (-2, 3, -1))
    assert not is_cycle(sym, (1, 0, 0))  # unbalanced: rejected without evaluation
    with pytest.raises(ActionError):
        is_cycle(sym, (-1, 2))


def test_is_cycle_decides_line_configs_in_closed_form():
    # On one line a word of signature (-a, a+b, -b) translates by
    # a (d2 - d1) - b (d3 - d2) in hyperbolic position, and with the
    # middle point between the others d2 - d1 and d3 - d2 have one sign:
    # the cycles have a b > 0, and (0, b, -b) and (-a, a, 0) are none.
    # On the diameter with w = (1 + x)/(1 - x) = 1, 2, 8, lambda_12 = 2
    # and lambda_23 = 4, so (-2, 3, -1) is the primitive cycle.
    radius_root_two = Circle.of(0, 0, 2)
    cases = [
        (Config(radius_root_two, (pt(0, "-1/10"), pt(0, 0), pt(0, "1/10")), pt(1, 1)),
         {(-1, 2, -1): True, (2, -4, 2): True, (-2, 1, 1): False, (2, -1, -1): False,
          (0, 1, -1): False}),
        (Config(UNIT_CIRCLE, (pt(0, 0), pt("1/3", 0), pt("7/9", 0)), pt(0, 1)),
         {(-2, 3, -1): True, (-4, 6, -2): True, (2, -3, 1): True, (-1, 3, -2): False,
          (-1, 2, -1): False, (1, 0, -1): False, (-1, 1, 0): False, (0, 0, 0): True}),
    ]
    for config, expected in cases:
        for v, cycle in expected.items():
            assert act_is_cycle(fresh(config), v) is cycle, v
            with no_reversion_steps():
                assert is_cycle(config, v) is cycle, v


def test_is_cycle_refuses_more_than_three_points():
    points = tuple(pt(Fraction(k, 5), 0) for k in range(4))
    config = validate_config(UNIT_CIRCLE, points)
    assert is_cycle(config, (0, 0, 0, 0))
    assert not is_cycle(config, (1, 0, 0, 0))
    with pytest.raises(ActionError, match="at most three points"):
        is_cycle(config, (-1, 1, 1, -1))


def test_is_cycle_porism_additional_points(sym):
    points = offline_test_points(sym)
    g = Word((2, 1, 2, 3), 3)
    for _ in range(10):
        c = next(points)
        assert stab_contains(sym, c, g)


def test_act_agrees_with_normal_form(sym):
    rng = random.Random(13)
    c = offline_test_point(sym)
    for _ in range(60):
        g = rand_word(rng, 3, rng.randint(0, 10))
        assert act(sym, c, g) == act(sym, c, normal_form(g))


def test_two_point_freeness_small():
    rng = random.Random(21)
    for _ in range(10):
        config = two_point_config(rng)
        c = offline_test_point(config)
        for length in range(1, 13):
            for first in (1, 2):
                letters = tuple((first + k) % 2 + 1 for k in range(length))
                assert act(config, c, Word(letters, 2)) != c


def test_mixed_parity_words_never_fix(sym):
    # letters of {1,2} on even positions and 3 on odd positions, or vice
    # versa, never fix an off-line point when the middle point is between.
    rng = random.Random(31)
    c = offline_test_point(sym)
    for _ in range(60):
        length = rng.randint(1, 12)
        three_on_odd = rng.choice([True, False])
        letters = []
        for pos in range(1, length + 1):
            if (pos % 2 == 1) == three_on_odd:
                letters.append(3)
            else:
                letters.append(rng.choice((1, 2)))
        word = Word(tuple(letters), 3)
        assert act(sym, c, word) != c


def test_signature_determines_action(sym):
    rng = random.Random(17)
    c = offline_test_point(sym)
    seen = {}
    for _ in range(80):
        g = rand_word(rng, 3, rng.randint(0, 8))
        key = signature_of(g)
        image = act(sym, c, g)
        if key in seen:
            assert seen[key] == image
        else:
            seen[key] = image


def test_coincident_first_points_raise_instead_of_hanging():
    # with repeated points the test-point stream would have no interior
    # line to avoid; no Config has them, as construction refuses them
    p = pt(0, 0)
    for points in ((p, p, pt("1/2", 0)), (p, p)):
        for build in (Config, validate_config):
            with pytest.raises(ConfigValidationError) as err:
                build(UNIT_CIRCLE, points, pt(1, 0))
            assert err.value.check == "distinctness"
