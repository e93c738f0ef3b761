"""The integer projective core against the Fraction reversion it replaces
on every chain: `act`, `orbit` and `cycle_polygon` run on primitive
integer triples, and each must give exactly the points of a fold of
`fraction_reversion`, on the unit circle, an off-centre circle and a
circle with irrational radius.  `sorted_triples`, which orders the orbit,
must equal the Fraction sort and the cross-multiplying comparison sort it
replaces.  `is_cycle` and `build_partial_iso`, which run on triples from
the cached test point, must give the verdicts, tables and errors of their
`act`-based versions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BIG_ORBIT_TEXT,
    act_build_partial_iso,
    along,
    act_is_cycle,
    cmp_sorted_triples,
    fraction_orbit,
    fraction_reversion,
    fresh,
    in_open_disk,
    int_max_str_digits,
    no_reversion_steps,
    on_circle,
    outcome,
    pt,
    rational_circle_point,
    sub,
)
from reversions import action, iso
from reversions.action import ActionError, Config, act, is_cycle, offline_test_point, orbit
from reversions.classify import _witness_word
from reversions.cli import parse_config
from reversions.geometry import (
    Circle,
    NotInterior,
    UNIT_CIRCLE,
    affine,
    apply_homology,
    conic,
    homogeneous,
    homology,
    sorted_triples,
)
from reversions.iso import Isomorphic, build_partial_iso, decide_iso
from reversions.svg import UnverifiedCycle, cycle_polygon
from reversions.words import Word, enumerate_words, pi13

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
def configs(draw, min_points=1, max_points=3):
    """Points in line order on the segment between two distinct offsets,
    which stays in the square of the offsets and so inside the circle."""
    circle, base, _ = CIRCLES[draw(st.sampled_from(sorted(CIRCLES)))]
    n = draw(st.integers(min_points, max_points))
    (ax, ay), (bx, by) = draw(st.lists(st.tuples(offsets, offsets), min_size=2, max_size=2,
                                       unique=True))
    ts = draw(st.lists(st.fractions(0, 1, max_denominator=12), min_size=n, max_size=n,
                       unique=True))
    points = tuple(pt(circle.center.x + ax + t * (bx - ax), circle.center.y + ay + t * (by - ay))
                   for t in sorted(ts, reverse=draw(st.booleans())))
    return Config(circle, points, base)


def cycle_config(circle: str, s: int, v: tuple, reverse: bool) -> Config:
    """Points at x = (w-1)/(w+1) on a diameter with w = (1, s^|v3|,
    s^(|v1|+|v3|)) realize the canonical vector v; a similarity carries
    them to each circle.  Reversed, they carry v's 1<->3 swap in stored
    order."""
    circ, base, move = CIRCLES[circle]
    weights = (1, s ** -v[2], s ** (-v[0] - v[2]))
    points = [move(Fraction(w - 1, w + 1), 0) for w in weights]
    if reverse:
        points.reverse()
    return Config(circ, tuple(points), base)


CYCLES = [(-1, 2, -1), (-2, 3, -1), (-3, 5, -2), (-4, 7, -3), (-5, 6, -1)]
cycle_configs = st.builds(cycle_config, st.sampled_from(sorted(CIRCLES)), st.sampled_from([2, 3]),
                          st.sampled_from(CYCLES), st.booleans())


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
        chain.append(fraction_reversion(config.circle, config.points[letter - 1], chain[-1]))
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
    got = orbit(config, c, depth)
    assert isinstance(got, tuple)
    points = tuple(map(affine, got))
    assert set(points) == fraction_orbit(config, c, depth)
    assert all((p.x, p.y) < (q.x, q.y) for p, q in zip(points, points[1:]))
    assert all(homogeneous(p) == x for p, x in zip(points, got))


def test_orbit_expands_each_point_once(monkeypatch):
    config = Config(UNIT_CIRCLE, (pt(0, 0), pt("1/3", 0), pt("5/7", 0)), pt(1, 0))
    steps = []

    def counted(h, x):
        steps.append(x)
        return apply_homology(h, x)

    monkeypatch.setattr(action, "apply_homology", counted)
    got = orbit(config, pt(0, 1), 10)
    assert set(map(affine, got)) == fraction_orbit(config, pt(0, 1), 10)
    assert len(steps) <= 2 * len(got) + 1


BIT_BUDGET_MESSAGE = "an orbit coordinate has more than 14284 bits; lower the depth"


def test_orbit_stops_in_the_level_past_the_bit_budget(monkeypatch):
    config = parse_config(BIG_ORBIT_TEXT)
    start = pt(0, 1)
    with monkeypatch.context() as m:
        m.setattr(action, "MAX_ORBIT_BITS", 10 ** 6)
        whole = orbit(config, start, 11)
    steps = []

    def counted(h, x):
        # a search past level 11 fails here, by its steps, not by a clock
        assert len(steps) < 2 * len(whole) + 1, "the search went past level 11"
        steps.append(x)
        return apply_homology(h, x)

    monkeypatch.setattr(action, "apply_homology", counted)
    assert len(orbit(config, start, 10)) == 166
    within = len(steps)
    # the budget is the library's own: the search stops in level 11 of 60,
    # the first with a coordinate past 14,284 bits, whatever the digit limit
    for digits in (4300, 0, 100000):
        steps.clear()
        with int_max_str_digits(digits), pytest.raises(ActionError) as err:
            orbit(config, start, 60)
        assert str(err.value) == BIT_BUDGET_MESSAGE
        assert within < len(steps) <= 2 * len(whole) + 1, digits


def test_orbit_refuses_a_start_point_past_the_bit_budget():
    # 14,284 bits is the most whose numbers all print in 4300 digits,
    # Python's default limit: 2^14284 - 1 has 4300 digits, 10^4300 has 4301
    assert action.MAX_ORBIT_BITS == 14_284
    assert 10 ** 4299 <= 2 ** 14_284 - 1 < 10 ** 4300 and (10 ** 4300).bit_length() == 14_285
    r = 2 ** 14_284 - 1
    config = Config(Circle.of(0, 0, r * r), (pt(0, 0),), None)
    assert orbit(config, pt(r, 0), 1) == ((-r, 0, 1), (r, 0, 1))
    r += 1
    config = Config(Circle.of(0, 0, r * r), (pt(0, 0),), None)
    with pytest.raises(ActionError) as err:
        orbit(config, pt(r, 0), 0)
    assert str(err.value) == BIT_BUDGET_MESSAGE


def fraction_key(t):
    return Fraction(t[0], t[2]), Fraction(t[1], t[2])


# Triples whose float quotients tie or overflow: (k M + d, j M + e, M) for
# small k, j, d, e and a huge M sit within 1/M of (k, j).
near_ties = st.builds(
    lambda k, j, d, e, m: (k * m + d, j * m + e, m),
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3), st.integers(-3, 3),
    st.sampled_from([1, 3, 2**60 + 1, 2**80, 3**70, 10**400 + 7]))
beyond_float = st.tuples(
    st.sampled_from([10**400, -(10**400), 10**400 + 1, 7, 0]),
    st.sampled_from([10**500, -3, 0, 1]), st.sampled_from([1, 2, 10**399]))
small_triples = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), triples=st.lists(
    st.one_of(near_ties, beyond_float, small_triples), max_size=12))
def test_sorted_triples_is_the_fraction_sort(data, triples):
    shuffled = data.draw(st.permutations(triples))
    assert sorted_triples(shuffled) == sorted(shuffled, key=fraction_key) \
        == cmp_sorted_triples(shuffled)


def test_sorted_triples_separates_float_ties():
    # 1 + 2^-80 and 1 are equal as floats, so a float sort would order
    # these two on y; the exact order puts (1, 1) first
    m = 2**80
    assert sorted_triples([(m + 1, 0, m), (1, 1, 1)]) == [(1, 1, 1), (m + 1, 0, m)]
    # equal x, different y, and a quotient past the float range
    assert sorted_triples([(2, 5, 2), (1, -1, 1), (10**400, 0, 1)]) == \
        [(1, -1, 1), (2, 5, 2), (10**400, 0, 1)]
    # consecutive Fibonacci ratios F(n)/F(n+1) differ by 1/(F(n+1) F(n+2)),
    # far below 2^-b for denominators near 2^b, so the integer key needs
    # all 2 b bits of its shift to keep them apart
    fib = [0, 1]
    while len(fib) < 112:
        fib.append(fib[-1] + fib[-2])
    triples = [(fib[n], 0, fib[n + 1]) for n in range(100, 110)]
    assert sorted_triples(triples[::-1]) == sorted(triples, key=fraction_key) \
        == cmp_sorted_triples(triples[::-1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(circle=st.sampled_from(sorted(CIRCLES)), s=st.sampled_from([2, 3]),
       v=st.sampled_from(CYCLES), reverse=st.booleans())
def test_cycle_polygon_agrees_with_reversion_chain(circle, s, v, reverse):
    config = cycle_config(circle, s, v, reverse)
    stored = pi13(v) if reverse else v
    chain = cycle_polygon(config, stored)
    expected = reversion_fold(config, offline_test_point(config),
                              _witness_word(stored).letters)
    assert [affine(x) for x in chain] == expected
    assert chain == [homogeneous(p) for p in expected]
    assert chain[-1] == chain[0]


@pytest.mark.parametrize("circle", sorted(CIRCLES))
def test_triples_are_canonical_and_stay_on_the_conic(circle):
    circ, base, _ = CIRCLES[circle]
    a = conic(circ)
    hs = [homology(a, homogeneous(along(circ.center, pt(dx, dy), 1)))
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
    a = conic(circ)
    assert in_open_disk(circ, circ.center)
    homology(a, homogeneous(circ.center))
    radius = sub(base, circ.center)
    for t in (1, Fraction(11, 10), 2):
        with pytest.raises(NotInterior):
            homology(a, homogeneous(along(circ.center, radius, t)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), config=st.one_of(configs(), cycle_configs))
def test_is_cycle_agrees_with_act_oracle(data, config):
    l = config.alphabet
    v = data.draw(st.one_of(
        st.sampled_from(CYCLES + [pi13(v) for v in CYCLES] + [(0, 0, 0)]).map(lambda v: v[:l]),
        st.lists(st.integers(-6, 6), min_size=l, max_size=l).map(tuple),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(tuple)))
    assert outcome(is_cycle, config, v) == outcome(act_is_cycle, fresh(config), v)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), config=st.one_of(configs(), cycle_configs))
def test_is_cycle_takes_no_reversion_step(data, config):
    # the draws of test_is_cycle_agrees_with_act_oracle, decided with every
    # reversion step refused; cycle_polygon refuses a non-cycle before its walk,
    # and the context does refuse the steps of `act`
    l = config.alphabet
    v = data.draw(st.one_of(
        st.sampled_from(CYCLES + [pi13(v) for v in CYCLES] + [(0, 0, 0)]).map(lambda v: v[:l]),
        st.lists(st.integers(-6, 6), min_size=l, max_size=l).map(tuple),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(tuple)))
    expected = outcome(act_is_cycle, fresh(config), v)
    with no_reversion_steps():
        assert outcome(act, config, affine(config.test_triple), Word((1,), l)) == \
            (AssertionError, "a reversion step was taken")
        assert outcome(is_cycle, config, v) == expected
        if expected is False:
            assert outcome(cycle_polygon, config, v) == \
                (UnverifiedCycle, f"{v} is not a cycle for this configuration")


def test_is_cycle_oracle_sees_cycles():
    for v in CYCLES:
        for reverse in (False, True):
            config = cycle_config("off-centre", 2, v, reverse)
            stored = pi13(v) if reverse else v
            assert is_cycle(config, stored) and act_is_cycle(fresh(config), stored)
            assert is_cycle(config, pi13(stored)) == act_is_cycle(config, pi13(stored)) \
                == (v == pi13(v))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), l=st.sampled_from([1, 2, 3, 3, 3]), seeds=st.integers(0, 2),
       length=st.integers(0, 3))
def test_build_partial_iso_agrees_with_act_oracle(data, l, seeds, length):
    if l < 3:
        s = data.draw(configs(l, l), label="s")
        r = data.draw(configs(l, l), label="r")
        verdict = Isomorphic(None)
    else:
        s, r = data.draw(cycle_configs, label="s"), data.draw(cycle_configs, label="r")
        # the pair's own verdict, or a wrong one whose failure must match
        verdict = data.draw(st.sampled_from(
            [decide_iso(fresh(s), fresh(r), 8), Isomorphic(None), Isomorphic((-1, 2, -1))]),
            label="verdict")
    words = list(enumerate_words(data.draw(st.sampled_from([l, l, 3])), length))
    got = outcome(build_partial_iso, s, r, verdict, words, seeds)
    assert got == outcome(act_build_partial_iso, fresh(s), fresh(r), verdict, words, seeds)


def test_table_build_computes_the_test_point_once_and_one_step_per_word(monkeypatch):
    # decide_iso and the one-seed table build of a fresh mirrored pair: the
    # search, the witness, its re-check, the mirroring test and the seed
    # all read one cached test point per configuration, and every sampled
    # image is one homology step on the image of its prefix
    s = cycle_config("unit", 2, (-2, 3, -1), False)
    r = cycle_config("off-centre", 2, (-2, 3, -1), True)
    points = []
    steps = []
    stream = action._test_triples

    def counted_points(config):
        for x in stream(config):
            points.append(config.circle)
            yield x

    def counted_step(h, x):
        steps.append(x)
        return apply_homology(h, x)

    monkeypatch.setattr(action, "_test_triples", counted_points)
    monkeypatch.setattr(iso, "_test_triples", counted_points)
    monkeypatch.setattr(iso, "apply_homology", counted_step)
    verdict = decide_iso(s, r, 8)
    assert verdict == Isomorphic((-2, 3, -1))
    words = list(enumerate_words(3, 3))
    table = build_partial_iso(s, r, verdict, words, 1)
    assert sorted(map(id, points)) == sorted([id(s.circle), id(r.circle)])
    # one step per sampled word on each side, and, in the table check, one
    # chord end per interior point for every row off the 5-key hull
    assert len(steps) == 2 * (len(words) - 1) + 2 * 3 * (len(table.rows) - 5)
    assert table == act_build_partial_iso(fresh(s), fresh(r), verdict, words, 1)
