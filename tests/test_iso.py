import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest

from conftest import (
    IRRATIONAL_CHORDS,
    act_build_partial_iso,
    cubic_verify_table,
    fresh,
    keyed_table,
    load_perfbench,
    offline_test_points,
    outcome,
    pt,
    rand_word,
    rebind_everywhere,
    serialize_table,
    stab_contains,
    symmetric_config,
    translated_config,
)
from reversions import geometry
from reversions.action import act, walk
from reversions.classify import (
    ConfigValidationError,
    avoid_all_cycles,
    default_base_point,
    search_closing_config,
    validate_config,
)
from reversions.geometry import Circle, Point, UNIT_CIRCLE, affine, format_point, homogeneous
from reversions.hull import EndpointToken, collinear_hull
from reversions.iso import (
    CollisionError,
    ConditionallyIsomorphic,
    Isomorphic,
    NotIsomorphic,
    PartialIsoTable,
    VerdictError,
    build_partial_iso,
    decide_iso,
    format_verdict,
    verify_table,
)
from reversions.words import Word, apply_letter_permutation, enumerate_words


def scaled_translated(config, scale, dx, dy):
    shift = Point(Fraction(dx), Fraction(dy))

    def transform(p):
        return Point(Fraction(scale) * p.x + shift.x, Fraction(scale) * p.y + shift.y)

    circle = Circle(transform(config.circle.center),
                    config.circle.radius_sq * Fraction(scale) ** 2)
    return validate_config(circle, tuple(transform(p) for p in config.points))


def test_decide_iso_low_l():
    rng = random.Random(3)
    for _ in range(5):
        a = validate_config(UNIT_CIRCLE, (pt(Fraction(rng.randint(-3, 3), 8),
                                             Fraction(rng.randint(-3, 3), 8)),))
        b = validate_config(Circle.of(9, 9, 25),
                            (pt(9 + Fraction(rng.randint(-3, 3), 2), 9),))
        assert decide_iso(a, b, 8) == Isomorphic(None)
    two_a = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", "1/8")))
    two_b = validate_config(Circle.of(0, 0, 4), (pt(1, 0), pt(0, 1)))
    assert decide_iso(two_a, two_b, 8) == Isomorphic(None)
    assert format_verdict(Isomorphic(None)) == "isomorphic trivial"


def test_decide_iso_mixed_l_errors(sym):
    one = validate_config(UNIT_CIRCLE, (pt(0, 0),))
    with pytest.raises(VerdictError):
        decide_iso(sym, one, 8)
    four = validate_config(UNIT_CIRCLE, (*sym.points, pt("3/4", 0)))
    with pytest.raises(VerdictError, match=r"only 1\.\.3 interior points supported, got 4"):
        decide_iso(four, four, 8)


def test_decide_iso_same_class(sym):
    other = scaled_translated(sym, 2, 3, 1)
    verdict = decide_iso(sym, other, 8)
    assert verdict == Isomorphic((-1, 2, -1))
    assert format_verdict(verdict) == "isomorphic v=(-1,2,-1)"


def test_decide_iso_reflexive_symmetric_transitive(sym):
    a = sym
    b = scaled_translated(sym, 2, 3, 1)
    c = scaled_translated(sym, 1, -5, 2)
    assert isinstance(decide_iso(a, a, 8), Isomorphic)
    assert decide_iso(a, b, 8) == decide_iso(b, a, 8)
    assert decide_iso(a, b, 8) == decide_iso(a, c, 8) == decide_iso(b, c, 8)


def test_decide_iso_distinct_classes(sym):
    other = search_closing_config((-2, 3, -1))
    verdict = decide_iso(sym, other, 8)
    assert isinstance(verdict, NotIsomorphic)
    assert verdict.label_s.vector == (-1, 2, -1)
    assert verdict.label_r.vector == (-2, 3, -1)


def test_decide_iso_cycle_vs_no_cycle(sym):
    verdict = decide_iso(sym, avoid_all_cycles(seed=2), 8)
    assert isinstance(verdict, NotIsomorphic)


def test_decide_iso_conditional():
    a = avoid_all_cycles(seed=1)
    b = avoid_all_cycles(seed=2)
    verdict = decide_iso(a, b, 8)
    assert verdict == ConditionallyIsomorphic(8)
    assert not isinstance(verdict, Isomorphic)


def test_build_identity_table(sym):
    words = [Word.empty(3), Word((1,), 3), Word((2,), 3), Word((3,), 3)]
    table = build_partial_iso(sym, sym, Isomorphic((-1, 2, -1)), words, 1)
    assert table.sigma == (1, 2, 3)
    for src, dst in table.rows:
        assert src == dst


def test_build_refuses_a_table_that_verify_table_refuses(sym, monkeypatch):
    # a `verify_table` that reports the first three source keys
    monkeypatch.setattr(sys.modules["reversions.iso"], "verify_table",
                        lambda table: tuple(src for src, _ in table.rows[:3]))
    words = [Word.empty(3), Word((1,), 3), Word((2,), 3), Word((3,), 3)]
    with pytest.raises(CollisionError) as err:
        build_partial_iso(sym, sym, Isomorphic((-1, 2, -1)), words, 1)
    assert str(err.value) == "triple check failed at endpoint-low, -1/2 0, 0 0"


def test_build_table_scaled(sym):
    other = scaled_translated(sym, 2, 3, 1)
    verdict = decide_iso(sym, other, 8)
    words = list(enumerate_words(3, 3))
    table = build_partial_iso(sym, other, verdict, words, 2)
    assert verify_table(table) is None
    assert len(table.seed_pairs) == 2
    # interior points map by sigma; every point is keyed by its triple
    mapping = dict(table.rows)
    for i, p in enumerate(sym.points):
        assert mapping[homogeneous(p)] == homogeneous(other.points[table.sigma[i] - 1])
    # sampled action points map equivariantly
    for x, y in table.seed_pairs:
        for g in words:
            assert mapping[homogeneous(act(sym, affine(x), g))] == homogeneous(
                act(other, affine(y), apply_letter_permutation(g, table.sigma)))


def test_build_table_mirrored_storage():
    base = search_closing_config((-2, 3, -1))
    mirrored = validate_config(base.circle, base.points[::-1])
    verdict = decide_iso(base, mirrored, 8)
    assert verdict == Isomorphic((-2, 3, -1))
    table = build_partial_iso(base, mirrored, verdict, list(enumerate_words(3, 2)), 2)
    assert table.sigma == (3, 2, 1)
    assert verify_table(table) is None
    mapping = dict(table.rows)
    assert mapping[homogeneous(base.points[0])] == homogeneous(mirrored.points[2])


def test_mirrored_table_orientation_walks_no_word(monkeypatch):
    # for square D the stored orders come from the closed form of the
    # cycle decision, with no word walked from a test point
    base = search_closing_config((-2, 3, -1))
    mirrored = validate_config(base.circle, base.points[::-1])
    verdict = decide_iso(base, mirrored, 8)
    words = list(enumerate_words(3, 3))
    expected = build_partial_iso(base, mirrored, verdict, words, 1)

    def no_walk(*args):
        raise AssertionError("a word was walked")

    rebind_everywhere(monkeypatch, walk, no_walk)
    with pytest.raises(AssertionError, match="a word was walked"):
        act(base, affine(base.test_triple), words[-1])
    table = build_partial_iso(base, mirrored, verdict, words, 1)
    assert table == expected and table.sigma == (3, 2, 1)


def test_tables_on_irrational_chords_follow_the_stored_order():
    # pairs c1, S^a.c1, S^(a+b).c1 on two chords with irrational ends, the
    # target stored straight and mirrored: the stored orders come from the
    # cycle decision off square D
    words = list(enumerate_words(3, 2))
    chords = IRRATIONAL_CHORDS
    for i, (a, b) in enumerate([(1, 1), (1, 2), (2, 1), (2, 3)]):
        s = translated_config(chords[i], Fraction(-1, 3), Fraction(1, 6), a, b)
        r = translated_config(chords[i + 1], Fraction(-1, 4), Fraction(1, 12), a, b)
        for mirror in (False, True):
            target = validate_config(r.circle, r.points[::-1]) if mirror else r
            verdict = decide_iso(s, target, 24)
            assert isinstance(verdict, Isomorphic), (a, b)
            table = build_partial_iso(s, target, verdict, words, 1)
            assert table.sigma == ((3, 2, 1) if mirror and a != b else (1, 2, 3))
            assert verify_table(table) is None
            assert table == act_build_partial_iso(fresh(s), fresh(target), verdict, words, 1)


@pytest.mark.parametrize("vector", [(-1, 2, -1), (-1, 3, -2), (-4, 6, -2), (0, 0, 0),
                                    (2, -3, 1), (-2, 3)])
def test_build_table_refuses_a_vector_other_than_the_label(vector):
    # only the canonical label orients the table: its other stored order,
    # its multiples and vectors with no positive middle entry are refused
    base = search_closing_config((-2, 3, -1))
    for r in (base, validate_config(base.circle, base.points[::-1])):
        with pytest.raises(CollisionError) as refused:
            build_partial_iso(base, r, Isomorphic(vector), [Word.empty(3)], 1)
        assert str(refused.value) == f"{vector} is not a cycle for the configuration"


def test_build_table_rejects_non_isomorphic(sym):
    other = search_closing_config((-2, 3, -1))
    verdict = decide_iso(sym, other, 8)
    with pytest.raises(VerdictError):
        build_partial_iso(sym, other, verdict, [Word.empty(3)], 1)


def test_build_table_mixed_l_errors(sym):
    # the same error as decide_iso, before any hull matching is tried
    one = validate_config(UNIT_CIRCLE, (pt(0, 0),))
    two = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0)))
    for s, r in ((one, two), (two, one), (sym, two)):
        with pytest.raises(VerdictError) as decided:
            decide_iso(s, r, 8)
        with pytest.raises(VerdictError) as built:
            build_partial_iso(s, r, Isomorphic(None), [Word.empty(len(s.points))], 1)
        assert str(built.value) == str(decided.value)


def test_build_table_refuses_a_vector_on_two_points():
    # a cycle vector needs three points: these two-point configurations are
    # isomorphic with no vector, and a table for a vector is refused
    s = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt(0, 0)))
    r = validate_config(UNIT_CIRCLE, (pt(0, 0), pt("1/3", 0)))
    words = list(enumerate_words(2, 2))
    assert decide_iso(s, r, 8) == Isomorphic(None)
    table = build_partial_iso(s, r, Isomorphic(None), words, 1)
    assert len(table.rows) == 9 and verify_table(table) is None
    with pytest.raises(ConfigValidationError, match="^cycle search needs three points$"):
        build_partial_iso(s, r, Isomorphic((-1, 2, -1)), words, 1)


def test_stabilizer_matching(sym):
    other = scaled_translated(sym, 2, 3, 1)
    words = list(enumerate_words(3, 3))
    table = build_partial_iso(sym, other, Isomorphic((-1, 2, -1)), words, 2)
    rng = random.Random(41)
    for x, y in table.seed_pairs:
        for _ in range(20):
            g = rand_word(rng, 3, rng.randint(0, 8))
            assert stab_contains(sym, affine(x), g) == \
                stab_contains(other, affine(y), apply_letter_permutation(g, table.sigma))


def test_table_l2_and_l1():
    two_a = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0)))
    two_b = validate_config(Circle.of(0, 0, 4), (pt(-1, "1/2"), pt(1, "1/2")))
    table = build_partial_iso(two_a, two_b, Isomorphic(None),
                              list(enumerate_words(2, 4)), 2)
    assert verify_table(table) is None
    one_a = validate_config(UNIT_CIRCLE, (pt("1/8", "1/8"),))
    one_b = validate_config(UNIT_CIRCLE, (pt(0, 0),))
    table1 = build_partial_iso(one_a, one_b, Isomorphic(None),
                               list(enumerate_words(1, 1)), 2)
    assert verify_table(table1) is None


def test_serialize_table(sym):
    words = [Word.empty(3), Word((2,), 3)]
    table = build_partial_iso(sym, sym, Isomorphic((-1, 2, -1)), words, 1)
    text = serialize_table(table)
    lines = text.splitlines()
    assert lines[0] == "sigma\t1 2 3"
    assert any(line.startswith("endpoint-low\t") for line in lines)
    assert all("\t->\t" in line for line in lines[1:])


def chord_end_swap_table() -> PartialIsoTable:
    """The identity on an l = 2 table, except that the two chord ends trade
    places."""
    config = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0)))
    x1, x2 = EndpointToken("low"), EndpointToken("high")
    ps = list(itertools.islice(offline_test_points(config), 2))
    rows = (
        (x1, x2), (x2, x1),
        (config.points[0], config.points[0]),
        (config.points[1], config.points[1]),
        (ps[0], ps[0]), (ps[1], ps[1]),
    )
    return keyed_table(PartialIsoTable(rows, (1, 2), ((ps[0], ps[0]),), config, config))


def test_l2_counterexample_regression():
    # the chord-end swap satisfies the interior-point and stabilizer
    # conditions but fails the triple check: the table machinery rejects it
    offending = verify_table(chord_end_swap_table())
    assert offending is not None
    # the map is the identity off the chord ends, so the action-isomorphism
    # and stabilizer conditions hold vacuously; the hull betweenness
    # condition is what rejects it


def test_verify_table_names_a_broken_chord_by_its_first_end(sym):
    # the last two circle points trade targets, which breaks the chord from
    # (0, -1) through (1/2, 0) to (4/5, 3/5), rows 5, 3 and 8: each side
    # finds a chord from both of its ends, so the mismatch holds it in both
    # orders and the triple names its ends in row order
    words = [Word.empty(3), Word((1,), 3), Word((2,), 3), Word((3,), 3), Word((1, 2), 3)]
    table = build_partial_iso(sym, sym, Isomorphic((-1, 2, -1)), words, 1)
    rows = list(table.rows)
    assert [src for src, _ in rows[5:]] == [(0, -1, 1), (-4, 3, 5), (0, 1, 1), (4, 3, 5),
                                            (4, -3, 5)]
    rows[8], rows[9] = (rows[8][0], rows[9][1]), (rows[9][0], rows[8][1])
    broken = dataclasses.replace(table, rows=tuple(rows))
    assert verify_table(broken) == ((0, -1, 1), (1, 0, 2), (4, 3, 5))
    assert cubic_verify_table(broken) is not None


def cross_seed_pair(forward: bool) -> tuple:
    a = validate_config(UNIT_CIRCLE, (pt(0, 0), pt("3/5", 0), pt("31/33", 0)))
    b = validate_config(UNIT_CIRCLE, (pt(0, 0), pt("4/5", 0), pt("121/122", 0)))
    return (a, b) if forward else (b, a)


@pytest.mark.parametrize("forward", [True, False])
def test_two_seed_table_avoids_cross_seed_products(forward):
    # on one side the second point of the seed stream is the first times
    # (1,2,3,2) = g.h^-1 for sampled words g, h; taking it as a seed makes
    # two table sources coincide with different targets
    s, r = cross_seed_pair(forward)
    verdict = decide_iso(s, r, 5)
    assert verdict == Isomorphic((-3, 5, -2))
    table = build_partial_iso(s, r, verdict, list(enumerate_words(3, 2)), 2)
    assert len(table.rows) == 25
    assert verify_table(table) is None


def table_cases() -> list:
    """(s, r, verdict, words, seeds) for l = 1, 2, 3, with the target stored
    straight and mirrored, on one and two seeds."""
    one_a = validate_config(UNIT_CIRCLE, (pt("1/8", "1/8"),))
    one_b = validate_config(Circle.of(2, 1, 9), (pt(2, 0),))
    two_a = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0)))
    two_b = validate_config(Circle.of(0, 0, 4), (pt(-1, "1/2"), pt(1, "1/2")))
    sym = symmetric_config()
    closing = search_closing_config((-2, 3, -1))
    cases = [(one_a, one_b, Isomorphic(None), list(enumerate_words(1, 1)))]
    for mirror in (False, True):
        two = validate_config(two_b.circle, two_b.points[::-1] if mirror else two_b.points)
        cases.append((two_a, two, Isomorphic(None), list(enumerate_words(2, 3))))
        for s in (sym, closing):
            r = scaled_translated(s, 2, 3, 1)
            r = validate_config(r.circle, r.points[::-1] if mirror else r.points)
            cases.append((s, r, decide_iso(s, r, 8), list(enumerate_words(3, 2))))
    return [case + (seeds,) for case in cases for seeds in (1, 2)]


def built_tables() -> list:
    return [build_partial_iso(*case) for case in table_cases()]


def test_build_partial_iso_agrees_with_act_oracle():
    # mirrored storage, two seeds, l = 1, 2, 3 and the cross-seed pair: the
    # same rows in the same order, sigma, seed pairs and configurations
    cases = table_cases() + [
        (s, r, Isomorphic((-3, 5, -2)), list(enumerate_words(3, 2)), 2)
        for s, r in map(cross_seed_pair, (True, False))]
    for s, r, verdict, words, seeds in cases:
        table = build_partial_iso(s, r, verdict, words, seeds)
        assert table == act_build_partial_iso(fresh(s), fresh(r), verdict, words, seeds)


def perfbench_pairs(seed: int, count: int):
    """`iso-pairs`-style pairs from the benchmark's closed forms: cycle
    configurations moved by rational similarities, stored in opposite
    orders, one in four of different classes."""
    gen = load_perfbench("gen")
    rng = random.Random(seed)
    vectors = gen.canonical_vectors(7)
    for i in range(count):
        va = rng.choice(vectors)
        vb = rng.choice(vectors) if i % 4 == 0 else va
        yield gen.iso_pair(rng, va, vb, tuple(rng.sample(gen.CYCLE_BASES, 2)))


FAILURES = ("is not a cycle", "maps to both", "targets collide")


def test_build_partial_iso_agrees_with_act_oracle_on_perfbench_pairs():
    # the pair's verdict and the trivial one, on one and two seeds: equal
    # tables where the build succeeds, the same error where it fails
    words = list(enumerate_words(3, 3))
    kinds = set()
    for a, b in perfbench_pairs(1, 24):
        for verdict in (Isomorphic(a.canonical), Isomorphic(None)):
            for seeds in (1, 2):
                got = outcome(build_partial_iso, a.config, b.config, verdict, words, seeds)
                want = outcome(act_build_partial_iso, fresh(a.config), fresh(b.config),
                               verdict, words, seeds)
                assert got == want
                kinds.add("table" if isinstance(got, PartialIsoTable) else
                          next(k for k in FAILURES if k in got[1]))
    assert kinds == {"table", *FAILURES}


def mutants(tables: list, count: int, seed: int):
    """Tables with two rows' targets swapped and/or up to three rows dropped."""
    rng = random.Random(seed)
    for _ in range(count):
        table = rng.choice(tables)
        rows = list(table.rows)
        kind = rng.randrange(3)
        if kind != 1:
            i, k = rng.sample(range(len(rows)), 2)
            (a, fa), (b, fb) = rows[i], rows[k]
            rows[i], rows[k] = (a, fb), (b, fa)
        if kind != 0:
            for _ in range(rng.randint(1, 3)):
                rows.pop(rng.randrange(len(rows)))
        yield dataclasses.replace(table, rows=tuple(rows))


def test_verify_table_agrees_with_cubic_on_built_tables():
    tables = built_tables()
    assert {len(collinear_hull(t.src)) for t in tables} == {1, 4, 5}
    assert {t.sigma for t in tables} >= {(1, 2, 3), (3, 2, 1)}
    for table in tables:
        assert verify_table(table) is None
        assert cubic_verify_table(table) is None


def test_verify_table_agrees_with_cubic_on_mutants():
    tables = built_tables()
    verdicts = []
    small = [t for t in tables if len(t.rows) <= 16]
    for table in [chord_end_swap_table()] + list(mutants(small, 240, seed=5)):
        fast, slow = verify_table(table), cubic_verify_table(table)
        assert (fast is None) == (slow is None), table
        verdicts.append(fast is None)
    assert not verdicts[0]
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def premise_error(table: PartialIsoTable) -> str:
    with pytest.raises(VerdictError) as err:
        verify_table(table)
    return str(err.value)


def test_verify_table_premise():
    # the rows hold canonical triples, the messages print points
    two_a = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0)))
    two_b = validate_config(Circle.of(0, 0, 4), (pt(-1, "1/2"), pt(1, "1/2")))
    table = build_partial_iso(two_a, two_b, Isomorphic(None),
                              list(enumerate_words(2, 2)), 1)
    top, far = (0, 1, 1), (0, 2, 1)  # far is on the target circle, off its hull line
    assert verify_table(dataclasses.replace(table, rows=table.rows + ((top, far),))) is None
    # two sources with one target
    shared = dataclasses.replace(table, rows=table.rows + ((top, table.rows[-1][1]),))
    assert premise_error(shared) == "table rows repeat a source or a target"
    # a non-hull point off its circle, or on its hull line
    for bad_src, text in (((0, 1, 2), "table point 0 1/2 is not on the circle"),
                          ((-1, 0, 1), "table point -1 0 is on the hull line")):
        bad = dataclasses.replace(table, rows=table.rows + ((bad_src, far),))
        assert premise_error(bad) == text
    # the hull half of the premise is checked where each `Config` is built:
    # a middle hull point outside the open disc (the symmetric points in
    # circles through or inside (1/2, 0)) ...
    sym = symmetric_config()
    hull_only = build_partial_iso(sym, sym, Isomorphic((-1, 2, -1)), [], 0)
    assert verify_table(hull_only) is None
    for radius_sq in ("1/4", "1/5"):
        with pytest.raises(ConfigValidationError,
                           match="^point -1/2 0 is not strictly inside the circle$"):
            validate_config(Circle.of(0, 0, Fraction(radius_sq)), sym.points)
    # ... and interior hull points off one line, out of line order, or repeated
    for middles, text in (((pt("-1/2", 0), pt(0, "1/4"), pt("1/2", 0)),
                           "point 1/2 0 is off the line of the first two points"),
                          ((pt(0, 0), pt("-1/2", 0), pt("1/2", 0)),
                           "point -1/2 0 is not between its neighbours"),
                          ((pt(0, 0), pt(0, 0), pt("1/2", 0)),
                           "interior point 0 0 repeated")):
        with pytest.raises(ConfigValidationError) as err:
            validate_config(UNIT_CIRCLE, middles)
        assert str(err.value) == text


def premise_mutants(tables: list):
    """(mutant, the VerdictError text it must raise, kind) from built
    tables: the last non-hull source or target moved halfway to its
    circle's centre, the source moved to a rational end of its hull chord,
    and an endpoint token in place of a point beside a one-point hull."""
    for table in tables:
        hull = collinear_hull(table.src)
        i = max(k for k, (a, _) in enumerate(table.rows) if a not in hull)
        a, b = table.rows[i]

        def with_row(row):
            return dataclasses.replace(table, rows=table.rows[:i] + (row,) + table.rows[i + 1:])

        for side, circle in ((0, table.src.circle), (1, table.dst.circle)):
            p = affine(table.rows[i][side])
            m = Point((p.x + circle.center.x) / 2, (p.y + circle.center.y) / 2)
            yield (with_row((homogeneous(m), b) if side == 0 else (a, homogeneous(m))),
                   f"table point {format_point(m)} is not on the circle", "off-circle")
        c = table.src.circle
        middles = table.src.triples
        if len(middles) > 1 and all(affine(q).y == c.center.y for q in middles):
            try:
                end = default_base_point(c)  # (cx + r, cy) when r is rational
            except ConfigValidationError:
                continue
            yield (with_row((homogeneous(end), b)),
                   f"table point {format_point(end)} is on the hull line", "on-line")
        if len(hull) == 1:
            for row, role in (((EndpointToken("low"), b), "low"),
                              ((a, EndpointToken("high")), "high")):
                yield (with_row(row),
                       f"table token endpoint-{role} is not on the hull", "non-hull token")


def test_verify_table_premise_mutants():
    # verify_table refuses every table outside its premise, with the
    # offending point printed, where the cubic check (which assumes the
    # premise) may pass it
    kinds = set()
    for table, text, kind in premise_mutants(built_tables()):
        assert premise_error(table) == text
        kinds.add(kind)
    assert kinds == {"off-circle", "on-line", "non-hull token"}


def test_verify_table_builds_no_conic_and_no_homology(monkeypatch):
    # with `geometry.conic` and `geometry.homology` raising in every
    # namespace that holds them, every built table and its row mutants get
    # the same answers: `verify_table` reads the conic that each `Config`
    # computed when it was built and the homologies that the build cached
    tables = built_tables()
    cases = tables + list(mutants(tables, 60, seed=11)) + \
        [mutant for mutant, _, _ in premise_mutants(tables)]
    expected = [outcome(verify_table, table) for table in cases]
    assert None in expected and any(isinstance(e, tuple) and e[0] is VerdictError
                                    for e in expected)

    def refuse(*args):
        raise AssertionError("a conic or a homology was built")

    for name in ("conic", "homology"):
        rebind_everywhere(monkeypatch, getattr(geometry, name), refuse)
    with pytest.raises(AssertionError, match="was built"):
        geometry.conic(UNIT_CIRCLE)
    assert [outcome(verify_table, table) for table in cases] == expected


def test_verify_table_refuses_keys_that_are_not_canonical():
    # a point has one canonical triple (W > 0, gcd 1); any other triple of
    # it, or a Point, would let one point appear under two keys
    sym = symmetric_config()
    table = build_partial_iso(sym, sym, Isomorphic((-1, 2, -1)), list(enumerate_words(3, 2)), 1)
    assert verify_table(table) is None
    hull = collinear_hull(sym)
    i = max(k for k, (a, _) in enumerate(table.rows) if a not in hull)
    x, y, w = table.rows[i][0]
    for bad in ((2 * x, 2 * y, 2 * w), (-x, -y, -w), (x, y, 0), (0, 0, 0),
                (Fraction(x), y, w), (x, y), affine((x, y, w))):
        for row in ((bad, table.rows[i][1]), (table.rows[i][1], bad)):
            mutant = dataclasses.replace(
                table, rows=table.rows[:i] + (row,) + table.rows[i + 1:])
            assert premise_error(mutant) == f"table key {bad!r} is not a canonical triple"
    # the hull keys are the `Config`'s canonical triples, so a row keyed by
    # another triple of a hull point is refused on either side
    j = next(k for k, (a, _) in enumerate(table.rows) if a == hull[1])
    doubled = tuple(2 * c for c in hull[1])
    for row in ((doubled, table.rows[j][1]), (table.rows[j][0], doubled)):
        mutant = dataclasses.replace(table, rows=table.rows[:j] + (row,) + table.rows[j + 1:])
        assert premise_error(mutant) == f"table key {doubled!r} is not a canonical triple"


def test_build_partial_iso_makes_no_affine_call(monkeypatch):
    # the rows and seed pairs hold the triples they are built on
    cases = table_cases()  # the verdicts build witness points
    calls = []
    original = geometry.affine

    def counted(h):
        calls.append(h)
        return original(h)

    patched = rebind_everywhere(monkeypatch, original, counted)
    assert "reversions.geometry" in patched and "reversions.action" in patched
    for s, r, verdict, words, seeds in cases:
        table = build_partial_iso(fresh(s), fresh(r), verdict, words, seeds)
        assert all(isinstance(key, tuple) for key, _ in table.seed_pairs)
    assert calls == []


def test_iso_pairs_tables_match_the_act_oracle(tmp_path, monkeypatch):
    # every isomorphic pair of the benchmark's iso-pairs workload, seed 7,
    # with its table build: the library's table is the oracle's Point
    # table with each point keyed by `homogeneous`
    monkeypatch.setitem(sys.modules, "gen", load_perfbench("gen"))
    workloads = load_perfbench("workloads")
    ops = [op for op in workloads.build_iso_pairs(random.Random(7), tmp_path).ops
           if op.vector is not None]
    assert len(ops) == 96
    for op in ops:
        a, b = op.cases
        verdict = Isomorphic(op.vector)
        table = build_partial_iso(a.config, b.config, verdict, op.words, workloads.TABLE_SEEDS)
        assert table == act_build_partial_iso(fresh(a.config), fresh(b.config), verdict,
                                              op.words, workloads.TABLE_SEEDS)
        assert table.sigma == op.sigma
