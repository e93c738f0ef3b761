"""Acceptance suite: one test per release criterion, each printing a
[PASS] line; run with `pytest -s tests/test_acceptance.py` to see them."""

import random
import time
from fractions import Fraction

from conftest import (
    betweenness_iso_ok,
    brute_force_iso,
    count_sign_changes,
    in_open_disk,
    line_line_intersection,
    offline_test_points,
    on_circle,
    point_of,
    pt,
    rand_interior_point,
    rand_raw_letters,
    rand_unit_circle_point,
    rand_word,
    stab_contains,
    symmetric_config,
)
from reversions.action import act, is_cycle
from reversions.classify import (
    CycleLabel,
    NoCycleUpTo,
    avoid_all_cycles,
    classify,
    middle_point_residual,
    realize_by_bisection,
    search_closing_config,
    validate_config,
)
from reversions.geometry import (
    Circle,
    Point,
    UNIT_CIRCLE,
    is_between,
    reversion,
)
from reversions.iso import (
    ConditionallyIsomorphic,
    Isomorphic,
    NotIsomorphic,
    build_partial_iso,
    decide_iso,
    verify_table,
)
from reversions.words import (
    Word,
    enumerate_words,
    is_balanced,
    normal_form,
    reduce_letters,
    signature_of,
    word_from_signature,
)


def report(name):
    print(f"[PASS] {name}")


def test_symmetric_fixture():
    sym = symmetric_config()
    start = time.perf_counter()
    label = classify(sym, 8)
    elapsed = time.perf_counter() - start
    assert isinstance(label, CycleLabel) and label.vector == (-1, 2, -1)
    assert act(sym, label.witness_point, label.witness_word) == label.witness_point
    chain = [pt(0, 1), pt(0, -1), pt("-4/5", "3/5"), pt("4/5", "-3/5"), pt(0, 1)]
    letters = (2, 1, 2, 3)
    for k in range(1, 5):
        assert act(sym, chain[0], Word(letters[:k], 3)) == chain[k]
    assert elapsed < 1.0
    report(f"symmetric fixture: cycle (-1,2,-1), exact chain, {elapsed:.3f}s")


def test_closing_construction_corpus():
    for v in [(-1, 2, -1), (-2, 3, -1), (-3, 4, -1), (-4, 5, -1)]:
        config = search_closing_config(v)
        assert config is not None, v
        label = classify(config, 8)
        assert isinstance(label, CycleLabel) and label.vector == v
        word = word_from_signature(v)
        points = offline_test_points(config)
        next(points)  # the decision point itself; re-verify at 10 fresh ones
        for _ in range(10):
            assert stab_contains(config, next(points), word)
    report("closing corpus: 4 vectors realized exactly, porism at 10 extra points each")


def test_bisection_constructor():
    width = Fraction(1, 2 ** 30)
    interval = realize_by_bisection((-2, 3, -1), width)
    assert interval.a_hi - interval.a_lo <= width
    assert middle_point_residual((-2, 3, -1), interval.a_lo) > 0
    assert middle_point_residual((-2, 3, -1), interval.a_hi) < 0
    values = [middle_point_residual((-2, 3, -1), Fraction(-1, 2) + Fraction(k, 1001))
              for k in range(1, 1001)]
    assert count_sign_changes(values) == 1
    sym_iv = realize_by_bisection((-1, 2, -1), width)
    assert sym_iv.a_lo < 0 < sym_iv.a_hi
    assert middle_point_residual((-1, 2, -1), Fraction(0)) == 0
    report("bisection: certified 2^-30 interval, single sign change on 1000-point grid")


def test_word_property_suite():
    rng = random.Random(101)
    for _ in range(10 ** 4):
        g = rand_word(rng, 3, rng.randint(0, 12))
        h = rand_word(rng, 3, rng.randint(0, 12))
        k = rand_word(rng, 3, rng.randint(0, 12))
        assert (g * h) * k == g * (h * k)
        assert g * Word.empty(3) == g
        assert (g * g.inverse()).is_empty()
    for _ in range(10 ** 4):
        seq = rand_raw_letters(rng, 3, 30)
        stack = []
        for x in reversed(seq):
            if stack and stack[-1] == x:
                stack.pop()
            else:
                stack.append(x)
        assert reduce_letters(seq) == tuple(reversed(stack))
    for _ in range(10 ** 4):
        g = rand_word(rng, 3, rng.randint(0, 14))
        nf = normal_form(g)
        assert signature_of(nf) == signature_of(g)
        assert normal_form(nf) == nf
    by_signature = {}
    for g in enumerate_words(3, 6):
        by_signature.setdefault(signature_of(g), set()).add(normal_form(g))
    assert all(len(forms) == 1 for forms in by_signature.values())
    report("word algebra: 10^4 group laws, 10^4 confluence, 10^4 normal forms, "
           "exhaustive signature/normal-form agreement to length 6")


def test_geometry_suite():
    rng = random.Random(211)
    done = 0
    while done < 10 ** 3:
        c = rand_unit_circle_point(rng)
        x = rand_interior_point(rng, UNIT_CIRCLE)
        if x == c:
            continue
        image = reversion(UNIT_CIRCLE, x, c)
        assert on_circle(UNIT_CIRCLE, image)
        assert is_between(c, x, image)
        assert reversion(UNIT_CIRCLE, x, image) == c
        done += 1
    done = 0
    while done < 10 ** 2:
        a = rand_interior_point(rng, UNIT_CIRCLE)
        b = rand_interior_point(rng, UNIT_CIRCLE)
        mid = a + (b - a).scale(Fraction(rng.randint(1, 9), 10))
        if len({a, b, mid}) != 3 or not in_open_disk(UNIT_CIRCLE, mid):
            continue
        centers = (a, b, mid)

        def triple(p):
            for x in centers:
                p = reversion(UNIT_CIRCLE, x, p)
            return p

        c = rand_unit_circle_point(rng)
        d = rand_unit_circle_point(rng)
        assert triple(triple(c)) == c
        tc, td = triple(c), triple(d)
        if c == tc or d == td or c == d:
            continue
        hit1 = line_line_intersection(c, tc, a, b)
        hit2 = line_line_intersection(d, td, a, b)
        assert hit1 is not None and hit1 == hit2
        assert in_open_disk(UNIT_CIRCLE, hit1)
        done += 1
    report("geometry: 10^3 exact reversion checks, 10^2 collinear triple-composition "
           "involutions and chord concurrencies")


def test_cycle_arithmetic_suite():
    sym = symmetric_config()
    detected = []
    for v2 in range(1, 9):
        for v1 in range(-(v2 - 1), 0):
            v = (v1, v2, -v2 - v1)
            if v[2] > -1:
                continue
            if is_cycle(sym, v):
                detected.append(v)
    assert detected, "no cycles detected on the symmetric fixture"
    for v in detected:
        assert is_balanced(v)
        assert v[0] * v[1] * v[2] != 0
        assert abs(v[1]) == abs(v[0]) + abs(v[2])
    neg = lambda v: tuple(-x for x in v)
    add = lambda u, v: tuple(a + b for a, b in zip(u, v))
    sub = lambda u, v: tuple(a - b for a, b in zip(u, v))
    for u in detected:
        assert is_cycle(sym, neg(u))
        for v in detected:
            assert is_cycle(sym, add(u, v))
            assert is_cycle(sym, sub(u, v))
    for v2 in range(1, 9):
        for v1 in range(-(v2 - 1), 0):
            v = (v1, v2, -v2 - v1)
            if v[2] > -1:
                continue
            for k in (2, 3):
                scaled = tuple(k * x for x in v)
                assert is_cycle(sym, v) == is_cycle(sym, scaled)
    report(f"cycle arithmetic: {len(detected)} detected cycles closed under "
           "negation/sum/difference, k-scaling equivalence for k in {2,3}")


def test_low_l_isomorphism_and_freeness():
    rng = random.Random(307)
    for _ in range(10):
        a = validate_config(UNIT_CIRCLE, (rand_interior_point(rng, UNIT_CIRCLE),))
        b = validate_config(Circle.of(7, -2, 9),
                            (Point(7 + Fraction(rng.randint(-5, 5), 4),
                                   Fraction(-2)),))
        assert decide_iso(a, b, 4) == Isomorphic(None)
    for _ in range(10):
        pts = set()
        while len(pts) < 2:
            pts.add(rand_interior_point(rng, UNIT_CIRCLE))
        a = validate_config(UNIT_CIRCLE, tuple(pts))
        pts = set()
        while len(pts) < 2:
            pts.add(rand_interior_point(rng, UNIT_CIRCLE))
        b = validate_config(UNIT_CIRCLE, tuple(pts))
        assert decide_iso(a, b, 4) == Isomorphic(None)
    checked = 0
    while checked < 10 ** 2:
        pts = set()
        while len(pts) < 2:
            pts.add(rand_interior_point(rng, UNIT_CIRCLE))
        config = validate_config(UNIT_CIRCLE, tuple(pts))
        c = next(offline_test_points(config))
        for length in range(1, 21):
            for first in (1, 2):
                letters = tuple((first + k) % 2 + 1 for k in range(length))
                assert act(config, c, Word(letters, 2)) != c
        checked += 1
    report("l=1,2: trivial isomorphism verdicts; freeness of 40 words to length 20 "
           "on 10^2 exact two-point configurations")


def test_isomorphism_end_to_end():
    sym = symmetric_config()
    moved = validate_config(
        Circle.of(3, 1, 4), (pt(2, 1), pt(3, 1), pt(4, 1)))
    verdict = decide_iso(sym, moved, 8)
    assert verdict == Isomorphic((-1, 2, -1))
    words = list(enumerate_words(3, 3))
    table = build_partial_iso(sym, moved, verdict, words, 2)
    assert verify_table(table) is None
    exact_rows = [(point_of(a), point_of(b)) for a, b in table.rows
                  if isinstance(a, tuple) and isinstance(b, tuple)]
    exact_rows.sort(key=lambda row: (row[0].x, row[0].y))
    assert len(exact_rows) >= 8
    for offset in range(0, len(exact_rows) - 8 + 1, 4):
        window = exact_rows[offset:offset + 8]
        sub = {a: b for a, b in window}
        assert betweenness_iso_ok(sub)
        assert brute_force_iso([a for a, _ in window], [b for _, b in window]) is not None
    other = search_closing_config((-2, 3, -1))
    assert isinstance(decide_iso(sym, other, 8), NotIsomorphic)
    report(f"isomorphism end-to-end: matching table of {len(table.rows)} rows verified, "
           "brute-force subsamples agree, distinct classes rejected")


def test_l2_counterexample_regression():
    config = validate_config(UNIT_CIRCLE, (pt("-1/2", 0), pt("1/4", 0)))
    x1, x2 = pt(-1, 0), pt(1, 0)
    c1, c2 = config.points
    stream = offline_test_points(config)
    extras = [next(stream) for _ in range(2)]
    images = [act(config, p, g) for p in extras for g in enumerate_words(2, 3)]
    sample = [x1, c1, c2, x2] + sorted(set(images), key=lambda p: (p.x, p.y))[:4]
    swap = {p: p for p in sample}
    swap[x1], swap[x2] = x2, x1
    # interior-point condition: the restriction to {c1, c2} is the identity
    assert betweenness_iso_ok({c1: swap[c1], c2: swap[c2]})
    # action equivariance off the hull: the map is the identity there
    for p in extras:
        for g in enumerate_words(2, 3):
            assert swap.get(act(config, p, g), act(config, p, g)) == \
                act(config, swap.get(p, p), g)
    # ... and stabilizers match trivially; yet betweenness fails
    assert not betweenness_iso_ok(swap)
    assert is_between(x1, c1, c2) != is_between(swap[x1], swap[c1], swap[c2])
    report("l=2 counterexample: chord-end swap passes interior and stabilizer "
           "conditions but fails the triple check")


def test_no_cycle_candidate():
    candidates = [avoid_all_cycles(seed=s) for s in (11, 12, 13)]
    for config in candidates:
        assert classify(config, 8) == NoCycleUpTo(8)
    for first, second in zip(candidates, candidates[1:]):
        verdict = decide_iso(first, second, 8)
        assert verdict == ConditionallyIsomorphic(8)
        assert not isinstance(verdict, Isomorphic)
    report("no-cycle candidates: built cycle-free, classified NoCycleUpTo(8), "
           "conditionally isomorphic only")
