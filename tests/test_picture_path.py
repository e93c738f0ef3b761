"""The drawing path from canonical triples to bytes against the Point path
it replaces: `orbit` prints each triple with `format_triple`, and
`render_svg` draws each coordinate as X / W.  Both must give what
`format_point` and `float` of the Fractions give, on every picture
operation of the benchmark's `draw` workload and on triples with huge,
negative and out-of-float-range entries."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    doubling_config,
    load_perfbench,
    outcome,
    point_cycle_polygon,
    point_orbit,
    point_orbit_stdout,
    point_render_svg,
    symmetric_config,
)
from reversions.classify import search_closing_config
from reversions.cli import EXIT_OK, main, parse_config
from reversions.geometry import (
    Point,
    affine,
    format_point,
    format_triple,
    homogeneous,
    parse_fraction,
)
from reversions.svg import OutOfFloatRange, _coords, cycle_polygon, render_svg
from reversions.words import word_from_signature


def flags(argv) -> dict:
    """The --flag value pairs after a subcommand and its file."""
    return dict(zip(argv[2::2], argv[3::2]))


@pytest.mark.parametrize("seed", [3, 5])
def test_draw_pictures_match_the_point_oracle(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "gen", load_perfbench("gen"))
    workloads = load_perfbench("workloads")
    ops = [op for op in workloads.build_draw(random.Random(seed), tmp_path).ops
           if op.kind in ("orbit", "render")]
    assert len(ops) == 280
    for op in ops:
        f = flags(op.argv)
        config = parse_config(Path(op.argv[1]).read_text(encoding="utf-8"))
        start = Point(*map(parse_fraction, f["--point"].split(",")))
        assert main(op.argv) == EXIT_OK
        out, err = capsys.readouterr()
        if op.kind == "orbit":
            points = point_orbit(config, start, int(f["--depth"]))
            assert (out, err) == (point_orbit_stdout(points), "")
            expected = point_render_svg(config, orbit_points=points)
        else:
            assert (out, err) == ("", "")
            v = tuple(int(x) for x in f["--cycle"].split(","))
            expected = point_render_svg(
                config, orbit_points=point_orbit(config, start, int(f["--orbit-depth"])),
                cycle_points=point_cycle_polygon(config, v))
        assert Path(f["--svg"]).read_bytes() == expected.encode("utf-8")


BIG = 2**2000
entries = st.one_of(st.just(0), st.integers(-99, 99), st.integers(-BIG, BIG))
weights = st.one_of(st.just(1), st.integers(1, 99), st.integers(1, BIG))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=entries, y=entries, w=weights, k=st.one_of(st.just(1), st.integers(2, 2**64)),
       sign=st.sampled_from([1, -1]))
def test_format_triple_is_format_point_of_affine(x, y, w, k, sign):
    # a common factor k, and a negative W, must be reduced away as
    # Fraction reduces them
    t = (sign * k * x, sign * k * y, sign * k * w)
    assert format_triple(t) == format_point(affine(t))


# The largest float is 2^1024 - 2^971; quotients from 2^1024 - 2^970 up
# round past it.  Around 2^-1075, half the smallest subnormal, quotients
# round to zero or to 2^-1074.
FLOAT_EDGES = [2**1024 - 2**971, 2**1024 - 2**970, 2**1024, 10**400]
SUBNORMAL_W = [2**1074, 2**1075 - 1, 2**1075, 2**1075 + 1, 10**400]
signs = st.sampled_from([1, -1])
edge_triples = st.builds(
    lambda m, s, w, d, y: (s * (m * w + d), y, w),
    st.sampled_from(FLOAT_EDGES), signs, st.sampled_from([1, 3, 7**200]),
    st.integers(-2, 2), st.integers(-9, 9))
tiny_triples = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from(SUBNORMAL_W))
wide_triples = st.tuples(st.integers(-(10**400), 10**400), st.integers(-(10**400), 10**400),
                         st.integers(1, 10**400))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=st.one_of(edge_triples, tiny_triples, wide_triples))
def test_true_division_is_the_float_of_the_fraction(t):
    x, y, w = t
    try:
        want = tuple(format(float(Fraction(n, w)), ".12g") for n in (x, y))
    except OverflowError:
        with pytest.raises(OutOfFloatRange):
            _coords(t)
    else:
        assert _coords(t) == want
    # the same picture, or the same refusal, as the Point path gives
    config = symmetric_config()
    p = affine(t)
    assert outcome(render_svg, config, [t], [t, t]) == \
        outcome(point_render_svg, config, [p], [p, p])


@pytest.mark.parametrize("v", [(-1, 2, -1), (0, 0, 0), (0, 1), (-1, 2, -1, 0),
                               (1, 1, -1), (-2, 3, -1), (1, -2, 1)])
def test_cycle_polygon_matches_the_point_oracle(v):
    # the chain, or the same refusal: UnverifiedCycle for the zero, an
    # unbalanced and a non-cycle vector, ActionError for a wrong length
    config = symmetric_config()
    want = outcome(point_cycle_polygon, config, v)
    if isinstance(want, list):
        want = [homogeneous(p) for p in want]
    assert outcome(cycle_polygon, config, v) == want


def test_cycle_polygon_walks_the_word_once(monkeypatch):
    # the chain it draws is also its cycle test: one homology step a letter
    steps = []
    action = sys.modules["reversions.action"]
    step = action.apply_homology
    monkeypatch.setattr(action, "apply_homology", lambda h, x: steps.append(x) or step(h, x))
    v = (-3, 6, -3)
    chain = cycle_polygon(symmetric_config(), v)
    assert len(steps) == len(word_from_signature(v).letters) == len(chain) - 1 == 12


def test_cycle_polygon_of_the_negated_cycle_is_reversed():
    # the witness word of -v is the reversal of the word of v, so it walks
    # the same closed chain backwards; multiples walk the primitive's
    closing = search_closing_config((-2, 3, -1))
    for config, v in ((symmetric_config(), (-1, 2, -1)), (symmetric_config(), (-3, 6, -3)),
                      (closing, (-2, 3, -1)), (closing, (-6, 9, -3)),
                      (doubling_config(10), (-11, 21, -10))):
        chain = cycle_polygon(config, v)
        assert len(chain) == 2 * v[1] + 1 and chain[0] == chain[-1]
        assert cycle_polygon(config, tuple(-x for x in v)) == chain[::-1], v
