"""Fuzz of the CLI entry point over small, bounded arguments: every
subcommand, malformed and valid configuration files.  Whatever the input,
`main` returns one of the documented exit codes and never lets an
exception escape (which the console script would print as a traceback)."""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reversions.classify import avoid_all_cycles, search_closing_config
from reversions.geometry import format_fraction
from reversions.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    main,
    serialize_config,
)

EXIT_CODES = {EXIT_OK, EXIT_INVALID, EXIT_INCONCLUSIVE, EXIT_USAGE}

VALID_CONFIGS = [
    "circle 0 0 1\npoint -1/2 0\npoint 0 0\npoint 1/2 0\n",
    "circle 3 1 4\npoint 2 1\npoint 3 1\npoint 4 1\n",
    serialize_config(search_closing_config((-2, 3, -1))),
    serialize_config(avoid_all_cycles(seed=1)),
    "circle 0 0 1\npoint -1/2 0\npoint 1/4 0\n",
    "circle 0 0 1\npoint 1/3 1/7\n",
    "circle 0 0 2\npoint 0 0\nbase 1 1\n",
]
RATIONALS = ["0", "1", "-1", "2", "4", "1/2", "-1/2", "1/3", "3/5", "-4/5",
             "1/0", "x", ""]
DIRECTIVES = ["circle", "point", "base", "bogus", "#"]
POINTS = ["1,0", "0,1", "-1,0", "3/5,4/5", "5,1", "0,0", "1/0,0", "a,b", "1", "1,1,1"]

small = st.integers(-1, 6).map(str)
vectors = st.one_of(
    st.tuples(*[st.integers(-6, 6)] * 3).map(lambda v: ",".join(map(str, v))),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(  # balanced
        lambda v: f"{v[0]},{-v[0] - v[1]},{v[1]}"),
    st.sampled_from(["-1,2,-1", "-2,3,-1", "1,-3,2", "0,0,0", "1,2", "x,1,1", "", "1,,1",
                     # at and beyond the vector budgets
                     "-63,64,-1", "-1,65,-64", "4097,0,-4097", "-2049,4098,-2049",
                     "-1000000000,2000000000,-1000000000",
                     # unbalanced, answered or refused without work at any size
                     "5000,0,0", "-1000000000,2000000000,1"]))
malformed = st.lists(
    st.tuples(st.sampled_from(DIRECTIVES), st.lists(st.sampled_from(RATIONALS), max_size=4)),
    max_size=5,
).map(lambda lines: "".join(" ".join([kind, *args]) + "\n" for kind, args in lines))
config_texts = st.one_of(st.sampled_from(VALID_CONFIGS), malformed)


def opt(*args):
    """Either nothing or the given argument strategies, in order."""
    return st.one_of(st.just([]), st.tuples(*args).map(list))


def flag(name):
    return st.sampled_from([[], [name]])


def commands(a: str, b: str, svg: str):
    """argv lists for every subcommand, with file arguments a, b and the
    output path svg; a few name a missing file or carry junk tokens."""
    files = st.sampled_from([a, a, b, "missing.cfg"])
    c = st.just
    return st.one_of(
        st.tuples(c(["classify"]), files.map(lambda f: [f]), opt(c("--bound"), small),
                  flag("--strict")),
        st.tuples(c(["is-cycle", a, "--v"]), vectors.map(lambda v: [v])),
        st.tuples(c(["realize", "--v"]), vectors.map(lambda v: [v]),
                  st.sampled_from([["--closing"], ["--bisect"], [], ["--closing", "--bisect"]]),
                  opt(c("--width"), st.sampled_from(
                      ["1/1024", "0", "-1", "1/0", "x", "1/1099511627776",
                       f"1/{2 ** 64 + 1}", f"1/{2 ** 3000}"]))),
        st.tuples(c(["iso", a]), files.map(lambda f: [f]), opt(c("--bound"), small),
                  flag("--strict")),
        st.tuples(c(["orbit", a]), opt(c("--point"), st.sampled_from(POINTS)),
                  opt(c("--depth"), small), opt(c("--svg"), c(svg))),
        st.tuples(c(["word"]), st.sampled_from(["reduce", "signature", "normal", "bogus"])
                  .map(lambda op: [op]),
                  st.one_of(st.lists(st.integers(0, 4), max_size=6).map(
                      lambda ls: ",".join(map(str, ls))),
                      # letters beyond the alphabet budget
                      st.sampled_from(["e", "x", "1,,2", str(10 ** 20), f"2,{10 ** 20},1"]))
                  .map(lambda w: [w]),
                  # alphabets beyond the budget, never one that fits and is large
                  opt(c("--alphabet"), st.one_of(small, st.sampled_from(["4097", str(10 ** 20)])))),
        st.tuples(c(["render", a]), opt(c("--svg"), c(svg)), opt(c("--cycle"), vectors),
                  opt(c("--orbit-depth"), small), opt(c("--point"), st.sampled_from(POINTS))),
        st.tuples(st.lists(st.sampled_from(
            ["classify", "iso", "--bound", "--v", "-1,2,-1", "--depth", "3", a, "--frob"]),
            max_size=4)),
    ).map(lambda parts: [arg for part in parts for arg in part])


# Unit-circle point sets scaled and shifted to magnitudes of 10^±300 to
# 10^±800: the exact core handles them, the float picture must refuse
# cleanly where it cannot draw them.
UNIT_POINT_SETS = [
    [("-1/2", "0"), ("0", "0"), ("1/2", "0")],
    [("-2/3", "0"), ("1/5", "0"), ("3/5", "0")],
    [("-1/2", "0"), ("1/4", "0")],
    [("1/3", "1/7")],
]


def _signed(low: int, high: int):
    return st.integers(low, high).flatmap(lambda e: st.sampled_from([e, -e]))


@st.composite
def extreme_configs(draw):
    """(config text, a point on its circle): a unit-circle point set with
    r^2 scaled to 10^±300..800, the points drawn together around the
    center by 10^-300..800, and the center shifted by 10^±300..800, each
    optional."""
    ten, zero = Fraction(10), Fraction(0)
    r = ten ** draw(st.one_of(st.just(0), _signed(150, 400)))
    spread = ten ** draw(st.one_of(st.just(0), st.integers(-800, -300)))
    shift = draw(st.one_of(st.just(zero), _signed(300, 800).map(lambda e: ten ** e)))
    cx, cy = draw(st.sampled_from([(shift, zero), (zero, shift)]))
    points = [(cx + r * spread * Fraction(x), cy + r * spread * Fraction(y))
              for x, y in draw(st.sampled_from(UNIT_POINT_SETS))]
    f = format_fraction
    text = f"circle {f(cx)} {f(cy)} {f(r * r)}\n"
    text += "".join(f"point {f(x)} {f(y)}\n" for x, y in points)
    return text, f"{f(cx)},{f(cy + r)}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), text_a=config_texts, text_b=config_texts)
def test_cli_main_exit_codes(workdir, data, text_a, text_b):
    a, b, svg = workdir / "a.cfg", workdir / "b.cfg", workdir / "out.svg"
    a.write_text(text_a)
    b.write_text(text_b)
    argv = data.draw(commands(str(a), str(b), str(svg)), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), config=extreme_configs())
def test_cli_pictures_of_extreme_magnitudes(workdir, data, config):
    text, point = config
    path, svg = workdir / "extreme.cfg", workdir / "extreme.svg"
    path.write_text(text)
    depth = data.draw(st.integers(0, 4).map(str), label="depth")
    argv = data.draw(st.sampled_from([
        ["render", str(path), "--svg", str(svg)],
        ["render", str(path), "--svg", str(svg), "--point", point, "--orbit-depth", depth],
        ["orbit", str(path), "--point", point, "--depth", depth, "--svg", str(svg)],
    ]), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
