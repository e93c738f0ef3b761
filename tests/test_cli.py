import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import pt
from reversions.classify import (
    SamplingExhausted,
    SignChangeError,
    search_closing_config,
    validate_config,
)
from reversions.cli import (
    ConfigParseError,
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    MAX_BOUND,
    MAX_DEPTH,
    main,
    parse_config,
    serialize_config,
)
from reversions.geometry import Circle, UNIT_CIRCLE
from reversions.iso import CollisionError

SYMMETRIC = "circle 0 0 1\npoint -1/2 0\npoint 0 0\npoint 1/2 0\n"


@pytest.fixture
def sym_file(tmp_path):
    path = tmp_path / "sym.cfg"
    path.write_text(SYMMETRIC)
    return str(path)


def test_parse_config_basic():
    config = parse_config(SYMMETRIC)
    assert config.circle == UNIT_CIRCLE
    assert config.points == (pt("-1/2", 0), pt(0, 0), pt("1/2", 0))


def test_parse_config_comments_and_whitespace():
    text = "# a comment\n\n  circle 0 0 1  \npoint -1/2 0\n# mid\npoint 0 0\npoint 1/2 0\n"
    assert parse_config(text).points == parse_config(SYMMETRIC).points


def test_parse_config_base_line():
    config = parse_config(SYMMETRIC + "base 3/5 4/5\n")
    assert config.base_point == pt("3/5", "4/5")


def test_parse_config_errors():
    with pytest.raises(ConfigParseError) as err:
        parse_config("point 0 0\n")
    assert err.value.line == 1
    with pytest.raises(ConfigParseError) as err:
        parse_config("circle 0 0 1\npoint 1/0 0\n")
    assert err.value.line == 2
    with pytest.raises(ConfigParseError):
        parse_config("circle 0 0 1\ncircle 0 0 1\npoint 0 0\n")
    with pytest.raises(ConfigParseError):
        parse_config("circle 0 0 1\nwiggle 1 2\n")
    with pytest.raises(ConfigParseError):
        parse_config("circle 0 0 1\n" + "point 0 0\n" * 0)
    with pytest.raises(ConfigParseError):
        parse_config(SYMMETRIC + "point 1/4 0\n")  # four points


def test_serialize_round_trip_corpus():
    rng = random.Random(2024)
    corpus = []
    for _ in range(50):
        r2 = Fraction(rng.randint(1, 9))
        count = rng.randint(1, 3)
        cx, cy = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        xs = sorted(rng.sample(range(-40, 41), count))
        pts = tuple(pt(cx + Fraction(x, 100) * r2, cy) for x in xs)
        corpus.append(serialize_config(validate_config(Circle.of(cx, cy, r2 * r2), pts)))
    for text in corpus:
        config = parse_config(text)
        assert serialize_config(config) == text
        again = parse_config(serialize_config(config))
        assert (again.circle, again.points, again.base_point) == \
            (config.circle, config.points, config.base_point)


def test_irrational_radius_round_trip():
    # r^2 = 2 has no derivable base point; the explicit base line must
    # survive the round trip, and omitting it is a validation error
    text = "circle 0 0 2\npoint 0 0\nbase 1 1\n"
    config = parse_config(text)
    assert serialize_config(config) == text
    from reversions.classify import ConfigValidationError
    with pytest.raises(ConfigValidationError) as err:
        parse_config("circle 0 0 2\npoint 0 0\n")
    assert err.value.check == "base_point"


def test_serialize_keeps_explicit_base():
    text = SYMMETRIC + "base 3/5 4/5\n"
    config = parse_config(text)
    assert "base 3/5 4/5" in serialize_config(config)
    # a base equal to the derived default is normalized away
    assert "base" not in serialize_config(parse_config(SYMMETRIC + "base 1 0\n"))


def test_cli_classify(sym_file, capsys):
    assert main(["classify", sym_file, "--bound", "8"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "cycle -1 2 -1"


def test_cli_classify_strict_inconclusive(tmp_path, capsys):
    config = search_closing_config((-3, 4, -1))
    path = tmp_path / "c.cfg"
    path.write_text(serialize_config(config))
    assert main(["classify", str(path), "--bound", "2", "--strict"]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.strip() == "no-cycle-upto 2"
    assert main(["classify", str(path), "--bound", "8", "--strict"]) == EXIT_OK


def test_cli_word(capsys):
    assert main(["word", "signature", "2,1,2,3"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "-1 2 -1"
    assert main(["word", "reduce", "1,2,2,3"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1,3"
    assert main(["word", "normal", "2,3,2,1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2,1,2,3"
    assert main(["word", "signature", "e", "--alphabet", "3"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0 0 0"
    assert main(["word", "reduce", "2,2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "e"


def test_cli_is_cycle(sym_file, capsys):
    assert main(["is-cycle", sym_file, "--v", "-1,2,-1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "true"
    assert main(["is-cycle", sym_file, "--v", "-2,3,-1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "false"


def test_cli_iso(sym_file, tmp_path, capsys):
    big = tmp_path / "big.cfg"
    big.write_text("circle 3 1 4\npoint 2 1\npoint 3 1\npoint 4 1\n")
    assert main(["iso", sym_file, str(big), "--bound", "8"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "isomorphic v=(-1,2,-1)"


def test_cli_iso_strict_conditional(tmp_path, capsys):
    from reversions.classify import avoid_all_cycles
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text(serialize_config(avoid_all_cycles(4, seed=1)))
    b.write_text(serialize_config(avoid_all_cycles(4, seed=2)))
    assert main(["iso", str(a), str(b), "--bound", "4"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "conditionally-isomorphic bound=4"
    assert main(["iso", str(a), str(b), "--bound", "4", "--strict"]) == EXIT_INCONCLUSIVE


def test_cli_realize(capsys):
    assert main(["realize", "--v", "-1,2,-1", "--closing"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("circle 0 0 1\n")
    assert "point 1/2 0" in out
    assert main(["realize", "--v", "-2,3,-1", "--bisect", "--width", "1/1024"]) == EXIT_OK
    fields = capsys.readouterr().out.split()
    assert fields[:3] == ["-2", "3", "-1"]
    lo, hi = Fraction(fields[3]), Fraction(fields[4])
    assert hi - lo <= Fraction(1, 1024)


def test_cli_orbit(sym_file, capsys, tmp_path):
    assert main(["orbit", sym_file, "--point", "0,1", "--depth", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["-4/5 -3/5", "0 -1", "0 1", "4/5 -3/5"]
    svg = tmp_path / "orbit.svg"
    assert main(["orbit", sym_file, "--point", "0,1", "--depth", "2",
                 "--svg", str(svg)]) == EXIT_OK
    capsys.readouterr()
    assert svg.read_text().startswith("<?xml")


# Configurations whose picture needs numbers outside the float range:
# r^2 = 10^700 overflows; r^2 = 10^-800 underflows to a zero radius, with
# or without an interior line; on the unit circle, points 10^-400 apart
# give a zero chord direction.
FLOAT_RANGE_CASES = {
    "huge-radius": ("1" + "0" * 700, ["0", "1", "2"], "0,1" + "0" * 350),
    "tiny-radius": ("1/1" + "0" * 800, ["0", "1/1" + "0" * 1200, "2/1" + "0" * 1200],
                    "0,1/1" + "0" * 400),
    "tiny-radius-one-point": ("1/1" + "0" * 800, ["0"], "0,1/1" + "0" * 400),
    "close-points": ("1", ["0", "1/1" + "0" * 400, "2/1" + "0" * 400], "0,1"),
}


@pytest.mark.parametrize("case", sorted(FLOAT_RANGE_CASES))
def test_cli_pictures_beyond_float_range_exit_2(case, tmp_path, capsys):
    r2, xs, point = FLOAT_RANGE_CASES[case]
    path = tmp_path / "c.cfg"
    path.write_text(f"circle 0 0 {r2}\n" + "".join(f"point {x} 0\n" for x in xs))
    svg = tmp_path / "out.svg"
    assert main(["render", str(path), "--svg", str(svg)]) == EXIT_INVALID
    assert main(["orbit", str(path), "--point", point, "--depth", "2",
                 "--svg", str(svg)]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 2 and "Traceback" not in err
    assert not svg.exists()
    # without a picture the orbit is exact and prints
    assert main(["orbit", str(path), "--point", point, "--depth", "2"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) > 1


def test_cli_render_deterministic(sym_file, tmp_path, capsys):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", sym_file, "--svg", str(out1), "--cycle", "-1,2,-1"]) == EXIT_OK
    assert main(["render", sym_file, "--svg", str(out2), "--cycle", "-1,2,-1"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert b"polygon" in out1.read_bytes()


def test_cli_render_refuses_non_cycle(sym_file, tmp_path, capsys):
    out = tmp_path / "no.svg"
    assert main(["render", sym_file, "--svg", str(out), "--cycle", "-2,3,-1"]) == EXIT_INVALID
    assert not out.exists()
    assert "not a cycle" in capsys.readouterr().err
    # the empty word of the zero vector fixes every point but draws nothing
    assert main(["render", sym_file, "--svg", str(out), "--cycle", "0,0,0"]) == EXIT_INVALID
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_sign_change_error_exit(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise SignChangeError("no certified sign change")

    monkeypatch.setattr("reversions.cli.realize_by_bisection", broken)
    assert main(["realize", "--v", "-2,3,-1", "--bisect"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_sampling_exhausted_exit(sym_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise SamplingExhausted("no cycle-free sample")

    monkeypatch.setattr("reversions.cli.classify", broken)
    assert main(["classify", sym_file]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_collision_error_exit(sym_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise CollisionError("targets collide")

    monkeypatch.setattr("reversions.cli.decide_iso", broken)
    assert main(["iso", sym_file, sym_file]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_validation_exit(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("circle 0 0 1\npoint 1/0 0\n")
    assert main(["classify", str(bad)]) == EXIT_INVALID
    assert "line 2" in capsys.readouterr().err
    missing = tmp_path / "missing.cfg"
    assert main(["classify", str(missing)]) == EXIT_INVALID
    capsys.readouterr()


def test_cli_usage_exit(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["classify"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["is-cycle", "x.cfg", "--v"]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_in_process_calls_match_fresh_process(sym_file, tmp_path, monkeypatch, capsys):
    # callers such as the benchmark run main many times in one process; a
    # call, a usage error included, must leave nothing behind that changes
    # a later one
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__import__("reversions").__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    calls = [
        ["classify", sym_file, "--bound", "4"],
        ["classify", "--frob", sym_file],
        ["iso", sym_file, sym_file, "--strict"],
        ["realize", "--v", "-1,2,-1"],
        ["orbit", sym_file, "--point", "0,1", "--depth", "2"],
        ["word", "signature", "2,1,2,3"],
        ["classify", sym_file, "--bound", str(MAX_BOUND + 1)],
        ["word", "reduce"],
        ["classify", sym_file],
    ]
    for argv in calls:
        code = main(argv)
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "reversions", *argv], env=env,
                               cwd=tmp_path, capture_output=True, text=True)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_cli_bound_budget(sym_file, capsys):
    for command in (["classify", sym_file], ["iso", sym_file, sym_file]):
        assert main([*command, "--bound", str(MAX_BOUND)]) == EXIT_OK
        capsys.readouterr()
        assert main([*command, "--bound", str(MAX_BOUND + 1)]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --bound {MAX_BOUND + 1} exceeds the budget of {MAX_BOUND}\n"


def test_cli_depth_budget(tmp_path, capsys):
    # one interior point: the orbit of a point has at most two points
    path = tmp_path / "one.cfg"
    path.write_text("circle 0 0 1\npoint 1/3 1/7\n")
    orbit = ["orbit", str(path), "--point", "0,1", "--depth"]
    assert main([*orbit, str(MAX_DEPTH)]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main([*orbit, str(MAX_DEPTH + 1)]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --depth {MAX_DEPTH + 1} exceeds the budget of {MAX_DEPTH}\n"


def test_cli_orbit_depth_budget(tmp_path, capsys):
    path = tmp_path / "one.cfg"
    path.write_text("circle 0 0 1\npoint 1/3 1/7\n")
    svg = tmp_path / "out.svg"
    render = ["render", str(path), "--svg", str(svg), "--point", "0,1", "--orbit-depth"]
    assert main([*render, str(MAX_DEPTH)]) == EXIT_OK
    assert svg.read_text().count('fill="green"') == 2
    svg.unlink()
    assert main([*render, str(MAX_DEPTH + 1)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == f"error: --orbit-depth {MAX_DEPTH + 1} exceeds the budget of {MAX_DEPTH}\n"
    assert not svg.exists()


def test_cycle_polygon_closed(sym_file):
    from reversions.svg import UnverifiedCycle, cycle_polygon, render_svg
    config = parse_config(SYMMETRIC)
    chain = cycle_polygon(config, (-1, 2, -1))
    assert len(chain) == 5
    assert chain[0] == chain[-1]
    with pytest.raises(UnverifiedCycle):
        cycle_polygon(config, (-2, 3, -1))
    svg = render_svg(config, cycle_points=chain)
    assert svg.count("<circle") == 1 + 3  # outline plus interior points
    assert "<polygon" in svg and "<line" in svg


def test_render_single_point_has_no_line():
    from reversions.svg import render_svg
    config = validate_config(UNIT_CIRCLE, (pt("1/3", "1/7"),))
    assert "<line" not in render_svg(config)
