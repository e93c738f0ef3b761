import ast
import errno
import importlib
import os
import pkgutil
import random
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reversions
from conftest import PERFBENCH, pt
from reversions import cli
from reversions.classify import search_closing_config, validate_config
from reversions.cli import (
    ConfigParseError,
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    MAX_BOUND,
    MAX_DEPTH,
    MAX_ENTRY,
    MAX_HALVINGS,
    MAX_REALIZE_ENTRY,
    main,
    parse_config,
    serialize_config,
)
from reversions.geometry import Circle, UNIT_CIRCLE

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
    a.write_text(serialize_config(avoid_all_cycles(seed=1)))
    b.write_text(serialize_config(avoid_all_cycles(seed=2)))
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


@pytest.mark.parametrize("extra", [[], ["--cycle", "-1,2,-1"]])
def test_cli_render_point_and_orbit_depth_need_each_other(extra, sym_file, tmp_path, capsys):
    out = tmp_path / "no.svg"
    render = ["render", sym_file, "--svg", str(out), *extra]
    assert run([*render, "--point", "0,1"], capsys) == \
        (EXIT_INVALID, "", "error: --point needs --orbit-depth\n")
    assert not out.exists()
    assert run([*render, "--orbit-depth", "2"], capsys) == \
        (EXIT_INVALID, "", "error: --orbit-depth needs --point\n")
    assert not out.exists()
    assert run([*render, "--point", "0,1", "--orbit-depth", "2"], capsys) == (EXIT_OK, "", "")
    _, orbit_out, _ = run(["orbit", sym_file, "--point", "0,1", "--depth", "2"], capsys)
    assert out.read_text().count('fill="green"') == len(orbit_out.splitlines()) == 8


# An SVG path is opened without truncation, written, and then a regular
# file is cut to the bytes written, so an existing picture is rewritten in
# place.
OLD_PICTURE = b"<old picture/>\n" * 4000
PICTURES = {
    "render": ["render", "{cfg}", "--svg", "{svg}", "--cycle", "-1,2,-1",
               "--orbit-depth", "2", "--point", "0,1"],
    "orbit": ["orbit", "{cfg}", "--point", "0,1", "--depth", "2", "--svg", "{svg}"],
}


def picture_argv(kind: str, cfg, svg) -> list:
    return [a.format(cfg=cfg, svg=svg) for a in PICTURES[kind]]


@pytest.mark.parametrize("kind", sorted(PICTURES))
def test_cli_svg_rewrite_leaves_only_the_new_bytes(kind, sym_file, tmp_path, capsys):
    new, old = tmp_path / "new.svg", tmp_path / "old.svg"
    assert main(picture_argv(kind, sym_file, new)) == EXIT_OK
    old.write_bytes(OLD_PICTURE)
    assert main(picture_argv(kind, sym_file, old)) == EXIT_OK
    assert len(new.read_bytes()) < len(OLD_PICTURE)
    assert old.read_bytes() == new.read_bytes()


def test_cli_svg_through_a_symlink_updates_its_target(sym_file, tmp_path, capsys):
    new, target, link = tmp_path / "new.svg", tmp_path / "target.svg", tmp_path / "link.svg"
    assert main(picture_argv("render", sym_file, new)) == EXIT_OK
    target.write_bytes(OLD_PICTURE)
    link.symlink_to(target)
    assert main(picture_argv("render", sym_file, link)) == EXIT_OK
    assert link.is_symlink()
    assert target.read_bytes() == new.read_bytes()


def test_cli_svg_to_a_device_is_not_truncated(sym_file, tmp_path, capsys, monkeypatch):
    cut = []

    def ftruncate(fd, length):
        cut.append(length)
        return os_ftruncate(fd, length)

    os_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", ftruncate)
    for kind in sorted(PICTURES):
        assert main(picture_argv(kind, sym_file, os.devnull)) == EXIT_OK
    assert cut == []
    svg = tmp_path / "out.svg"
    assert main(picture_argv("render", sym_file, svg)) == EXIT_OK
    assert cut == [len(svg.read_bytes())]


def test_cli_svg_new_file_mode_follows_the_umask(sym_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    old = os.umask(0o027)
    try:
        assert main(picture_argv("render", sym_file, svg)) == EXIT_OK
    finally:
        os.umask(old)
    assert stat.S_IMODE(svg.stat().st_mode) == 0o666 & ~0o027


@pytest.mark.parametrize("kind", sorted(PICTURES))
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_cli_unwritable_svg_exits_2_and_prints_nothing(kind, target, sym_file, tmp_path,
                                                       capsys):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.svg"
    assert main(picture_argv(kind, sym_file, path)) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_cli_failed_svg_write_keeps_only_what_was_written(sym_file, tmp_path, capsys,
                                                         monkeypatch):
    svg = tmp_path / "out.svg"
    svg.write_bytes(OLD_PICTURE)
    os_write = os.write
    calls = []

    def short_then_full(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return os_write(fd, data[:100])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", short_then_full)
    assert main(picture_argv("orbit", sym_file, svg)) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and "No space left" in err
    monkeypatch.undo()
    new = tmp_path / "new.svg"
    assert main(picture_argv("orbit", sym_file, new)) == EXIT_OK
    assert svg.read_bytes() == new.read_bytes()[:100]


def test_cli_refused_picture_leaves_the_file_unchanged(sym_file, tmp_path, capsys,
                                                      monkeypatch):
    svg = tmp_path / "out.svg"
    svg.write_bytes(OLD_PICTURE)
    # UnverifiedCycle
    for v in ("-2,3,-1", "0,0,0"):
        assert main(["render", sym_file, "--svg", str(svg), "--cycle", v]) == EXIT_INVALID
    # OutOfFloatRange from the configuration
    for case in sorted(FLOAT_RANGE_CASES):
        r2, xs, point = FLOAT_RANGE_CASES[case]
        path = tmp_path / "c.cfg"
        path.write_text(f"circle 0 0 {r2}\n" + "".join(f"point {x} 0\n" for x in xs))
        assert main(["render", str(path), "--svg", str(svg)]) == EXIT_INVALID
        assert main(["orbit", str(path), "--point", point, "--depth", "2",
                     "--svg", str(svg)]) == EXIT_INVALID
    # OutOfFloatRange from an orbit point, which no circle whose own
    # picture fits in floats has: X / W overflows
    monkeypatch.setattr("reversions.cli.orbit", lambda *args: ((0, 1, 1), (10**400, 0, 1)))
    for kind in sorted(PICTURES):
        assert main(picture_argv(kind, sym_file, svg)) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error: ") == 2 + 2 * len(FLOAT_RANGE_CASES) + 2
    assert err.count("beyond the float range") >= 2 and "Traceback" not in err
    assert svg.read_bytes() == OLD_PICTURE


def _library_errors() -> dict:
    """Every public exception class that a `reversions` module defines,
    by name; `__main__` runs the CLI on import, so it is left out."""
    errors = {}
    for info in pkgutil.iter_modules(reversions.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"reversions.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, BaseException) \
                    and value.__module__ == module.__name__ and not name.startswith("_"):
                errors[name] = value
    return errors


LIBRARY_ERRORS = _library_errors()
# constructor arguments of the errors that take more than a message
ERROR_ARGS = {"ConfigValidationError": ("ordering", "boom"), "ConfigParseError": (2, "boom")}


@pytest.mark.parametrize("name", sorted(LIBRARY_ERRORS))
def test_cli_library_error_exit(name, monkeypatch, capsys):
    error = LIBRARY_ERRORS[name](*ERROR_ARGS.get(name, ("boom",)))

    def broken(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "classify", broken)
    assert main(["classify", "any.cfg"]) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {error}\n")


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


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_vector_budget(sym_file, tmp_path, capsys):
    # the largest entry in absolute value is half the word length, also
    # when the middle entry is 0; the symmetric cycle's multiples are cycles
    svg = tmp_path / "out.svg"
    at, over = MAX_ENTRY // 2, MAX_ENTRY // 2 + 1
    assert run(["is-cycle", sym_file, "--v", f"-{at},{MAX_ENTRY},-{at}"], capsys) == \
        (EXIT_OK, "true\n", "")
    for flag, argv in (("--v", ["is-cycle", sym_file, "--v"]),
                       ("--cycle", ["render", sym_file, "--svg", str(svg), "--cycle"])):
        for v in (f"-{over},{MAX_ENTRY + 1},-{at}", f"{MAX_ENTRY + 1},0,-{MAX_ENTRY + 1}"):
            assert run([*argv, v], capsys) == (
                EXIT_INVALID, "",
                f"error: {flag} entry {MAX_ENTRY + 1} exceeds the budget of {MAX_ENTRY}\n")
    assert not svg.exists()
    # an unbalanced vector builds no word, so it is not capped
    assert run(["is-cycle", sym_file, "--v", f"{MAX_ENTRY + 1},0,0"], capsys) == \
        (EXIT_OK, "false\n", "")
    code, _, err = run(["render", sym_file, "--svg", str(svg), "--cycle",
                        f"{MAX_ENTRY + 1},0,0"], capsys)
    assert code == EXIT_INVALID and "budget" not in err
    n = MAX_REALIZE_ENTRY
    code, out, _ = run(["realize", "--v", f"-{n - 1},{n},-1", "--closing"], capsys)
    assert code == EXIT_OK and out.startswith("circle ")
    for method in ("--closing", "--bisect"):
        assert run(["realize", "--v", f"-{n},{n + 1},-1", method], capsys) == (
            EXIT_INVALID, "",
            f"error: --v entry {n + 1} exceeds the budget of {MAX_REALIZE_ENTRY}\n")
        code, _, err = run(["realize", "--v", f"-{n},{n + 1},0", method], capsys)
        assert code == EXIT_INVALID and "balanced" in err and "budget" not in err


def test_cli_width_budget(capsys):
    # ceil(log2(1/width)) halvings: 2^-64 is within 64, just below it is not
    bisect = ["realize", "--v", "-1,3,-2", "--bisect", "--width"]
    code, out, _ = run([*bisect, f"1/{2 ** MAX_HALVINGS}"], capsys)
    assert code == EXIT_OK
    lo, hi = (Fraction(x) for x in out.split()[3:])
    assert 0 < hi - lo <= Fraction(1, 2 ** MAX_HALVINGS)
    assert run([*bisect, f"1/{2 ** MAX_HALVINGS + 1}"], capsys) == (
        EXIT_INVALID, "",
        f"error: --width halvings {MAX_HALVINGS + 1} exceeds the budget of {MAX_HALVINGS}\n")
    # no budget message for widths that are not positive, or for --closing
    code, _, err = run([*bisect, f"-1/{2 ** 100}"], capsys)
    assert code == EXIT_INVALID and err.startswith("error: width bound must be positive")
    code, _, err = run(["realize", "--v", "-1,3,-1", "--bisect", "--width", f"1/{2 ** 100}"],
                       capsys)
    assert code == EXIT_INVALID and "must be a balanced 3-vector" in err
    code, _, _ = run(["realize", "--v", "-2,3,-1", "--closing", "--width", f"1/{2 ** 100}"],
                     capsys)
    assert code == EXIT_OK


def perfbench_constants() -> dict:
    """The module-level constants of perfbench/workloads.py, read from its
    source without importing it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: eval(compile(ast.Expression(node.value), "workloads", "eval"),
                                     {"Fraction": Fraction})
            for node in tree.body
            if isinstance(node, ast.Assign) and node.targets[0].id.isupper()}


def test_cli_word_alphabet_budget(capsys):
    # the alphabet, given or the largest letter, sizes the signature's list
    big = "99999999999999999999"
    for argv in (["signature", big], ["normal", big], ["reduce", big],
                 ["signature", "1", "--alphabet", big], ["reduce", "1", "--alphabet", "4097"]):
        code, out, err = run(["word", *argv], capsys)
        assert (code, out) == (EXIT_INVALID, ""), argv
        assert err.startswith("error: alphabet ") and err.endswith(" exceeds the budget of 4096\n")
    assert run(["word", "signature", "4096"], capsys)[0] == EXIT_OK
    assert run(["word", "normal", "1", "--alphabet", "4096"], capsys) == (EXIT_OK, "1\n", "")


def test_cli_word_malformed_literal_with_and_without_alphabet(capsys):
    # one letters parser, so the inferred alphabet gives the same message
    for letters in ("1,,2", "1,x", ","):
        expected = (EXIT_INVALID, "", f"error: malformed word literal {letters!r}\n")
        for extra in ([], ["--alphabet", "3"]):
            assert run(["word", "reduce", letters, *extra], capsys) == expected, extra


def test_cli_empty_flag_values_exit_2(sym_file, tmp_path, capsys):
    # an empty value is a value, not an absent flag
    svg = tmp_path / "out.svg"
    for argv in (["orbit", sym_file, "--point", "0,1", "--svg="],
                 ["render", sym_file, "--svg", str(svg), "--cycle="],
                 ["render", sym_file, "--svg="]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_INVALID, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not svg.exists()


def test_cli_budgets_admit_the_benchmark_inputs():
    c = perfbench_constants()
    assert c["CLASSIFY_BOUND"] <= MAX_BOUND and c["ISO_BOUND"] <= MAX_BOUND
    assert c["ORBIT_DEPTH"] <= MAX_DEPTH and c["RENDER_ORBIT_DEPTH"] <= MAX_DEPTH
    assert max(c["DRAW_V2_MAX"], c["ISO_V2_MAX"]) <= MAX_ENTRY
    assert max(c["BISECT_V2_MAX"], c["CLOSING_N_MAX"]) <= MAX_REALIZE_ENTRY
    width = c["BISECT_WIDTH"]
    assert ((width.denominator - 1) // width.numerator).bit_length() <= MAX_HALVINGS


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
