"""Command-line front end: configuration files, subcommands, SVG output.

Configuration files are plain text, one item per line:

    circle <cx> <cy> <r2>      center and squared radius
    point <x> <y>              interior points, in index order (1 to 3)
    base <x> <y>               optional rational point on the circle
    # comment

All numbers are exact rationals written as p/q (or a plain integer).

Exit codes: 0 success, 2 validation or construction failure (including a
--bound, --depth, vector entry or --width above its budget), 3
inconclusive answer under --strict, 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys
from typing import Optional

from .action import Config, is_cycle, orbit
from .classify import (
    ConfigValidationError,
    NoCycleUpTo,
    SignChangeError,
    classify,
    default_base_point,
    format_label,
    realize_by_bisection,
    search_closing_config,
    validate_config,
)
from .geometry import (
    Circle,
    GeometryError,
    Point,
    format_circle,
    format_fraction,
    format_point,
    format_triple,
    parse_fraction,
)
from .iso import CollisionError, ConditionallyIsomorphic, decide_iso, format_verdict
from .svg import cycle_polygon, render_svg
from .words import (
    Word,
    is_balanced,
    letters_from_str,
    normal_form,
    signature_of,
    word_to_str,
)

__all__ = ["main", "parse_config", "serialize_config", "ConfigParseError"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64

# Budgets for the user-controlled work sizes, measured on points 0, 1/3,
# 5/7 (or -1/2, 0, 1/3) of the unit circle, whose coordinates are small
# (Python 3.11, one core of a shared 2-vCPU host).  The cycle decision takes
# no reversion step, and the bound only stops its merge when both
# tau = lambda + 1/lambda are integers: `classify` and `iso` at bound 4096
# take a few milliseconds, on points -1/4, 0, 1/3 of the chord y = 1/3 as on
# a diameter.  Large coordinates cost more: with w = (1+x)/(1-x) = 1, 2^600
# and 2^1201 for points (x, 0), a 1.1 kB file, they take 0.07 s and 0.14 s.
# `orbit --depth 60 --svg` from (0, 1) yields 5,491 points in about 0.1 s; on
# -1/2, 1/(2^1200+1), 1/3 it stops in level 11, past `action.MAX_ORBIT_BITS`
# bits a coordinate whatever PYTHONINTMAXSTRDIGITS says, in about 0.15 s.
# A balanced vector's largest entry in absolute value (the middle entry of
# a canonical vector) is half the length of its word.  `is-cycle` walks no
# word and checks the primitive cycle (0.02 s at entry 4096 on the 2^600
# file); `render --cycle` walks a cycle's witness word, whose triples stay
# near the input's size: 0.02 s for the one at 2^300 and for twice it,
# 0.05 s for six times it.
# `realize --bisect` costs grow with both its vector and the number of
# halvings down to --width, ceil(log2(1/width)): at entry 64 and 64
# halvings it takes about 6 ms, at 128 and 64 about 6 ms, and at 64 and
# 256 about 0.05 s.  A `word` alphabet, given or the largest letter, sizes
# the list of its signature.  Larger values exit 2.
MAX_BOUND = 4096
MAX_DEPTH = 60
MAX_ENTRY = 4096
MAX_REALIZE_ENTRY = 64
MAX_HALVINGS = 64
MAX_ALPHABET = 4096


class ConfigParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Vector and point values like -1,2,-1 start with a dash; widen the
        # stock negative-number heuristic so they parse as values, not flags.
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise _UsageError(message)


# directive: (the names of its numbers, whether it is once only, their builder)
_DIRECTIVES = {
    "circle": ("cx cy r2", True, Circle.of),
    "point": ("x y", False, Point),
    "base": ("x y", True, Point),
}


def parse_config(text: str) -> Config:
    """Parse and validate a configuration file; diagnostics carry the line
    number of the offending line."""
    read = {kind: [] for kind in _DIRECTIVES}  # (line number, value) per directive
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *args = line.split()
        try:
            values = [parse_fraction(a) for a in args]
        except ValueError as exc:
            raise ConfigParseError(lineno, f"malformed rational: {exc}") from exc
        if kind not in _DIRECTIVES:
            raise ConfigParseError(lineno, f"unknown directive {kind!r}")
        names, once, build = _DIRECTIVES[kind]
        if once and read[kind]:
            raise ConfigParseError(lineno, f"second {kind} line")
        if len(values) != len(names.split()):
            raise ConfigParseError(lineno, f"{kind} needs {names}")
        try:
            read[kind].append((lineno, build(*values)))
        except GeometryError as exc:
            raise ConfigParseError(lineno, str(exc)) from exc
    if not read["circle"]:
        raise ConfigParseError(1, "missing circle line")
    [(circle_line, circle)] = read["circle"]
    points = tuple(p for _, p in read["point"])
    if not 1 <= len(points) <= 3:
        raise ConfigParseError(circle_line, f"need 1 to 3 point lines, got {len(points)}")
    return validate_config(circle, points, next((b for _, b in read["base"]), None))


def serialize_config(config: Config) -> str:
    """Canonical text for a configuration; the base line is kept only when
    it differs from the derived default."""
    lines = [format_circle(config.circle)]
    for p in config.points:
        lines.append(f"point {format_point(p)}")
    try:
        derived = default_base_point(config.circle)
    except ConfigValidationError:
        derived = None
    if config.base_point != derived:
        lines.append(f"base {format_point(config.base_point)}")
    return "\n".join(lines) + "\n"


def _load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _parse_vector(flag: str, text: str, cap: int) -> tuple:
    """v1,v2,v3; a balanced vector has no entry beyond the budget in
    absolute value.  An unbalanced one is answered or refused without
    building its word, so it needs no budget."""
    v = tuple(_comma_values(text, "v1,v2,v3", int))
    if is_balanced(v):
        _within_budget(f"{flag} entry", max(abs(x) for x in v), cap)
    return v


def _comma_values(text: str, names: str, parse) -> list:
    """The parsed values of a flag like x,y, one for each of the names."""
    parts = text.split(",")
    if len(parts) != len(names.split(",")):
        raise ValueError(f"expected {names}, got {text!r}")
    return [parse(p) for p in parts]


def _parse_word_arg(text: str, alphabet: Optional[int]) -> Word:
    letters = letters_from_str(text)
    if alphabet is None:
        alphabet = max(letters, default=3)
    return Word.reduced(letters, _within_budget("alphabet", alphabet, MAX_ALPHABET))


def _within_budget(flag: str, value: int, cap: int, least: Optional[int] = None) -> int:
    """The value of a flag, refused below its least meaningful value or
    above its budget; the commands check their flags before they load a
    file."""
    if least is not None and value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")
    if value > cap:
        raise ValueError(f"{flag} {value} exceeds the budget of {cap}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="reversions", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="class label of a three-point configuration")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=8, help="largest middle entry searched")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the search is inconclusive")

    p = sub.add_parser("is-cycle", help="exact cycle test for one vector")
    p.add_argument("file")
    p.add_argument("--v", required=True, help="v1,v2,v3")

    p = sub.add_parser("realize", help="construct a configuration with a given cycle")
    p.add_argument("--v", required=True, help="v1,v2,v3")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--closing", action="store_true",
                       help="exact chord-closing construction (v3 = -1)")
    group.add_argument("--bisect", action="store_true",
                       help="certified interval for the middle point")
    p.add_argument("--width", default="1/1048576",
                   help="interval width bound for --bisect")

    p = sub.add_parser("iso", help="betweenness isomorphism verdict for two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("orbit", help="orbit of a circle point up to a word length")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="x,y on the circle")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--svg", help="write a picture to this file")

    p = sub.add_parser("word", help="word algebra utilities")
    p.add_argument("operation", choices=["reduce", "signature", "normal"])
    p.add_argument("letters", help="comma-separated letters, or e for the empty word")
    p.add_argument("--alphabet", type=int,
                   help="alphabet size (default: largest letter)")

    p = sub.add_parser("render", help="draw a configuration")
    p.add_argument("file")
    p.add_argument("--svg", required=True)
    p.add_argument("--cycle", help="draw the closed polygon of this verified cycle")
    p.add_argument("--orbit-depth", type=int,
                   help="overlay the orbit of --point up to this word length")
    p.add_argument("--point", help="x,y for --orbit-depth")
    return parser


def _cmd_classify(args) -> int:
    bound = _within_budget("--bound", args.bound, MAX_BOUND, least=1)
    label = classify(_load_config(args.file), bound)
    print(format_label(label))
    if args.strict and isinstance(label, NoCycleUpTo):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_is_cycle(args) -> int:
    v = _parse_vector("--v", args.v, MAX_ENTRY)
    print("true" if is_cycle(_load_config(args.file), v) else "false")
    return EXIT_OK


def _cmd_realize(args) -> int:
    v = _parse_vector("--v", args.v, MAX_REALIZE_ENTRY)
    if args.closing:
        sys.stdout.write(serialize_config(search_closing_config(v)))
        return EXIT_OK
    width = parse_fraction(args.width)
    # ceil(log2(1/width)) halvings take [-1/2, 1/2] to the width; an
    # unbalanced vector is refused before any
    if width > 0 and is_balanced(v):
        halvings = ((width.denominator - 1) // width.numerator).bit_length()
        _within_budget("--width halvings", halvings, MAX_HALVINGS)
    interval = realize_by_bisection(v, width)
    print("{} {} {} {} {}".format(*interval.vector,
                                  format_fraction(interval.a_lo),
                                  format_fraction(interval.a_hi)))
    return EXIT_OK


def _cmd_iso(args) -> int:
    bound = _within_budget("--bound", args.bound, MAX_BOUND, least=1)
    verdict = decide_iso(_load_config(args.file_a), _load_config(args.file_b), bound)
    print(format_verdict(verdict))
    if args.strict and isinstance(verdict, ConditionallyIsomorphic):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _write_svg(path: str, svg: str) -> None:
    """Write the picture to `path` in place: open without truncating
    (a new file gets mode 0o666 less the umask, as `open(path, "w")` gives
    it), write the UTF-8 bytes, then cut a regular file to the bytes
    written.  Truncating an existing file on open costs more than the
    rewrite on some filesystems.  The cut runs also when a write fails, so
    the file then holds at most what was written, as with a truncating
    open; a file that is not regular, such as /dev/null, is not cut."""
    data = memoryview(svg.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _cmd_orbit(args) -> int:
    depth = _within_budget("--depth", args.depth, MAX_DEPTH, least=0)
    start = Point(*_comma_values(args.point, "x,y", parse_fraction))
    config = _load_config(args.file)
    points = orbit(config, start, depth)
    # format, draw, print: a failure (a lowered digit limit, say) leaves no output
    text = "".join(format_triple(t) + "\n" for t in points)
    if args.svg is not None:
        _write_svg(args.svg, render_svg(config, orbit_points=points))
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_word(args) -> int:
    word = _parse_word_arg(args.letters, args.alphabet)
    if args.operation == "reduce":
        print(word_to_str(word))
    elif args.operation == "signature":
        print(" ".join(str(x) for x in signature_of(word)))
    else:
        print(word_to_str(normal_form(word)))
    return EXIT_OK


def _cmd_render(args) -> int:
    if args.orbit_depth is not None:
        _within_budget("--orbit-depth", args.orbit_depth, MAX_DEPTH, least=0)
    v = None if args.cycle is None else _parse_vector("--cycle", args.cycle, MAX_ENTRY)
    start = None
    if args.orbit_depth is not None:
        if not args.point:
            raise ValueError("--orbit-depth needs --point")
        start = Point(*_comma_values(args.point, "x,y", parse_fraction))
    elif args.point is not None:
        raise ValueError("--point needs --orbit-depth")
    config = _load_config(args.file)
    cycle_points = None if v is None else cycle_polygon(config, v)
    orbit_points = None if start is None else orbit(config, start, args.orbit_depth)
    _write_svg(args.svg, render_svg(config, orbit_points=orbit_points,
                                    cycle_points=cycle_points))
    return EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "is-cycle": _cmd_is_cycle,
    "realize": _cmd_realize,
    "iso": _cmd_iso,
    "orbit": _cmd_orbit,
    "word": _cmd_word,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, SignChangeError, CollisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
