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
from typing import List, Optional

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
# 5/7 (or -1/2, 0, 1/3) of the unit circle (Python 3.11, one core of a
# shared 2-vCPU host).  The bound costs nothing when the line of the points
# meets the circle in rational points, which the closed form decides; the
# chain search runs otherwise, and there the cap is over 2 s: on points
# -1/4, 0, 1/3 of the chord y = 1/3, `classify --bound 4096` takes about
# 8 s and `iso --bound 4096` about 16 s (1.2 s for `classify` at 2048).
# `orbit --depth 60 --svg` from (0, 1) yields 5,491 points in about 0.1 s.
# A balanced vector's largest entry in absolute value (the middle entry of
# a canonical vector) is half the length of its word:
# `is-cycle --v 4096,0,-4096` takes about 0.7 s.
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


def parse_config(text: str) -> Config:
    """Parse and validate a configuration file; diagnostics carry the line
    number of the offending line."""
    circle: Optional[Circle] = None
    circle_line = 0
    points: List[Point] = []
    base: Optional[Point] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        try:
            values = [parse_fraction(a) for a in args]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigParseError(lineno, f"malformed rational: {exc}") from exc
        if kind == "circle":
            if circle is not None:
                raise ConfigParseError(lineno, "second circle line")
            if len(values) != 3:
                raise ConfigParseError(lineno, "circle needs cx cy r2")
            try:
                circle = Circle(Point(values[0], values[1]), values[2])
            except GeometryError as exc:
                raise ConfigParseError(lineno, str(exc)) from exc
            circle_line = lineno
        elif kind == "point":
            if len(values) != 2:
                raise ConfigParseError(lineno, "point needs x y")
            points.append(Point(values[0], values[1]))
        elif kind == "base":
            if len(values) != 2:
                raise ConfigParseError(lineno, "base needs x y")
            base = Point(values[0], values[1])
        else:
            raise ConfigParseError(lineno, f"unknown directive {kind!r}")
    if circle is None:
        raise ConfigParseError(1, "missing circle line")
    if not 1 <= len(points) <= 3:
        raise ConfigParseError(circle_line, f"need 1 to 3 point lines, got {len(points)}")
    return validate_config(circle, tuple(points), base)


def serialize_config(config: Config) -> str:
    """Canonical text for a configuration; the base line is kept only when
    it differs from the derived default."""
    lines = ["circle {} {} {}".format(
        format_fraction(config.circle.center.x),
        format_fraction(config.circle.center.y),
        format_fraction(config.circle.radius_sq))]
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
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected v1,v2,v3, got {text!r}")
    v = tuple(int(p) for p in parts)
    if is_balanced(v):
        _within_budget(f"{flag} entry", max(abs(x) for x in v), cap)
    return v


def _parse_cli_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected x,y, got {text!r}")
    return Point(parse_fraction(parts[0]), parse_fraction(parts[1]))


def _parse_word_arg(text: str, alphabet: Optional[int]) -> Word:
    letters = letters_from_str(text)
    if alphabet is None:
        alphabet = max(letters, default=3)
    return Word.reduced(letters, _within_budget("alphabet", alphabet, MAX_ALPHABET))


def _within_budget(flag: str, value: int, cap: int) -> int:
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
    bound = _within_budget("--bound", args.bound, MAX_BOUND)
    label = classify(_load_config(args.file), bound)
    print(format_label(label))
    if args.strict and isinstance(label, NoCycleUpTo):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_is_cycle(args) -> int:
    config = _load_config(args.file)
    print("true" if is_cycle(config, _parse_vector("--v", args.v, MAX_ENTRY)) else "false")
    return EXIT_OK


def _cmd_realize(args) -> int:
    v = _parse_vector("--v", args.v, MAX_REALIZE_ENTRY)
    if args.closing:
        sys.stdout.write(serialize_config(search_closing_config(v)))
        return EXIT_OK
    width = parse_fraction(args.width)
    # ceil(log2(1/width)) halvings take an interval below 1 to the width; an
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
    bound = _within_budget("--bound", args.bound, MAX_BOUND)
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
    depth = _within_budget("--depth", args.depth, MAX_DEPTH)
    config = _load_config(args.file)
    start = _parse_cli_point(args.point)
    points = orbit(config, start, depth)
    # the picture first, so a command that fails prints no orbit
    if args.svg is not None:
        _write_svg(args.svg, render_svg(config, orbit_points=points))
    sys.stdout.write("".join(format_triple(t) + "\n" for t in points))
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
        _within_budget("--orbit-depth", args.orbit_depth, MAX_DEPTH)
    config = _load_config(args.file)
    cycle_points = None
    orbit_points = None
    if args.cycle is not None:
        cycle_points = cycle_polygon(config, _parse_vector("--cycle", args.cycle, MAX_ENTRY))
    if args.orbit_depth is not None:
        if not args.point:
            raise ValueError("--orbit-depth needs --point")
        orbit_points = orbit(config, _parse_cli_point(args.point), args.orbit_depth)
    elif args.point is not None:
        raise ValueError("--point needs --orbit-depth")
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
