"""The three workloads: seeded operation pools, the timed call of each
operation, and the output check that runs after it, outside the timing.

An operation's `run` is what is timed.  Its `check` receives what `run`
returned and gives None when the output matches the known answer, or a
description of the mismatch.  A non-zero exit code or an exception is a
failed operation; a mismatching output is a failed and an incorrect one.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import gen
from reversions import cli, iso
from reversions.classify import CycleLabel, classify
from reversions.geometry import Point
from reversions.words import enumerate_words, signature_of

SVG_NS = "{http://www.w3.org/2000/svg}"
CLASSIFY_BOUND = 20
ISO_BOUND = 20
ISO_V2_MAX = 7
DRAW_V2_MAX = 12
BISECT_V2_MAX = 5
ORBIT_DEPTH = 10
RENDER_ORBIT_DEPTH = 6
BISECT_WIDTH = Fraction(1, 1 << 30)
CLOSING_N_MAX = 9
# One seed orbit: with two, iso._orbit_seeds can pick seeds joined by a
# product of two sampled words and the build raises CollisionError on a
# correct pair (see README.md).  Words of length <= 3 keep about 24 rows.
TABLE_SEEDS = 1
TABLE_WORD_LENGTH = 3


def call_cli(argv: List[str]) -> Tuple[int, str]:
    """One in-process CLI call with stdout and stderr captured; `cli.main`
    is looked up at call time so a traced run sees its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _pt(p: Point) -> str:
    return f"{p.x.numerator}/{p.x.denominator},{p.y.numerator}/{p.y.denominator}"


def _vec(v: tuple) -> str:
    return ",".join(str(x) for x in v)


def _svg_problem(path: Path, polygons: Optional[int]) -> Optional[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return f"svg does not parse: {exc}"
    if polygons is not None:
        found = len(root.findall(f".//{SVG_NS}polygon"))
        if found != polygons:
            return f"svg has {found} polygons, expected {polygons}"
    return None


class Op:
    """One operation: `run()` is timed, `check(result)` is not."""

    kind = ""

    def run(self):
        raise NotImplementedError

    def check(self, result) -> Optional[str]:
        raise NotImplementedError


class CliOp(Op):
    """A CLI call whose stdout must equal a known line."""

    def __init__(self, kind: str, argv: List[str], expected: str):
        self.kind, self.argv, self.expected = kind, argv, expected

    def run(self):
        return call_cli(self.argv)

    def check(self, result) -> Optional[str]:
        _, out = result
        return None if out == self.expected else f"stdout {out!r} != {self.expected!r}"


class IsoTableOp(Op):
    """`iso A B` plus, for isomorphic pairs, the table build on the parsed
    configurations with the known verdict."""

    kind = "iso"

    def __init__(self, files: Tuple[Path, Path], cases: Tuple[gen.Case, gen.Case],
                 words: list):
        a, b = cases
        self.argv = ["iso", str(files[0]), str(files[1]), "--bound", str(ISO_BOUND)]
        self.cases = cases
        self.words = words
        self.vector = a.canonical if a.canonical == b.canonical else None
        if self.vector is None:
            self.expected = "not-isomorphic\n"
        else:
            self.expected = "isomorphic v=({},{},{})\n".format(*self.vector)
        self.sigma = (1, 2, 3) if a.stored == b.stored else (3, 2, 1)

    def run(self):
        code, out = call_cli(self.argv)
        table = None
        if code == 0 and self.vector is not None:
            a, b = self.cases
            table = iso.build_partial_iso(a.config, b.config, iso.Isomorphic(self.vector),
                                          self.words, TABLE_SEEDS)
        return code, out, table

    def check(self, result) -> Optional[str]:
        _, out, table = result
        if out != self.expected:
            return f"stdout {out!r} != {self.expected!r}"
        if self.vector is not None and table.sigma != self.sigma:
            return f"table sigma {table.sigma} != {self.sigma}"
        return None


class OrbitOp(Op):
    kind = "orbit"

    def __init__(self, file: Path, case: gen.Case, start: Point, svg: Path):
        self.argv = ["orbit", str(file), "--point", _pt(start),
                     "--depth", str(ORBIT_DEPTH), "--svg", str(svg)]
        self.circle = case.config.circle
        self.start = start
        self.svg = svg

    def run(self):
        return call_cli(self.argv)

    def check(self, result) -> Optional[str]:
        _, out = result
        c = self.circle
        points = set()
        lines = out.splitlines()
        for line in lines:
            x, y = (Fraction(t) for t in line.split())
            if (x - c.center.x) ** 2 + (y - c.center.y) ** 2 != c.radius_sq:
                return f"orbit point {line} is off the circle"
            points.add((x, y))
        if len(points) != len(lines):
            return "orbit has duplicate points"
        if (self.start.x, self.start.y) not in points:
            return "orbit lacks its start point"
        return _svg_problem(self.svg, None)


class RenderOp(Op):
    kind = "render"

    def __init__(self, file: Path, case: gen.Case, start: Point, svg: Path):
        self.argv = ["render", str(file), "--svg", str(svg), "--cycle", _vec(case.stored),
                     "--orbit-depth", str(RENDER_ORBIT_DEPTH), "--point", _pt(start)]
        self.svg = svg

    def run(self):
        return call_cli(self.argv)

    def check(self, result) -> Optional[str]:
        return _svg_problem(self.svg, 1)


class BisectOp(Op):
    kind = "bisect"

    def __init__(self, v: tuple):
        self.v = v
        self.argv = ["realize", "--v", _vec(v), "--bisect",
                     "--width", f"1/{BISECT_WIDTH.denominator}"]
        a1, a3 = -v[0], -v[2]
        # Float root of the middle-point residual; it only checks the answer.
        self.root = math.tanh((a3 - a1) * math.atanh(0.5) / (a1 + a3))

    def run(self):
        return call_cli(self.argv)

    def check(self, result) -> Optional[str]:
        _, out = result
        fields = out.split()
        if tuple(int(x) for x in fields[:3]) != self.v:
            return f"bisect echoed {fields[:3]} for {self.v}"
        lo, hi = Fraction(fields[3]), Fraction(fields[4])
        if not 0 < hi - lo <= BISECT_WIDTH:
            return f"bisect width {hi - lo} exceeds {BISECT_WIDTH}"
        if not float(lo) < self.root < float(hi):
            return f"bisect interval ({float(lo)}, {float(hi)}) misses {self.root}"
        return None


class ClosingOp(Op):
    kind = "closing"

    def __init__(self, n: int):
        self.v = (-(n - 1), n, -1)
        self.argv = ["realize", "--v", _vec(self.v), "--closing"]

    def run(self):
        return call_cli(self.argv)

    def check(self, result) -> Optional[str]:
        _, out = result
        try:
            config = cli.parse_config(out)
        except ValueError as exc:
            return f"closing output does not parse: {exc}"
        label = classify(config, self.v[1])
        if not isinstance(label, CycleLabel) or label.vector != self.v:
            return f"closing config classifies as {label}, expected {self.v}"
        return None


@dataclass
class Inputs:
    """The generated pool of one workload: the operations in schedule order
    and every generated case, for the self-check."""

    ops: List[Op]
    cases: List[gen.Case]


def _write(workdir: Path, name: str, case: gen.Case) -> Path:
    path = workdir / name
    path.write_text(case.text, encoding="utf-8")
    return path


def build_classify_miss(rng: random.Random, workdir: Path) -> Inputs:
    cases = [gen.free_case(rng) for _ in range(128)]
    expected = f"no-cycle-upto {CLASSIFY_BOUND}\n"
    ops: List[Op] = [
        CliOp("classify", ["classify", str(_write(workdir, f"{i:04d}.cfg", c)),
                           "--bound", str(CLASSIFY_BOUND)], expected)
        for i, c in enumerate(cases)]
    return Inputs(ops, cases)


def build_iso_pairs(rng: random.Random, workdir: Path) -> Inputs:
    words = list(enumerate_words(3, TABLE_WORD_LENGTH))
    vectors = gen.canonical_vectors(ISO_V2_MAX)
    same = gen.deck(rng, vectors)
    different = gen.deck(rng, [(a, b) for a in vectors for b in vectors if a != b])
    bases = gen.deck(rng, [(a, b) for a in gen.CYCLE_BASES for b in gen.CYCLE_BASES if a != b])
    ops: List[Op] = []
    cases: List[gen.Case] = []
    for block in range(32):
        kinds = [True, True, True, False]
        rng.shuffle(kinds)
        for j, isomorphic in enumerate(kinds):
            if isomorphic:
                va = vb = next(same)
            else:
                va, vb = next(different)
            a, b = gen.iso_pair(rng, va, vb, next(bases))
            stem = f"{block:03d}{j}"
            files = (_write(workdir, stem + "a.cfg", a), _write(workdir, stem + "b.cfg", b))
            ops.append(IsoTableOp(files, (a, b), words))
            cases += [a, b]
    return Inputs(ops, cases)


def build_draw(rng: random.Random, workdir: Path) -> Inputs:
    vectors = gen.canonical_vectors(DRAW_V2_MAX)
    render_vectors = gen.deck(rng, vectors)
    bisect_vectors = gen.deck(rng, gen.canonical_vectors(BISECT_V2_MAX))
    bases = gen.deck(rng, gen.CYCLE_BASES)
    closing_n = gen.deck(rng, range(2, CLOSING_N_MAX + 1))
    svgs = {kind: workdir / f"{kind}.svg" for kind in ("orbit", "render")}
    ops: List[Op] = []
    cases: List[gen.Case] = []
    for block in range(40):
        kinds = ["orbit"] * 4 + ["render"] * 3 + ["bisect"] * 2 + ["closing"]
        rng.shuffle(kinds)
        for j, kind in enumerate(kinds):
            name = f"{block:03d}{j}.cfg"
            if kind == "orbit":
                case = gen.free_case(rng)
                cases.append(case)
                ops.append(OrbitOp(_write(workdir, name, case), case,
                                   case.on_circle_point(rng), svgs["orbit"]))
            elif kind == "render":
                case = gen.cycle_case(rng, next(render_vectors), next(bases))
                cases.append(case)
                ops.append(RenderOp(_write(workdir, name, case), case,
                                    case.on_circle_point(rng), svgs["render"]))
            elif kind == "bisect":
                ops.append(BisectOp(next(bisect_vectors)))
            else:
                ops.append(ClosingOp(next(closing_n)))
    return Inputs(ops, cases)


# name -> (input generator, operations per block of the schedule)
WORKLOADS: Dict[str, Tuple[Callable[[random.Random, Path], Inputs], int]] = {
    "classify-miss": (build_classify_miss, 1),
    "iso-pairs": (build_iso_pairs, 4),
    "draw": (build_draw, 10),
}


def self_check(inputs: Inputs, sample: int = 4) -> Optional[str]:
    """Check the generator, not the timed path: every case round-trips
    through `parse_config`, the prime pairs are distinct, and a sample of
    cycle cases classifies back to its vector in stored order."""
    for case in inputs.cases:
        try:
            parsed = cli.parse_config(case.text)
        except ValueError as exc:
            return f"config does not parse ({exc}):\n{case.text}"
        c = case.config
        if (parsed.circle, parsed.points, parsed.base_point) != (c.circle, c.points, c.base_point):
            return f"config does not round-trip:\n{case.text}"
        if case.canonical is None:
            p, pq = case.weights[1], case.weights[2]
            if pq % p or pq // p == p:
                return f"prime pair {case.weights} is not two distinct primes"
    cycles = [c for c in inputs.cases if c.canonical is not None][:sample]
    for case in cycles:
        label = classify(case.config, case.canonical[1])
        if not isinstance(label, CycleLabel) or label.vector != case.canonical:
            return f"cycle case {case.weights} classifies as {label}, not {case.canonical}"
        stored = signature_of(label.witness_word)
        if stored != case.stored:
            return f"cycle case {case.weights} stores {stored}, expected {case.stored}"
    return None
