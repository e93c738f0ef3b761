"""In-memory spans around the calls into each layer of `reversions`.

The library's modules import each other's functions by name (`from
.geometry import reversion`), so a function is wrapped by rebinding it in
every `reversions.*` namespace that holds it, not only in its home module.
Spans are recorded only while `Tracer.patched()` is active; the originals
are restored on exit.  A span is (name, start, end, parent span, operation).
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterator, List, Tuple

# Functions wrapped per layer; the layer is the module they live in.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "geometry": ("reversion", "is_between"),
    "action": ("act", "orbit", "is_cycle", "offline_test_point"),
    "classify": ("classify", "realize_by_bisection", "middle_point_residual",
                 "realize_by_closing", "search_closing_config"),
    "iso": ("decide_iso", "build_partial_iso", "verify_table"),
    "hull": ("collinear_hull", "hull_isomorphism"),
    "words": ("word_from_signature", "canonical_word", "apply_letter_permutation"),
    "svg": ("render_svg", "cycle_polygon"),
    "cli": ("main", "parse_config"),
}


def _point_bits(p) -> int:
    return max(abs(p.x.numerator).bit_length(), p.x.denominator.bit_length(),
               abs(p.y.numerator).bit_length(), p.y.denominator.bit_length())


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _on_reversion(c: Counter, args, kwargs, result) -> None:
    bits = _point_bits(result)
    if bits > c["geometry.reversion.max_bits"]:
        c["geometry.reversion.max_bits"] = bits


def _on_is_cycle(c: Counter, args, kwargs, result) -> None:
    c["action.is_cycle.true"] += bool(result)


def _on_act(c: Counter, args, kwargs, result) -> None:
    c["action.act.letters"] += len(_arg(args, kwargs, 2, "g").letters)


def _on_orbit(c: Counter, args, kwargs, result) -> None:
    c["action.orbit.points"] += len(result)


def _on_closing(c: Counter, args, kwargs, result) -> None:
    c["classify.realize_by_closing.successes"] += result is not None


def _on_verify_table(c: Counter, args, kwargs, result) -> None:
    c["iso.verify_table.rows"] += len(_arg(args, kwargs, 0, "table").rows)


HOOKS: Dict[str, Callable] = {
    "geometry.reversion": _on_reversion,
    "action.is_cycle": _on_is_cycle,
    "action.act": _on_act,
    "action.orbit": _on_orbit,
    "classify.realize_by_closing": _on_closing,
    "iso.verify_table": _on_verify_table,
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        modules = [m for name, m in sys.modules.items()
                   if name == "reversions" or name.startswith("reversions.")]
        self._sites = []
        for layer, fns in LAYERS.items():
            home = sys.modules[f"reversions.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._sites.append((module, attr, original, wrapper))

    def _wrap(self, qual: str, fn: Callable) -> Callable:
        name_id = self._name_id[qual]
        hook = HOOKS.get(qual)
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{qual}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.span_start[sid] = t0
                self.span_end[sid] = t1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, op: int) -> Iterator[None]:
        """Rebind every wrapped function in every `reversions` module for
        the duration of one operation, tagging its spans with `op`."""
        self.op = op
        try:
            for module, attr, _, wrapper in self._sites:
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)
            self.op = -1

    def self_times(self) -> Tuple[List[float], List[float]]:
        """Per-span duration and self time (duration minus child spans)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics; counts repeat exactly for identical
        operations, times do not.  Self times are given as shares of
        `trace.op_s`, the time spent in top-level spans, so an idle layer
        reads 0 as a share rather than as a time."""
        dur, self_s = self.self_times()
        n = len(self.span_name)
        calls = Counter()
        fn_self = Counter()
        fn_total = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            fn_self[name] += self_s[i]
            fn_total[name] += dur[i]
        classify_id = self._name_id["classify.classify"]
        is_cycle_id = self._name_id["action.is_cycle"]
        inside = bytearray(n)
        candidates = 0
        for i in range(n):
            p = self.span_parent[i]
            inside[i] = p >= 0 and (inside[p] or self.span_name[p] == classify_id)
            if inside[i] and self.span_name[i] == is_cycle_id:
                candidates += 1

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        op_s = sum(dur[i] for i in range(n) if self.span_parent[i] < 0)

        def share(*names: str) -> float:
            return ratio(sum(fn_self[name] for name in names), op_s)

        c = self.counts
        m: Dict[str, float] = {"trace.op_s": op_s}
        for layer, fns in LAYERS.items():
            m[f"{layer}.self_share"] = share(*(f"{layer}.{fn}" for fn in fns))
        m.update({
            "geometry.reversion.calls": calls["geometry.reversion"],
            "geometry.reversion.self_share": share("geometry.reversion"),
            "geometry.reversion.us_per_call": 1e6 * ratio(fn_total["geometry.reversion"],
                                                          calls["geometry.reversion"]),
            "geometry.reversion.max_bits": c["geometry.reversion.max_bits"],
            "geometry.is_between.calls": calls["geometry.is_between"],
            "geometry.is_between.self_share": share("geometry.is_between"),
            "action.is_cycle.calls": calls["action.is_cycle"],
            "action.is_cycle.self_share": share("action.is_cycle"),
            "action.is_cycle.true_ratio": ratio(c["action.is_cycle.true"],
                                                calls["action.is_cycle"]),
            "action.offline_test_point.calls": calls["action.offline_test_point"],
            "action.act.calls": calls["action.act"],
            "action.act.letters": c["action.act.letters"],
            "action.orbit.points": c["action.orbit.points"],
            "classify.classify.calls": calls["classify.classify"],
            "classify.classify.self_share": share("classify.classify"),
            "classify.candidates_per_call": ratio(candidates, calls["classify.classify"]),
            "classify.realize_by_bisection.self_share": share("classify.realize_by_bisection"),
            "classify.middle_point_residual.calls": calls["classify.middle_point_residual"],
            "classify.realize_by_closing.success_ratio": ratio(
                c["classify.realize_by_closing.successes"], calls["classify.realize_by_closing"]),
            "iso.decide_iso.self_share": share("iso.decide_iso"),
            "iso.build_partial_iso.self_share": share("iso.build_partial_iso"),
            "iso.verify_table.self_share": share("iso.verify_table"),
            "iso.verify_table.rows": c["iso.verify_table.rows"],
            "iso.collisions": c["iso.build_partial_iso.raised.CollisionError"],
            "hull.collinear_hull.calls": calls["hull.collinear_hull"],
            "words.word_from_signature.calls": calls["words.word_from_signature"],
            "words.apply_letter_permutation.calls": calls["words.apply_letter_permutation"],
            "svg.render_svg.self_share": share("svg.render_svg"),
            "svg.cycle_polygon.self_share": share("svg.cycle_polygon"),
            "cli.main.self_share": share("cli.main"),
            "cli.parse_config.self_share": share("cli.parse_config"),
        })
        return m

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, name, start and end in
        seconds from the first span, parent id (-1 for none), operation."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_op[i]}\n")
