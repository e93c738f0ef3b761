"""Smoke test of the benchmark tracer: it wraps library functions by name,
so a rename in `reversions` breaks `perfbench/run.py --trace 1` without
failing any library test."""

import sys
import types
from pathlib import Path

from conftest import pt, symmetric_config
from reversions import cli, iso
from reversions.classify import validate_config
from reversions.geometry import UNIT_CIRCLE
from reversions.words import enumerate_words

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    """Execute perfbench/spans.py from its source without writing a bytecode
    cache next to it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_counts_cli_iso(tmp_path):
    path = tmp_path / "sym.cfg"
    path.write_text(cli.serialize_config(symmetric_config()))
    tracer = load_spans().Tracer()
    with tracer.patched(0):
        assert cli.main(["iso", str(path), str(path), "--bound", "4"]) == cli.EXIT_OK
    assert tracer.metrics()["classify.classify.calls"] == 2
    assert not hasattr(cli.main, "__wrapped__")  # originals restored


def traced_classify(tmp_path, monkeypatch, points, bound):
    """Run `classify --bound` on the points of the unit circle under the
    tracer; return the number of integer reversion steps the cycle
    decision took."""
    config = validate_config(UNIT_CIRCLE, points)
    path = tmp_path / "free.cfg"
    path.write_text(cli.serialize_config(config))
    search = sys.modules["reversions.action"]
    steps = []
    step = search.apply_homology

    def counted(h, x):
        steps.append(x)
        return step(h, x)

    monkeypatch.setattr(search, "apply_homology", counted)
    tracer = load_spans().Tracer()
    with tracer.patched(0):
        assert cli.main(["classify", str(path), "--bound", str(bound)]) == cli.EXIT_OK
    metrics = tracer.metrics()
    assert metrics["classify.classify.calls"] == 1
    assert metrics["classify.candidates_per_call"] == 0
    return len(steps)


def test_classify_miss_on_a_diameter_takes_no_step(tmp_path, monkeypatch):
    # w = (1, 2, 6) puts the points at 0, 1/3, 5/7: the diameter meets the
    # circle in rational points, so the closed form proves that no cycle
    # exists (it would need 2^a = 3^b) without a reversion step
    steps = traced_classify(
        tmp_path, monkeypatch, (pt(0, 0), pt("1/3", 0), pt("5/7", 0)), 20)
    assert steps == 0


def test_classify_miss_off_square_d_takes_no_step(tmp_path, monkeypatch):
    # the chord y = 1/3 meets the unit circle at x = +-sqrt(8)/3, so the
    # translation factors are irrational; the tau denominators decide with
    # no reversion step, at the benchmark's bound and at the largest
    points = (pt("-1/4", "1/3"), pt(0, "1/3"), pt("1/3", "1/3"))
    for bound in (20, cli.MAX_BOUND):
        assert traced_classify(tmp_path, monkeypatch, points, bound) == 0


def test_table_check_never_tests_a_triple():
    # the table check reads betweenness off the hull order and the chords
    # through the interior points, so it never calls is_between
    a = validate_config(UNIT_CIRCLE, (pt(0, 0), pt("3/5", 0), pt("31/33", 0)))
    b = validate_config(UNIT_CIRCLE, (pt(0, 0), pt("4/5", 0), pt("121/122", 0)))
    verdict = iso.decide_iso(a, b, 5)
    words = list(enumerate_words(3, 3))
    tracer = load_spans().Tracer()
    with tracer.patched(0):
        table = iso.build_partial_iso(a, b, verdict, words, 1)
    metrics = tracer.metrics()
    assert len(table.rows) == 24
    assert metrics["iso.verify_table.rows"] == 24
    assert metrics["geometry.is_between.calls"] == 0
