"""Smoke test of the benchmark tracer: it wraps library functions by name,
so a rename in `reversions` breaks `perfbench/run.py --trace 1` without
failing any library test."""

import types
from pathlib import Path

from conftest import symmetric_config
from reversions import cli

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
