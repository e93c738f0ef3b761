"""The library imports nothing outside the standard library: every absolute
import in src/reversions names a standard-library top-level module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "reversions"


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_is_stdlib_only():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 9
    outside = {(path.name, name) for path in sources for name in absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert outside == set()
