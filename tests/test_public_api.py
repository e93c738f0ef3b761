"""The public names of the package: every `__all__` entry of every
`reversions` module resolves, so `from reversions.<module> import *`
works, and the package root re-exports only names that its modules list
there."""

import ast
import importlib
import pkgutil
from pathlib import Path

import reversions

PACKAGE = Path(reversions.__file__).resolve().parent
# `python -m reversions` runs the CLI on import, so it is not a library module
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]) if m.name != "__main__")


def test_every_module_lists_its_public_names():
    assert {"action", "classify", "cli", "geometry", "hull", "iso", "svg", "words"} \
        <= set(MODULES)
    for name in MODULES:
        module = importlib.import_module(f"reversions.{name}")
        assert len(set(module.__all__)) == len(module.__all__), name
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], name
        namespace: dict = {}
        exec(f"from reversions.{name} import *", namespace)
        assert set(module.__all__) <= set(namespace), name


def test_package_root_imports_only_listed_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1, ast.dump(node)
        listed = importlib.import_module(f"reversions.{node.module}").__all__
        for alias in node.names:
            assert alias.name in listed, f"{node.module}.{alias.name}"
            assert getattr(reversions, alias.asname or alias.name) is \
                getattr(importlib.import_module(f"reversions.{node.module}"), alias.name)
