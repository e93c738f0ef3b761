"""The mutation suite's lists (`tools/mutants.py`) stay in step with the
tree: every mutant's and every equivalent mutant's old text occurs exactly
once in its file under `src/` and changes it; every mutant names tests that
exist, and every equivalent gives its reason.  Running the mutants
themselves is the CI step `Mutants`."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once_in_src():
    module = load_mutants()
    mutants = (*module.MUTANTS, *module.EQUIVALENTS)
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.path.startswith("src/reversions/"), m.name
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.new != m.old and m[-1], m.name  # its tests, or an equivalent's reason


def test_every_mutant_names_tests_that_exist():
    for m in load_mutants().MUTANTS:
        for node in m.tests:
            path, name = node.split("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defined = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name.split("[")[0] in defined, (m.name, node)
