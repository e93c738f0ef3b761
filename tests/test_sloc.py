import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_sloc():
    spec = importlib.util.spec_from_file_location("sloc", TOOLS / "sloc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_comments_blanks_and_docstrings():
    source = '''"""Module
docstring."""

# a comment
X = """not a
docstring"""


class A:
    """Class docstring."""

    def f(self):  # code with a comment
        """Function
        docstring."""
        return (1,
                2)
'''
    assert load_sloc().counts(source) == (16, 6)


def test_physical_lines_are_the_newline_count():
    sloc = load_sloc()
    for path in sorted(sloc.PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, code = sloc.counts(text)
        assert lines == text.count("\n") and 0 < code < lines, path.name
