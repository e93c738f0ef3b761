"""Count the lines of each module of `src/reversions`, and in total.

Run from anywhere as `python tools/sloc.py`; it takes no options and needs
only the standard library.  Two counts are printed for each module:

* lines: physical lines, as `wc -l` counts them (newline characters);
* code: lines that hold a token other than a comment, leaving out module,
  class and function docstrings.  A string token spanning several lines
  counts on each of them.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reversions"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list:
    """((start row, col), (end row, col)) of every module, class and
    function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                doc = body[0].value
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def counts(source: str) -> tuple:
    """(physical lines, code lines) of one module's source text."""
    spans = _docstring_spans(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(s <= tok.start and tok.end <= e for s, e in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main() -> None:
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>7}{code:>7}")


if __name__ == "__main__":
    main()
