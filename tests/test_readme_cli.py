"""Every `reversions ...` line of the README's CLI block, run in process on
the README's sample configuration: each exits 0 and prints what its
`# -> ...` comment says, so the documentation cannot drift from the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from reversions.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def first_block(heading: str) -> str:
    """The first fenced code block under the README heading `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


SAMPLE = first_block("Configuration files")
COMMANDS = [line for line in first_block("CLI").splitlines()
            if line.startswith("reversions ")]


def test_the_cli_block_lists_every_subcommand():
    assert {shlex.split(line)[1] for line in COMMANDS} == {
        "classify", "is-cycle", "iso", "realize", "orbit", "word", "render"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_cli_line(line, tmp_path, monkeypatch, capsys):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    monkeypatch.chdir(tmp_path)
    for name in argv:
        if name.endswith(".cfg"):
            (tmp_path / name).write_text(SAMPLE, encoding="utf-8")
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    comment = comment.strip()
    if comment.startswith("->"):
        assert out == comment[2:].strip() + "\n"
