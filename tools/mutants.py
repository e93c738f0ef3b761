"""Mutation suite: every mutant of the decision and verification code must
make the tests named for it fail.

Run from anywhere as `python tools/mutants.py`; it runs every mutant.  It
needs only the standard library, and pytest for the tests it runs.

The tree, less `.git` and caches, is copied once to a temporary directory.
For each mutant, its old text, which must occur exactly once in its file,
is replaced there by its new text; its tests run with
`python -m pytest -x -q` and `PYTHONPATH=src`, writing no bytecode, so no
stale cache can hide the change; then the file is restored.  The tests
must first pass on the unchanged copy.  One line per mutant says whether
its tests caught it.  The exit status is 1 when a test fails on the
unchanged copy, a mutant survived or its old text does not occur exactly
once, else 0.

Equivalent mutants, which no test can catch as they change no behaviour,
are listed apart with the reason, and are not run; their old text must
still occur exactly once, so that the list cannot go stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]
# a test run that takes longer than this counts as caught, as it did not pass
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    old: str  # occurs exactly once in the file
    new: str
    tests: Tuple[str, ...]  # pytest node ids relative to the root


class Equivalent(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    old: str  # occurs exactly once in the file
    new: str
    reason: str


MUTANTS = (
    Mutant("power-ratio-exponents-swapped", "src/reversions/action.py",
           "return (c + d) // g, (a + b) // g", "return (a + b) // g, (c + d) // g",
           ("tests/test_classify.py::test_power_ratio_matches_brute_force",
            "tests/test_action.py::test_is_cycle_decides_line_configs_in_closed_form")),
    Mutant("tau-minus-q", "src/reversions/action.py",
           "p = b2 * b2 - 2 * q", "p = b2 * b2 - q",
           ("tests/test_classify.py::"
            "test_tau_from_the_quadratic_form_matches_the_homology_trace",)),
    Mutant("orbit-expands-the-arrival-letter", "src/reversions/action.py",
           "if letter != first:", "if letter != 0:",
           ("tests/test_integer_core.py::test_orbit_expands_each_point_once",)),
    Mutant("unit-ratio-merge-one-short", "src/reversions/action.py",
           "while i + j <= v2_max:", "while i + j < v2_max:",
           ("tests/test_classify.py::test_integral_tau_cases_match_the_chain",)),
    Mutant("witness-word-bresenham-strict", "src/reversions/classify.py",
           "if d <= 0:", "if d < 0:",
           ("tests/test_classify.py::test_witness_word_draws_a_tie_as_2_1",
            "tests/test_classify.py::test_closed_chain_refuses_a_witness_of_another_signature")),
    Mutant("orbit-budget-inclusive", "src/reversions/action.py",
           "t[0].bit_length() > bits or t[1].bit_length() > bits or t[2].bit_length() > bits",
           "t[0].bit_length() >= bits or t[1].bit_length() >= bits "
           "or t[2].bit_length() >= bits",
           ("tests/test_integer_core.py::test_orbit_refuses_a_start_point_past_the_bit_budget",)),
    Mutant("hull-triples-unordered", "src/reversions/iso.py",
           "found = {(min(i, k), j, max(i, k)) for i, j, k in itertools.combinations(ranked, 3)}",
           "found = set(itertools.combinations(ranked, 3))",
           ("tests/test_iso.py::test_build_table_mirrored_storage",)),
    Mutant("between-rows-accepts-a-token-off-the-hull", "src/reversions/iso.py",
           "        if not isinstance(p, tuple):\n"
           "            raise VerdictError(f\"table token {_key_str(p)} is not on the hull\")\n",
           "",
           ("tests/test_iso.py::test_verify_table_premise_mutants",)),
    Mutant("stored-vector-searches-any-vector", "src/reversions/iso.py",
           "found = _search_cycle(config, vector[1]) \\\n"
           "        if len(vector) == 3 and vector[1] >= 1 else None",
           "found = _search_cycle(config, vector[1])",
           ("tests/test_iso.py::test_build_table_refuses_a_vector_other_than_the_label",)),
    Mutant("unit-ratio-advances-b-on-a-tie", "src/reversions/action.py",
           "elif b < a:", "elif b <= a:",
           ("tests/test_classify.py::test_irrational_chord_ends_reach_the_chain_search",)),
    Mutant("is-cycle-decides-more-than-three-points", "src/reversions/action.py",
           "    if config.alphabet > 3 and any(v):\n"
           "        raise ActionError(f\"the cycle test decides at most three points, "
           "not {config.alphabet}\")\n",
           "",
           ("tests/test_action.py::test_is_cycle_refuses_more_than_three_points",)),
    Mutant("test-triples-keep-the-tangent", "src/reversions/action.py",
           "        if n == 0:\n            continue\n", "",
           ("tests/test_integer_load.py::test_validate_config_agrees_with_fraction_oracle",)),
    Mutant("build-partial-iso-lets-targets-collide", "src/reversions/iso.py",
           "if first != src:", "if False:",
           ("tests/test_iso.py::"
            "test_build_partial_iso_agrees_with_act_oracle_on_perfbench_pairs",)),
    Mutant("stored-vector-walks-the-witness", "src/reversions/iso.py",
           "    return found[1]\n",
           "    from .words import signature_of\n"
           "    return signature_of(classify(config, vector[1]).witness_word)\n",
           ("tests/test_iso.py::test_mirrored_table_orientation_walks_no_word",)),
    Mutant("mirrored-skips-a-vector-on-two-points", "src/reversions/iso.py",
           "return vector is not None and", "return len(s.points) == 3 and vector is not None and",
           ("tests/test_iso.py::test_build_table_refuses_a_vector_on_two_points",)),
    Mutant("bisection-brackets-at-the-quarters", "src/reversions/classify.py",
           "lo, hi, e = -1, 1, 1", "lo, hi, e = -1, 1, 2",
           ("tests/test_classify.py::test_bisection_stops_at_exactly_a_power_of_two_width",)),
    Mutant("bisection-halves-once-past-the-width", "src/reversions/classify.py",
           "while (hi - lo) * q > p << e:", "while (hi - lo) * q >= p << e:",
           ("tests/test_classify.py::test_bisection_stops_at_exactly_a_power_of_two_width",)),
    Mutant("chord-needs-three-points", "src/reversions/svg.py",
           "if len(config.points) < 2:", "if len(config.points) <= 2:",
           ("tests/test_cli.py::test_render_draws_the_interior_line_from_two_points",)),
)

EQUIVALENTS = (
    Equivalent("power-ratio-divides-on-a-tie", "src/reversions/action.py",
               "if x > y:", "if x >= y:",
               "it runs only while x != y"),
    Equivalent("witness-word-negates-v2-zero", "src/reversions/classify.py",
               "if v[1] < 0:\n        return _witness_word(",
               "if v[1] <= 0:\n        return _witness_word(",
               "v1 v3 > 0 and balance force v2 != 0"),
    Equivalent("exact-root-refuses-a-root-at-its-low-end", "src/reversions/classify.py",
               "_residual_sign(v, a_lo.numerator, a_lo.denominator) <= 0",
               "_residual_sign(v, a_lo.numerator, a_lo.denominator) < 0",
               "the root is unique, so neither endpoint is a root"),
    Equivalent("format-triple-negates-w-zero", "src/reversions/geometry.py",
               "if w < 0:", "if w <= 0:",
               "W = 0 raises the same ZeroDivisionError either way"),
)


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc"))


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _text(tree: Path, mutant) -> str:
    """The text of the mutant's file; SystemExit unless its old text occurs
    there exactly once."""
    text = (tree / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}, not once")
    return text


def _caught(tree: Path, mutant: Mutant) -> Tuple[bool, str]:
    """Whether the mutant's tests fail in the tree, and how."""
    path = tree / mutant.path
    text = _text(tree, mutant)
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        done = _pytest(tree, mutant.tests)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    finally:
        path.write_text(text, encoding="utf-8")
    if done.returncode == 0:
        return False, "its tests passed"
    if done.returncode != 1:  # 1: tests failed; anything else is no verdict
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}\n"
                         f"{done.stdout}{done.stderr}")
    return True, "a test failed"


def main() -> int:
    for equivalent in EQUIVALENTS:
        _text(ROOT, equivalent)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(tree)
        # the tests must pass on the tree as it is, or no failure means anything
        clean = _pytest(tree, sorted({t for m in MUTANTS for t in m.tests}))
        if clean.returncode != 0:
            print(f"the tests fail without a mutant:\n{clean.stdout}{clean.stderr}")
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            caught, how = _caught(tree, mutant)
            print(f"{'caught' if caught else 'SURVIVED':<9}{mutant.name}: {how} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            if not caught:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught; "
          f"{len(EQUIVALENTS)} equivalent mutants listed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
