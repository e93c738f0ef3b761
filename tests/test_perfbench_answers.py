"""The benchmark's known answers: seed 7 of each workload, built by
`perfbench/workloads.py` loaded from its source, runs every operation
once and checks its output as `perfbench/run.py` does, then runs the
workload's self-check.  A library change that breaks an answer the
benchmark checks then fails here, not only in a benchmark run."""

import random
import sys

import pytest

from conftest import load_perfbench

SEED = 7


def load_workloads():
    """perfbench/workloads.py, which imports gen.py as `gen`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "gen", load_perfbench("gen"))
        return load_perfbench("workloads")


@pytest.mark.parametrize("name", ["classify-miss", "iso-pairs", "draw"])
def test_seed_7_operations_give_the_known_answers(name, tmp_path):
    workloads = load_workloads()
    generate, _ = workloads.WORKLOADS[name]
    inputs = generate(random.Random(SEED), tmp_path)
    for i, op in enumerate(inputs.ops):
        result = op.run()
        assert result[0] == 0, (i, op.kind)
        assert op.check(result) is None, (i, op.kind)
    assert workloads.self_check(inputs) is None
