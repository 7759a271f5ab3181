"""Each benchmark workload, run once the way ``perfbench/run.py`` runs it:
every operation in order over one shared context, then every operation's
check.  The workloads call public names of the package directly
(``HamSystem.var``, ``NumericParams(family, values, n)``,
``SecondOrderODE(table, rhs)``, ...), so a change that drops or reshapes one
fails here, not only in the benchmark."""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


@pytest.mark.parametrize("name", ["certify", "flow"])
def test_one_pass_passes_every_check(workloads, name):
    ops = workloads.WORKLOADS[name](1).ops
    ctx = {}
    results = [op.run(ctx) for op in ops]
    failures = [f"{op.name}: {reason}"
                for op, result in zip(ops, results)
                if (reason := op.check(result, ctx)) is not None]
    assert failures == []
