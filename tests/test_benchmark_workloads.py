"""Each benchmark workload, run once the way ``perfbench/run.py`` runs it:
every operation in order over one shared context, then every operation's
check.  The workloads call public names of the package directly
(``HamSystem.var``, ``NumericParams(family, values, n)``,
``SecondOrderODE(table, rhs)``, ...), so a change that drops or reshapes one
fails here, not only in the benchmark."""

import hashlib
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


def flow_digest(workloads, seed):
    """sha256 over every trajectory of one ``flow`` pass at ``seed`` (its
    sample bytes, label, run statistics, t* and exponent) and the Richardson
    order.  The symmetry residuals are left out: numpy computes them, and its
    complex multiply may round differently from one build to the next."""
    import hamfam
    digest = hashlib.sha256()
    ctx = {}
    for op in workloads.flow(seed).ops:
        result = op.run(ctx)
        if isinstance(result, hamfam.Trajectory):
            for name in ("times", "q", "p", "H_values"):
                digest.update(getattr(result, name).tobytes())
            digest.update(repr((
                op.name, result.termination, result.steps_attempted,
                result.steps_rejected, result.field_evals, result.min_step,
                result.t_star, result.exponent)).encode())
        elif op.name == "richardson order sweep":
            digest.update(repr((op.name, result)).encode())
    return digest.hexdigest()


# recorded when the kernels became nested: a change to the evaluator or the
# steppers must leave every bit of every flow output as it was
FLOW_DIGESTS = {
    1: "ce8af1471fbb06585ea0fd3d5ccff8d571dc38c3e4f79a1529fa56d9d45572f4",
    2101:
        "eb7c8a59acfd1b1528f49a36836c0ac6d11aaafe8b310461764766f9602eafb8",
}


@pytest.mark.parametrize("seed", sorted(FLOW_DIGESTS))
def test_flow_outputs_keep_every_bit(workloads, seed):
    assert flow_digest(workloads, seed) == FLOW_DIGESTS[seed]
