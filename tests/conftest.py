import faulthandler
import os
import random

import pytest

from hamfam.cyclo import CycloRat
from hamfam.integrate import _bind, _kernel
from hamfam.symmetry import compose, identity_map

# HAMFAM_SEED pins every randomized (non-hypothesis) test for reproducibility.
SEED = int(os.environ.get("HAMFAM_SEED", "20240811"))


@pytest.fixture
def rng():
    return random.Random(SEED)


def compiled_poly(poly, values):
    """``poly`` with the parameter ``values`` bound, compiled to one function
    of (q, p, t): the kernel that compile_field and compile_map build on."""
    return _kernel(_bind(poly, values))


def reference_serialize(P):
    """serialize() written on the decoded exponent tuples."""
    terms = P.terms
    parts = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        mono = "*".join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(P.table.names, exps) if e)
        cs = str(coeff) if coeff.is_rational() else f"({coeff})"
        parts.append(f"{cs}*{mono}" if mono else cs)
    return " + ".join(parts) or "0"


def linear_iterate(m, k):
    """m composed with itself k times by the linear chain: k compositions,
    the first with the identity map."""
    out = identity_map(m.table, tuple(m.param_rules))
    for _ in range(k):
        out = compose(out, m)
    return out


def norm_route_inverse(x):
    """The inverse of a nonzero CycloRat by the field norm, for every
    element: the integer numerator a times the product conj of its
    nontrivial Galois conjugates is the norm N, a positive integer, and
    (a/d)^-1 = d * conj / N."""
    num = CycloRat(*x.n)
    conj = num.galois(3) * num.galois(5) * num.galois(7)
    norm = num * conj
    assert norm.is_rational() and norm.rational > 0
    return conj * CycloRat(x.d) * CycloRat(norm.rational ** -1)


_stderr_fd = 2


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while pytest is not capturing
    # it: a dump into the captured stream would be lost when the run exits
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def hang_guard():
    """A test still running after 120 s dumps every thread's stack and ends
    the run, so a hang fails the suite instead of stalling it."""
    faulthandler.dump_traceback_later(120, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
