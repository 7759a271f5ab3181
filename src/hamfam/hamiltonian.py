"""Polynomial Hamiltonian families and their second-order ODE forms.

Three families are provided:

* ``autonomous5``      H = (q^5 p + a q^4 + e1 q^3 + e2) p
* ``general:n``        H = (q^n p + a q^(n-1) + e1 q^(n-2) + ... + e(n-1)) p
* ``nonautonomous3``   H = (q^5 p + (a1+1) q^4 + t q^3 + 1) p + a3 q^3 + a2 t q^2

Every Hamiltonian is quadratic in p with leading coefficient q^n, so the
momentum can be eliminated exactly and the system rewritten as a single
second-order ODE in q.  All identities here are certified by exact zero
residuals, never by numerical tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import LaurentPoly, LaurentError, VarTable

COORD_VARS = ("q", "p", "qdot", "t")


@dataclass(frozen=True)
class HamSystem:
    """A Hamiltonian plus its variable roles and family metadata."""

    name: str
    table: VarTable
    H: LaurentPoly
    params: tuple[str, ...]
    autonomous: bool
    n: int | None = None

    def var(self, name: str, exp: int = 1) -> LaurentPoly:
        return LaurentPoly.var(self.table, name, exp)


@dataclass(frozen=True)
class SecondOrderODE:
    """qddot = rhs(q, qdot, t); rhs is Laurent in q with a pure q-power pole."""

    table: VarTable
    rhs: LaurentPoly


# -- family constructors ----------------------------------------------------

def make_autonomous5() -> HamSystem:
    """H = (q^5 p + a q^4 + e1 q^3 + e2) p."""
    params = ("a", "e1", "e2")
    tbl = VarTable(COORD_VARS + params)
    v = lambda n, e=1: LaurentPoly.var(tbl, n, e)
    inner = (v("q", 5) * v("p") + v("a") * v("q", 4)
             + v("e1") * v("q", 3) + v("e2"))
    return HamSystem("autonomous5", tbl, inner * v("p"), params,
                     autonomous=True, n=5)


def make_general_n(n: int) -> HamSystem:
    """H = (q^n p + a q^(n-1) + sum_i ei q^(n-1-i)) p, i = 1..n-1."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    params = ("a",) + tuple(f"e{i}" for i in range(1, n))
    tbl = VarTable(COORD_VARS + params)
    v = lambda name, e=1: LaurentPoly.var(tbl, name, e)
    inner = v("q", n) * v("p") + v("a") * v("q", n - 1)
    for i in range(1, n):
        inner = inner + v(f"e{i}") * v("q", n - 1 - i)
    return HamSystem(f"general:{n}", tbl, inner * v("p"), params,
                     autonomous=True, n=n)


def make_nonautonomous3() -> HamSystem:
    """H = (q^5 p + (a1+1) q^4 + t q^3 + 1) p + a3 q^3 + a2 t q^2."""
    params = ("a1", "a2", "a3")
    tbl = VarTable(COORD_VARS + params)
    v = lambda name, e=1: LaurentPoly.var(tbl, name, e)
    one = LaurentPoly.const(tbl, 1)
    inner = (v("q", 5) * v("p") + (v("a1") + one) * v("q", 4)
             + v("t") * v("q", 3) + one)
    H = inner * v("p") + v("a3") * v("q", 3) + v("a2") * v("t") * v("q", 2)
    return HamSystem("nonautonomous3", tbl, H, params,
                     autonomous=False, n=5)


def make_system(family: str) -> HamSystem:
    """The system whose ``name`` is ``family``: 'autonomous5',
    'nonautonomous3' or 'general:<n>'.  Any other name raises
    ``ValueError``."""
    if family.startswith("general:"):
        try:
            n = int(family.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"family {family!r} is not of the form "
                             f"'general:<n>' with an integer n") from None
        if family != f"general:{n}":
            raise ValueError(f"family {family!r} is spelled 'general:{n}'")
        return make_general_n(n)
    if family == "autonomous5":
        return make_autonomous5()
    if family == "nonautonomous3":
        return make_nonautonomous3()
    raise ValueError(f"unknown family {family!r}: the families are "
                     f"'autonomous5', 'nonautonomous3' and 'general:<n>'")


# -- symbolic calculus --------------------------------------------------------

def hamilton_equations(sys: HamSystem) -> tuple[LaurentPoly, LaurentPoly]:
    """(dq/dt, dp/dt) = (dH/dp, -dH/dq)."""
    return sys.H.diff("p"), -sys.H.diff("q")


def eliminate_momentum(sys: HamSystem) -> LaurentPoly:
    """Solve qdot = dH/dp for p; requires H quadratic in p with monomial lead.

    Returns p = (qdot - A) / (2 c2) where H = c2 p^2 + A p + B.
    """
    by_p = sys.H.collect("p")
    if max(by_p) != 2:
        raise LaurentError("H is not quadratic in p")
    c2 = by_p[2]
    A = by_p.get(1, LaurentPoly.zero(sys.table))
    qdot = LaurentPoly.var(sys.table, "qdot")
    return (qdot - A) * (c2 * 2).unit_inverse()


def second_order_form(sys: HamSystem) -> SecondOrderODE:
    """Eliminate p and express qddot as a Laurent expression in (q, qdot, t)."""
    f_q, f_p = hamilton_equations(sys)
    qdot = LaurentPoly.var(sys.table, "qdot")
    # qddot = d/dt (dH/dp) along the flow
    qddot = f_q.diff("q") * qdot + f_q.diff("p") * f_p + f_q.diff("t")
    p_expr = eliminate_momentum(sys)
    return SecondOrderODE(sys.table, qddot.substitute({"p": p_expr}))


def regularising_chart(sys: HamSystem) -> LaurentPoly | None:
    """H~(w, u) = H(1/w, u w^(n-1)) in the chart (w, u) = (1/q, p q^(n-1)),
    with w in the q slot and u in the p slot, or None where H~ keeps a
    negative power of w (nonautonomous3) or the system has no n.

    The substitution q -> 1/q, p -> p q^(n-1) is its own inverse, so
    H~(1/q, p q^(n-1)) = H as well.  For autonomous5 and general:n,
    H~ = u^2 w^(n-2) + u A~(w) with A~(w) = w^(n-1) A(1/w): a polynomial,
    regular at w = 0 (q = infinity) where a != 0.  The Jacobian of the
    change is -q^(n-3), so in a variable s with dt = -w^(n-3) ds the flow in
    the chart is Hamilton's equations of H~ (Filipuk & Halburd, J. Math.
    Phys. 50, 2009)."""
    if sys.n is None:
        return None
    chart = sys.H.substitute({"q": sys.var("q", -1),
                              "p": sys.var("p") * sys.var("q", sys.n - 1)})
    return chart if chart.min_exponent("q") >= 0 else None


def verify_equivalence(sys: HamSystem, target: SecondOrderODE) -> LaurentPoly:
    """Residual of second_order_form(sys) against target, denominators cleared.

    The zero polynomial certifies the equivalence exactly.
    """
    got = second_order_form(sys)
    diff = got.rhs - target.rhs
    d = max(0, -diff.min_exponent("q"))
    return diff * LaurentPoly.var(sys.table, "q", d) if d else diff


def time_derivative_of_H(sys: HamSystem) -> LaurentPoly:
    """dH/dt along the flow: dH/dq*f_q + dH/dp*f_p + dH/dt (partial)."""
    f_q, f_p = hamilton_equations(sys)
    return sys.H.diff("q") * f_q + sys.H.diff("p") * f_p + sys.H.diff("t")


# -- reference second-order forms (independent constructions) -----------------

def autonomous5_reference_ode() -> SecondOrderODE:
    """qddot = (5/2q)(qdot+e2)(qdot-e2)
             + (q^2/2)(3 a^2 q^5 + 4 a e1 q^4 + e1^2 q^3 - 2 a e2 q - 4 e1 e2)."""
    tbl = VarTable(COORD_VARS + ("a", "e1", "e2"))
    v = lambda name, e=1: LaurentPoly.var(tbl, name, e)
    half = Fraction(1, 2)
    rhs = (v("q", -1) * Fraction(5, 2)) * (v("qdot") + v("e2")) * (v("qdot") - v("e2"))
    rhs = rhs + (v("q", 2) * half) * (
        v("a", 2) * v("q", 5) * 3 + v("a") * v("e1") * v("q", 4) * 4
        + v("e1", 2) * v("q", 3) - v("a") * v("e2") * v("q") * 2
        - v("e1") * v("e2") * 4)
    return SecondOrderODE(tbl, rhs)


def general_reference_ode(n: int) -> SecondOrderODE:
    """The n-family second-order form, built straight from its displayed shape:

    qddot = (n/2q)(qdot + e(n-1))(qdot - e(n-1))
          - (n/2) * B * (q*B + 2 e(n-1)) + A * A'

    with A = a q^(n-1) + e1 q^(n-2) + ... + e(n-1), B = (A - e(n-1))/q,
    and A' the q-derivative of A written out coefficient by coefficient.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    tbl = VarTable(COORD_VARS + ("a",) + tuple(f"e{i}" for i in range(1, n)))
    v = lambda name, e=1: LaurentPoly.var(tbl, name, e)
    en1 = v(f"e{n - 1}")
    A = v("a") * v("q", n - 1)
    for i in range(1, n):
        A = A + v(f"e{i}") * v("q", n - 1 - i)
    # B: same coefficients, each power lowered by one, without the constant
    B = v("a") * v("q", n - 2)
    for i in range(1, n - 1):
        B = B + v(f"e{i}") * v("q", n - 2 - i)
    # A' spelled out: a(n-1)q^(n-2) + e1(n-2)q^(n-3) + ... + e(n-2)
    Ap = v("a") * v("q", n - 2) * (n - 1)
    for i in range(1, n - 1):
        Ap = Ap + v(f"e{i}") * v("q", n - 2 - i) * (n - 1 - i)
    rhs = (v("q", -1) * Fraction(n, 2)) * (v("qdot") + en1) * (v("qdot") - en1)
    rhs = rhs - (B * Fraction(n, 2)) * (v("q") * B + en1 * 2)
    rhs = rhs + A * Ap
    return SecondOrderODE(tbl, rhs)


def nonautonomous3_reference_ode() -> SecondOrderODE:
    """qddot = (5/2q)(qdot+1)(qdot-1) + (3/2)(a1^2+2a1-4a3+1)q^7
             + 2(a1-2a2+1)t q^6 + (t^2/2)q^5 - a1 q^3 - 2t q^2."""
    tbl = VarTable(COORD_VARS + ("a1", "a2", "a3"))
    v = lambda name, e=1: LaurentPoly.var(tbl, name, e)
    one = LaurentPoly.const(tbl, 1)
    rhs = (v("q", -1) * Fraction(5, 2)) * (v("qdot") + one) * (v("qdot") - one)
    rhs = rhs + (v("a1", 2) + v("a1") * 2 - v("a3") * 4 + one) \
        * v("q", 7) * Fraction(3, 2)
    rhs = rhs + (v("a1") - v("a2") * 2 + one) * v("t") * v("q", 6) * 2
    rhs = rhs + v("t", 2) * v("q", 5) * Fraction(1, 2)
    rhs = rhs - v("a1") * v("q", 3) - v("t") * v("q", 2) * 2
    return SecondOrderODE(tbl, rhs)


def reference_ode(sys: HamSystem) -> SecondOrderODE:
    """The independently-constructed target form matching a system's family."""
    if sys.name == "autonomous5":
        return autonomous5_reference_ode()
    if sys.name == "nonautonomous3":
        return nonautonomous3_reference_ode()
    if sys.name.startswith("general:"):
        return general_reference_ode(sys.n)
    raise ValueError(f"no reference form for {sys.name!r}")
