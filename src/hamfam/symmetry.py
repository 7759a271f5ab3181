"""Birational symplectic symmetry maps of the Hamiltonian families.

Two maps are provided:

* the shear for the autonomous families,
      (q, p) -> (q, p + a/q + e1/q^2 + ... + e(n-1)/q^n),  params negated,
  an involution;
* the order-8 map for the non-autonomous family, which rotates q and t by
  fourth roots of -1 and shears p, with an affine action on (a1, a2, a3).

All properties (invariance, unit Jacobian, group order) are certified by
exact zero residuals in Q(z8); ``certificate_battery`` runs all a family owes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

from .cyclo import CycloRat, fourth_root_of_minus_one
from .hamiltonian import (HamSystem, hamilton_equations, make_nonautonomous3,
                          reference_ode, time_derivative_of_H,
                          verify_equivalence)
from .integrate import compile_map
from .poly import LaurentError, LaurentPoly, VarTable


@dataclass(frozen=True)
class BirationalMap:
    """Coordinate rules (q, p, t) plus an affine rule per parameter.

    Rules live on the family's variable table; parameter rules are affine
    polynomials in the parameters only.
    """

    name: str
    table: VarTable
    q_rule: LaurentPoly
    p_rule: LaurentPoly
    t_rule: LaurentPoly
    param_rules: dict[str, LaurentPoly]

    def coordinate_bindings(self) -> dict[str, LaurentPoly]:
        return {"q": self.q_rule, "p": self.p_rule, "t": self.t_rule}

    def all_bindings(self) -> dict[str, LaurentPoly]:
        return {**self.coordinate_bindings(), **self.param_rules}

    def is_identity(self) -> bool:
        tbl = self.table
        if self.q_rule != LaurentPoly.var(tbl, "q"):
            return False
        if self.p_rule != LaurentPoly.var(tbl, "p"):
            return False
        if self.t_rule != LaurentPoly.var(tbl, "t"):
            return False
        return all(rule == LaurentPoly.var(tbl, name)
                   for name, rule in self.param_rules.items())

    def apply_numeric(self, point: dict[str, complex],
                      params: dict[str, complex]):
        """Map a numeric phase point; returns ((Q, P, T), mapped params).
        Evaluates the same compiled rules as the trajectory check, on q, p
        and t as complex numbers (so int, float and complex points agree);
        raises ValueError where the image is not finite, as at q = 0."""
        mapped, coords = compile_map(self, params)
        qpt = tuple(complex(point[v]) for v in "qpt")
        try:
            image = coords(*qpt)
        except ZeroDivisionError:  # w = 1/q at q = 0
            image = (cmath.nan,)
        if all(map(cmath.isfinite, image)):
            return image, dict(mapped)
        raise ValueError(f"{self.name} has no finite image at {qpt}")


def identity_map(table: VarTable, params: tuple[str, ...]) -> BirationalMap:
    v = lambda name: LaurentPoly.var(table, name)
    return BirationalMap("identity", table, v("q"), v("p"), v("t"),
                         {name: v(name) for name in params})


def autonomous_map(sys: HamSystem) -> BirationalMap:
    """The involutive shear for general:n (and autonomous5, whose shear adds
    a/q + e1/q^2 + e2/q^5, mirroring its Hamiltonian's coefficient pattern)."""
    if not sys.autonomous:
        raise ValueError("autonomous_map needs an autonomous family")
    tbl = sys.table
    v = lambda name, e=1: LaurentPoly.var(tbl, name, e)
    # the shear adds A(q)/q^n where A is the p-linear coefficient of H
    A = sys.H.collect("p")[1]
    p_rule = v("p") + A * v("q", -sys.n)
    param_rules = {name: -v(name) for name in sys.params}
    return BirationalMap(f"s-auto:{sys.n}", tbl, v("q"), p_rule, v("t"),
                         param_rules)


def nonautonomous_map(branch: int = 1) -> BirationalMap:
    """The order-8 map of the non-autonomous family.

    ``branch`` selects which odd power of z represents the fourth root of -1
    (1 is the principal choice; 7 is its conjugate).
    """
    r = fourth_root_of_minus_one(branch)
    sys = make_nonautonomous3()
    tbl = sys.table
    v = lambda name, e=1: LaurentPoly.var(tbl, name, e)
    one = LaurentPoly.const(tbl, 1)
    q_rule = v("q") * (-r)
    shear = v("p") + v("a1") * v("q", -1) + v("t") * v("q", -2) + v("q", -5)
    p_rule = shear * (-r.inverse())
    # t scales by -r^(-3) (= r): the unique branch pairing of the two roots
    # for which the invariance certificate is exactly zero
    t_rule = v("t") * (-(r ** -3))
    param_rules = {
        "a1": -v("a1"),
        "a2": one - v("a2"),
        "a3": v("a3") - v("a1"),
    }
    return BirationalMap(f"s-nonauto(branch={branch})", tbl,
                         q_rule, p_rule, t_rule, param_rules)


def make_map(name: str, branch: int = 1,
             sys: HamSystem | None = None) -> BirationalMap:
    """Map addressable by name: 's-auto' or 's-auto:n' for the system's own
    n (needs the system; branch 1 only), or 's-nonauto' on an odd branch."""
    if name.startswith("s-auto"):
        if sys is None:
            raise ValueError("s-auto map needs its family")
        if name not in ("s-auto", f"s-auto:{sys.n}"):
            raise ValueError(f"unknown map {name!r} for {sys.name}")
        if branch != 1:
            raise ValueError(f"the shear has branch 1 only, not {branch}")
        return autonomous_map(sys)
    if name == "s-nonauto":
        if sys is not None and sys.name != "nonautonomous3":
            raise ValueError(f"s-nonauto is a map of nonautonomous3, "
                             f"not of {sys.name}")
        return nonautonomous_map(branch)
    raise ValueError(f"unknown map {name!r}")


# -- core operations -----------------------------------------------------------

def compose(a: BirationalMap, b: BirationalMap) -> BirationalMap:
    """The map 'a then b': substitute a's rules into b's."""
    if a.table != b.table:
        raise LaurentError("variable-table mismatch between maps")
    bindings = a.all_bindings()
    return BirationalMap(
        f"{b.name}∘{a.name}", a.table,
        b.q_rule.substitute(bindings),
        b.p_rule.substitute(bindings),
        b.t_rule.substitute(bindings),
        {name: rule.substitute(a.param_rules)
         for name, rule in b.param_rules.items()})


def iterate_map(m: BirationalMap, k: int) -> BirationalMap:
    """m composed with itself k times; the identity map for k = 0.  A
    negative k raises ``ValueError``: no inverse is formed.

    Repeated squaring takes O(log k) compositions instead of k.  Composition
    is associative and every rule is a canonical polynomial (a dict of exact
    normal-form coefficients), so any grouping of the k factors gives the
    same rules.  The name is the linear chain's, "m∘m∘…∘identity"."""
    if k < 0:
        raise ValueError(f"iterate_map needs k >= 0, got {k}")
    if k == 0:
        return identity_map(m.table, tuple(m.param_rules))
    name = "∘".join([m.name] * k + ["identity"])
    result = None
    base = m
    while True:
        if k & 1:
            result = base if result is None else compose(result, base)
        k >>= 1
        if not k:
            return replace(result, name=name,
                           param_rules=dict(result.param_rules))
        base = compose(base, base)


def map_order(m: BirationalMap, max_order: int = 16) -> int | None:
    """Smallest k >= 1 with m^k = identity, or None if above max_order."""
    acc = m
    for k in range(1, max_order + 1):
        if acc.is_identity():
            return k
        if k < max_order:   # no composition that is never tested
            acc = compose(acc, m)
    return None


def resolve_inverse(m: BirationalMap) -> dict[str, LaurentPoly]:
    """Back-substitution rules expressing old (q, p, t) in the new coordinates.

    Requires q_rule = c*q, t_rule = c'*t and p_rule linear in p with a
    constant leading coefficient, which covers every map in this package.
    """
    tbl = m.table
    cq = m.q_rule.coefficient({"q": 1})
    if cq.is_zero() or len(m.q_rule) != 1:
        raise LaurentError(f"cannot invert q-rule {m.q_rule}")
    inv_q = LaurentPoly.var(tbl, "q", coeff=cq.inverse())
    ct = m.t_rule.coefficient({"t": 1})
    if ct.is_zero() or len(m.t_rule) != 1:
        raise LaurentError(f"cannot invert t-rule {m.t_rule}")
    inv_t = LaurentPoly.var(tbl, "t", coeff=ct.inverse())
    lead = m.p_rule.diff("p")
    if len(lead) != 1 or lead.variables():
        raise LaurentError(f"p-rule not a constant-lead shear: {m.p_rule}")
    A = lead.coefficient({})
    B = m.p_rule - LaurentPoly.var(tbl, "p", coeff=A)
    B_new = B.substitute({"q": inv_q, "t": inv_t})
    inv_p = (LaurentPoly.var(tbl, "p") - B_new) * A.inverse()
    return {"q": inv_q, "p": inv_p, "t": inv_t}


def pushforward_H(m: BirationalMap, sys: HamSystem) -> LaurentPoly:
    """H expressed in the new coordinates: substitute the resolved inverse.

    Parameters are left untouched; for the autonomous shear the result is
    (q^n p - a q^(n-1) - e1 q^(n-2) - ... - e(n-1)) p in the new variables.
    """
    return sys.H.substitute(resolve_inverse(m))


def verify_invariance(m: BirationalMap, sys: HamSystem):
    """Exact invariance certificate.

    Autonomous families: returns pushforward_H with the parameter rules
    applied, minus H; zero certifies invariance.

    Non-autonomous family: H is not conserved, so invariance is checked as
    the pair of chain-rule defects of the transformed flow
        dQ/dT - dH~/dP  and  dP/dT + dH~/dQ,
    where H~ carries the mapped parameters and T = c*t with constant c.
    Returns the (defect_q, defect_p) pair; (0, 0) certifies the theorem.
    """
    if sys.autonomous:
        pushed = pushforward_H(m, sys)
        return pushed.substitute(m.param_rules) - sys.H

    f_q, f_p = hamilton_equations(sys)

    def along_flow(expr: LaurentPoly) -> LaurentPoly:
        return expr.diff("q") * f_q + expr.diff("p") * f_p + expr.diff("t")

    c = m.t_rule.diff("t")
    if len(c) != 1 or c.variables():
        raise LaurentError("dT/dt is not a nonzero constant")
    c_inv = c.coefficient({}).inverse()
    H_mapped = sys.H.substitute(m.param_rules)
    subs = m.coordinate_bindings()
    defect_q = along_flow(m.q_rule) * c_inv \
        - H_mapped.diff("p").substitute(subs)
    defect_p = along_flow(m.p_rule) * c_inv \
        + H_mapped.diff("q").substitute(subs)
    return defect_q, defect_p


def jacobian_determinant(m: BirationalMap) -> LaurentPoly:
    """dQ/dq * dP/dp - dQ/dp * dP/dq; equal to 1 exactly for symplectic maps."""
    return (m.q_rule.diff("q") * m.p_rule.diff("p")
            - m.q_rule.diff("p") * m.p_rule.diff("q"))


# -- the certificate battery ---------------------------------------------------

def _flip_first_term(poly: LaurentPoly) -> LaurentPoly:
    """poly with the sign of its first term (in exponent order) flipped."""
    first = min(poly.terms)
    return LaurentPoly(poly.table, {**poly.terms, first: -poly.terms[first]})


def certificate_battery(sys: HamSystem,
                        mutate: str | None = None) -> list[dict]:
    """Every exact certificate the family owes, as report entries
    ``{check, family, status[, residual]}``: the second-order form, dH/dt,
    then invariance, unit Jacobian and group order of each symmetry map.

    ``mutate`` is the vacuous-pass control: 'ode', 'hamiltonian' or 'map'
    flips the sign of the first term of the reference second-order form, of
    H in the equivalence check, or of each map's p-rule.
    """
    if mutate not in (None, "ode", "hamiltonian", "map"):
        raise ValueError(f"unknown mutation {mutate!r}")
    entries = []

    def record(check: str, residual=(), ok: bool | None = None):
        # PASS iff the residual polynomial (or each of a pair) is zero, or ok
        polys = residual if isinstance(residual, tuple) else (residual,)
        ok = all(r.is_zero() for r in polys) if ok is None else ok
        entries.append({"check": check, "family": sys.name,
                        "status": "PASS" if ok else "FAIL"})
        if not ok:
            entries[-1]["residual"] = "; ".join(r.serialize() for r in polys)

    target = reference_ode(sys)
    if mutate == "ode":
        target = replace(target, rhs=_flip_first_term(target.rhs))
    checked = replace(sys, H=_flip_first_term(sys.H)) \
        if mutate == "hamiltonian" else sys
    record("second-order form equivalence", verify_equivalence(checked, target))
    dH = time_derivative_of_H(sys)
    if sys.autonomous:
        record("dH/dt = 0 (first integral)", dH)
        maps = [("s-auto", autonomous_map(sys))]
        order, order_note = 2, ""
    else:
        v = lambda name, e=1: LaurentPoly.var(sys.table, name, e)
        record("dH/dt = q^3*p + a2*q^2 (not conserved)",
               dH - (v("q", 3) * v("p") + v("a2") * v("q", 2)))
        maps = [("s-nonauto[z]", nonautonomous_map(1)),
                ("s-nonauto[z^7]", nonautonomous_map(7))]
        order, order_note = 8, " (s^8 = identity)"
    for label, m in maps:
        if mutate == "map":
            m = replace(m, p_rule=_flip_first_term(m.p_rule))
        record(f"invariance under {label}", verify_invariance(m, sys))
        record(f"unit Jacobian of {label}",
               jacobian_determinant(m) - LaurentPoly.const(sys.table, 1))
        # map_order is the least k with m^k = id: no lower power is the id
        record(f"{label} order = {order}{order_note}",
               ok=map_order(m, order + 2) == order)
    return entries
