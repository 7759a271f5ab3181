"""Acceptance gate: one test per acceptance criterion, each printing a single
PASS/FAIL line.  Tolerances are pinned here and nowhere looser.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import numpy as np
import pytest

from conftest import compiled_poly
from hamfam.hamiltonian import (HamSystem, SecondOrderODE, make_autonomous5,
                                make_general_n, make_nonautonomous3,
                                reference_ode, time_derivative_of_H,
                                verify_equivalence)
from hamfam.integrate import (NumericParams, check_symmetry_on_trajectory,
                              integrate, richardson_order)
from hamfam.poly import LaurentPoly
from hamfam.symmetry import (BirationalMap, autonomous_map,
                             certificate_battery, iterate_map,
                             nonautonomous_map, pushforward_H,
                             verify_invariance)

N_RANGE = range(2, 9)
AUTONOMOUS = ["autonomous5"] + [f"general:{n}" for n in N_RANGE]
NONAUTO_MAPS = ("s-nonauto[z]", "s-nonauto[z^7]")


def _report(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _residual_zero(res):
    if isinstance(res, tuple):
        return all(r.is_zero() for r in res)
    return res.is_zero()


@pytest.fixture(scope="module")
def batteries():
    """The certificate battery (the one ``hamfam verify`` runs) by family."""
    systems = [make_autonomous5(), make_nonautonomous3()]
    systems += [make_general_n(n) for n in N_RANGE]
    return {s.name: certificate_battery(s) for s in systems}


def _passed(batteries, family, check):
    """The family's battery holds ``check`` exactly once, and it passed."""
    return [e["status"] for e in batteries[family]
            if e["check"] == check] == ["PASS"]


def test_battery_check_names(batteries):
    # criteria 1-4 read their verdicts from the battery, so it must keep
    # every certificate they need, under these names and in this order
    auto = ["second-order form equivalence", "dH/dt = 0 (first integral)",
            "invariance under s-auto", "unit Jacobian of s-auto",
            "s-auto order = 2"]
    nonauto = ["second-order form equivalence",
               "dH/dt = q^3*p + a2*q^2 (not conserved)"]
    for label in NONAUTO_MAPS:
        nonauto += [f"invariance under {label}", f"unit Jacobian of {label}",
                    f"{label} order = 8 (s^8 = identity)"]
    expected = {**{name: auto for name in AUTONOMOUS},
                "nonautonomous3": nonauto}
    assert {name: [e["check"] for e in entries]
            for name, entries in batteries.items()} == expected
    assert all(e["family"] == name for name, entries in batteries.items()
               for e in entries)


def test_criterion_1_exact_equivalence(batteries):
    ok = len(batteries) == 9 and all(
        _passed(batteries, name, "second-order form equivalence")
        for name in batteries)
    _report(1, "exact ODE/Hamiltonian equivalence certificates "
               "(autonomous5, nonautonomous3, general n=2..8)", ok)


def test_criterion_2_first_integrals(batteries):
    ok = all(_passed(batteries, name, "dH/dt = 0 (first integral)")
             for name in AUTONOMOUS)
    ok = ok and _passed(batteries, "nonautonomous3",
                        "dH/dt = q^3*p + a2*q^2 (not conserved)")
    _report(2, "exact first-integral certificates; non-autonomous "
               "dH/dt = q^3*p + a2*q^2 exactly", ok)


def test_criterion_3_symmetry_certificates(batteries):
    ok = True
    for n in N_RANGE:
        sys = make_general_n(n)
        m = autonomous_map(sys)
        pushed = pushforward_H(m, sys)
        inner = (LaurentPoly.var(sys.table, "q", n)
                 * LaurentPoly.var(sys.table, "p")
                 - LaurentPoly.var(sys.table, "a")
                 * LaurentPoly.var(sys.table, "q", n - 1))
        for i in range(1, n):
            inner = inner - (LaurentPoly.var(sys.table, f"e{i}")
                             * LaurentPoly.var(sys.table, "q", n - 1 - i))
        ok = ok and pushed == inner * LaurentPoly.var(sys.table, "p")
    maps = [(name, "s-auto") for name in AUTONOMOUS]
    maps += [("nonautonomous3", label) for label in NONAUTO_MAPS]
    for name, label in maps:
        ok = ok and _passed(batteries, name, f"invariance under {label}")
        ok = ok and _passed(batteries, name, f"unit Jacobian of {label}")
    _report(3, "pushforward proof chain n=2..8; zero invariance residuals; "
               "unit Jacobians for both maps", ok)


def test_criterion_4_group_orders(batteries):
    ok = all(_passed(batteries, name, "s-auto order = 2")
             for name in AUTONOMOUS)
    for label in NONAUTO_MAPS:
        ok = ok and _passed(batteries, "nonautonomous3",
                            f"{label} order = 8 (s^8 = identity)")
    # independent of map_order: no proper power tried here is the identity
    for branch in (1, 7):
        m = nonautonomous_map(branch)
        for k in (1, 2, 4):
            ok = ok and not iterate_map(m, k).is_identity()
    _report(4, "autonomous map is an involution; non-autonomous map has "
               "order exactly 8 (branches z and z^7), parameters included", ok)


def test_criterion_5_numerical_conservation():
    sys = make_autonomous5()
    params = NumericParams("autonomous5", {"a": 1, "e1": 1, "e2": 1}, 5)
    # the drift bound applies to every sample of a nontrivial orbit (H and
    # p nonzero) on a span before its blow-up; later samples drift more
    traj = integrate(sys, params, 1, -1.5, (0, 0.05), h=1e-3)
    ok = abs(traj.H_values[0]) > 0 and np.max(np.abs(traj.p)) > 0
    ok = ok and traj.termination == "completed" and traj.drift <= 1e-8
    # from q0=1, p0=0 (where p and H stay 0) the orbit blows up before
    # t = 1, and termination must be clean
    blowup = integrate(sys, params, 1, 0, (0, 1), h=1e-3)
    ok = ok and blowup.termination in ("completed", "overflow")
    order = richardson_order(sys, params, 1, 0, (0, 0.03),
                             (1e-2, 5e-3, 2.5e-3))
    ok = ok and 3.7 <= order <= 4.3
    _report(5, f"drift {traj.drift:.2e} <= 1e-8 at h=1e-3; measured order "
               f"{order:.2f} in [3.7, 4.3]", ok)


def test_criterion_6_numerical_nonconservation():
    sys = make_nonautonomous3()
    params = NumericParams("nonautonomous3", {"a1": 1, "a2": 1, "a3": 1}, 5)
    traj = integrate(sys, params, 1, 0, (0, 0.1), h=2.5e-4)
    dH = compiled_poly(time_derivative_of_H(sys), params.values)
    ts, qs, ps, Hs = traj.times, traj.q, traj.p, traj.H_values
    worst = 0.0
    for k in range(1, len(ts) - 1):
        fd = (Hs[k + 1] - Hs[k - 1]) / (ts[k + 1] - ts[k - 1])
        sym = dH(qs[k], ps[k], ts[k])
        worst = max(worst, abs(fd - sym) / abs(sym))
    ok = traj.termination == "completed" and worst < 1e-6
    _report(6, f"finite-difference dH/dt matches compiled dH/dt "
               f"(worst relative error {worst:.2e} < 1e-6)", ok)


def test_criterion_7_trajectory_symmetry():
    a5 = make_autonomous5()
    p5 = NumericParams("autonomous5", {"a": 1, "e1": 1, "e2": 1}, 5)
    traj = integrate(a5, p5, 1, -1.5, (0, 0.05), h=1e-3)
    res_a = check_symmetry_on_trajectory(traj, autonomous_map(a5), a5, p5)

    na = make_nonautonomous3()
    p3 = NumericParams("nonautonomous3", {"a1": 1, "a2": 1, "a3": 1}, 5)
    traj = integrate(na, p3, 1, -1.5, (0, 0.05), h=1e-3)
    res_n = check_symmetry_on_trajectory(traj, nonautonomous_map(1), na, p3)

    ok = res_a <= 1e-5 and res_n <= 1e-5
    _report(7, f"trajectory-level symmetry residuals {res_a:.2e}, "
               f"{res_n:.2e} <= 1e-5 at h=1e-3", ok)


def _flip(poly, exps):
    terms = dict(poly.terms)
    terms[exps] = -terms[exps]
    return LaurentPoly(poly.table, terms)


def test_criterion_8_mutation_controls():
    ok = True
    # every single sign flip in the reference second-order form breaks the
    # equivalence certificate
    a5 = make_autonomous5()
    target = reference_ode(a5)
    for exps in target.rhs.terms:
        mutated = SecondOrderODE(target.table, _flip(target.rhs, exps))
        ok = ok and not verify_equivalence(a5, mutated).is_zero()
    # every single sign flip in either Hamiltonian breaks a certificate in
    # the family's battery.  Flipping the leading q^n*p^2 coefficient is the
    # anti-canonical change (p, H) -> (-p, -H), which leaves the second-order
    # form intact; the invariance certificate catches that one.
    for sys in (a5, make_nonautonomous3()):
        fam_map = (autonomous_map(sys) if sys.autonomous
                   else nonautonomous_map(1))
        for exps in sys.H.terms:
            broken = HamSystem(sys.name, sys.table, _flip(sys.H, exps),
                               sys.params, sys.autonomous, sys.n)
            equiv_ok = verify_equivalence(broken, reference_ode(sys)).is_zero()
            invar_ok = _residual_zero(verify_invariance(fam_map, broken))
            ok = ok and not (equiv_ok and invar_ok)
    # every single sign flip in either map breaks the invariance certificate
    m = autonomous_map(a5)
    for rule_name in ("q_rule", "p_rule"):
        rule = getattr(m, rule_name)
        for exps in rule.terms:
            broken = BirationalMap(m.name, m.table,
                                   _flip(m.q_rule, exps) if rule_name == "q_rule" else m.q_rule,
                                   _flip(m.p_rule, exps) if rule_name == "p_rule" else m.p_rule,
                                   m.t_rule, m.param_rules)
            ok = ok and not _residual_zero(verify_invariance(broken, a5))
    na = make_nonautonomous3()
    m = nonautonomous_map(1)
    for rule_name in ("q_rule", "p_rule", "t_rule"):
        rule = getattr(m, rule_name)
        for exps in rule.terms:
            rules = {"q_rule": m.q_rule, "p_rule": m.p_rule, "t_rule": m.t_rule}
            rules[rule_name] = _flip(rule, exps)
            broken = BirationalMap(m.name, m.table, rules["q_rule"],
                                   rules["p_rule"], rules["t_rule"],
                                   m.param_rules)
            ok = ok and not _residual_zero(verify_invariance(broken, na))
    # the CLI control path prints the nonzero residual and exits 1
    from hamfam.cli import main
    ok = ok and main(["verify", "--family", "autonomous5",
                      "--mutate", "ode"]) == 1
    _report(8, "every single sign flip in the reference ODE, either map, or "
               "either Hamiltonian yields a nonzero certificate", ok)
