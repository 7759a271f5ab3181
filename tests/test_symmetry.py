import pytest

from conftest import linear_iterate
from hamfam.cyclo import CycloRat, ZETA
from hamfam.hamiltonian import (make_autonomous5, make_general_n,
                                make_nonautonomous3, make_system)
from hamfam.poly import LaurentPoly
from hamfam.symmetry import (BirationalMap, autonomous_map,
                             certificate_battery, compose, identity_map,
                             iterate_map, jacobian_determinant, make_map,
                             map_order, nonautonomous_map, pushforward_H,
                             resolve_inverse, verify_invariance)

N_RANGE = range(2, 9)


def v(sys_or_map, name, exp=1, coeff=1):
    return LaurentPoly.var(sys_or_map.table, name, exp, coeff)


class TestAutonomousMap:
    def test_rules_for_autonomous5(self):
        sys = make_autonomous5()
        m = autonomous_map(sys)
        assert m.q_rule == v(sys, "q")
        assert m.p_rule == (v(sys, "p") + v(sys, "a") * v(sys, "q", -1)
                            + v(sys, "e1") * v(sys, "q", -2)
                            + v(sys, "e2") * v(sys, "q", -5))
        assert m.param_rules == {"a": -v(sys, "a"), "e1": -v(sys, "e1"),
                                 "e2": -v(sys, "e2")}

    @pytest.mark.parametrize("n", N_RANGE)
    def test_general_shear_terms(self, n):
        sys = make_general_n(n)
        m = autonomous_map(sys)
        expected = v(sys, "p") + v(sys, "a") * v(sys, "q", -1)
        for i in range(1, n):
            expected = expected + v(sys, f"e{i}") * v(sys, "q", -(i + 1))
        assert m.p_rule == expected

    @pytest.mark.parametrize("n", N_RANGE)
    def test_involution(self, n):
        m = autonomous_map(make_general_n(n))
        assert map_order(m, 4) == 2
        assert not m.is_identity()

    def test_rejects_nonautonomous(self):
        with pytest.raises(ValueError):
            autonomous_map(make_nonautonomous3())


class TestNonautonomousMap:
    def test_rules(self):
        m = nonautonomous_map(1)
        sys = make_nonautonomous3()
        assert m.q_rule == v(sys, "q", coeff=-ZETA)
        # the t-scaling is -z^(-3) = z: the branch pairing under which the
        # system is exactly invariant
        assert m.t_rule == v(sys, "t", coeff=ZETA)
        shear = (v(sys, "p") + v(sys, "a1") * v(sys, "q", -1)
                 + v(sys, "t") * v(sys, "q", -2) + v(sys, "q", -5))
        assert m.p_rule == shear * (-(ZETA.inverse()))

    def test_param_rule_is_involution(self):
        m = nonautonomous_map(1)
        twice = compose(m, m)
        tbl = m.table
        for name in ("a1", "a2", "a3"):
            assert twice.param_rules[name] == LaurentPoly.var(tbl, name)

    def test_order_is_exactly_eight(self):
        for branch in (1, 7):
            m = nonautonomous_map(branch)
            assert map_order(m, 10) == 8
            for k in (1, 2, 4):
                assert not iterate_map(m, k).is_identity()

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            nonautonomous_map(2)


class TestPushforward:
    @pytest.mark.parametrize("n", N_RANGE)
    def test_general_proof_chain(self, n):
        sys = make_general_n(n)
        pushed = pushforward_H(autonomous_map(sys), sys)
        expected = v(sys, "q", n) * v(sys, "p") - v(sys, "a") * v(sys, "q", n - 1)
        for i in range(1, n):
            expected = expected - v(sys, f"e{i}") * v(sys, "q", n - 1 - i)
        assert pushed == expected * v(sys, "p")

    def test_param_negation_recovers_H(self):
        sys = make_general_n(4)
        m = autonomous_map(sys)
        assert pushforward_H(m, sys).substitute(m.param_rules) == sys.H

    def test_n2_hand_expansion(self):
        sys = make_general_n(2)
        pushed = pushforward_H(autonomous_map(sys), sys)
        assert pushed == (v(sys, "q", 2) * v(sys, "p", 2)
                          - v(sys, "a") * v(sys, "q") * v(sys, "p")
                          - v(sys, "e1") * v(sys, "p"))


class TestInvariance:
    @pytest.mark.parametrize("n", N_RANGE)
    def test_autonomous(self, n):
        sys = make_general_n(n)
        assert verify_invariance(autonomous_map(sys), sys).is_zero()

    def test_autonomous5(self):
        sys = make_autonomous5()
        assert verify_invariance(autonomous_map(sys), sys).is_zero()

    @pytest.mark.parametrize("branch", [1, 7])
    def test_nonautonomous(self, branch):
        sys = make_nonautonomous3()
        dq, dp = verify_invariance(nonautonomous_map(branch), sys)
        assert dq.is_zero() and dp.is_zero()

    def test_mutated_map_fails(self):
        sys = make_autonomous5()
        m = autonomous_map(sys)
        # drop the deepest pole of the shear
        dropped = m.p_rule - v(sys, "e2") * v(sys, "q", -5)
        broken = BirationalMap(m.name, m.table, m.q_rule, dropped, m.t_rule,
                               m.param_rules)
        assert not verify_invariance(broken, sys).is_zero()


class TestJacobian:
    @pytest.mark.parametrize("n", N_RANGE)
    def test_autonomous_unit(self, n):
        sys = make_general_n(n)
        m = autonomous_map(sys)
        assert jacobian_determinant(m) == LaurentPoly.const(sys.table, 1)

    @pytest.mark.parametrize("branch", [1, 7])
    def test_nonautonomous_unit(self, branch):
        m = nonautonomous_map(branch)
        assert jacobian_determinant(m) == LaurentPoly.const(m.table, 1)

    def test_identity_map(self):
        sys = make_autonomous5()
        m = identity_map(sys.table, sys.params)
        assert jacobian_determinant(m) == LaurentPoly.const(sys.table, 1)


class TestCompose:
    def test_shear_squares_to_identity(self):
        sys = make_general_n(3)
        m = autonomous_map(sys)
        assert compose(m, m).is_identity()

    def test_resolved_inverse_roundtrip(self):
        m = nonautonomous_map(1)
        inv = resolve_inverse(m)
        for name, rule in m.coordinate_bindings().items():
            assert rule.substitute(inv) == LaurentPoly.var(m.table, name)

    def test_fourth_iterate_scales_q_by_minus_one(self):
        m = nonautonomous_map(1)
        s4 = iterate_map(m, 4)
        assert s4.q_rule == LaurentPoly.var(m.table, "q", coeff=CycloRat(-1))


ITERATED = {f"s-nonauto[{b}]": nonautonomous_map(b) for b in (1, 3, 5, 7)}
ITERATED.update((family, autonomous_map(make_system(family)))
                for family in ("autonomous5", "general:2", "general:5",
                               "general:12"))


@pytest.mark.parametrize("label", ITERATED)
def test_iterate_by_squaring_matches_the_linear_chain(label):
    m = ITERATED[label]
    for k in range(11):
        got, want = iterate_map(m, k), linear_iterate(m, k)
        assert got == want, f"{label}^{k}"
        assert got.name == want.name
        for rule, ref in zip((got.q_rule, got.p_rule, got.t_rule,
                              *got.param_rules.values()),
                             (want.q_rule, want.p_rule, want.t_rule,
                              *want.param_rules.values())):
            assert rule.serialize() == ref.serialize()
            # the numeric kernels sum floats in term order
            assert list(rule.terms) == list(ref.terms)
        assert list(got.param_rules) == list(want.param_rules)


def test_iterate_map_of_negative_k_raises():
    m = nonautonomous_map(1)
    assert iterate_map(m, 0).is_identity()
    for k in (-1, -3, -8):
        with pytest.raises(ValueError, match="k >= 0"):
            iterate_map(m, k)


@pytest.mark.parametrize("max_order,order,calls", [(4, None, 3), (10, 8, 7)])
def test_map_order_composes_only_what_it_tests(monkeypatch, max_order, order,
                                               calls):
    import hamfam.symmetry as symmetry
    made = []

    def counting(a, b):
        made.append(None)
        return compose(a, b)

    monkeypatch.setattr(symmetry, "compose", counting)
    assert map_order(nonautonomous_map(1), max_order) == order
    assert len(made) == calls


def test_make_map_dispatch():
    sys = make_autonomous5()
    assert make_map("s-auto:5", sys=sys).name == "s-auto:5"
    assert make_map("s-auto", sys=sys).name == "s-auto:5"
    assert make_map("s-auto:7", sys=make_system("general:7")).name \
        == "s-auto:7"
    # only the system's own n names its shear
    for name in ("s-auto:7", "s-auto:", "s-autoXYZ", "s-auto:05"):
        with pytest.raises(ValueError, match="unknown map"):
            make_map(name, sys=sys)
    with pytest.raises(ValueError, match="needs its family"):
        make_map("s-auto")
    with pytest.raises(ValueError, match="branch 1 only, not 3"):
        make_map("s-auto", branch=3, sys=sys)
    assert make_map("s-nonauto", branch=7).name == "s-nonauto(branch=7)"
    assert make_map("s-nonauto", branch=7,
                    sys=make_nonautonomous3()).name == "s-nonauto(branch=7)"
    with pytest.raises(ValueError):
        make_map("nope")
    with pytest.raises(ValueError, match="map of nonautonomous3"):
        make_map("s-nonauto", sys=sys)


class TestCertificateBattery:
    FAMILIES = ("autonomous5", "nonautonomous3", "general:4")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_pass(self, family):
        entries = certificate_battery(make_system(family))
        assert entries and all(e == {"check": e["check"], "family": family,
                                     "status": "PASS"} for e in entries)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("mutate,broken", [
        ("ode", "second-order form equivalence"),
        ("hamiltonian", "second-order form equivalence"),
        ("map", "invariance under s-")])
    def test_mutation_fails_its_certificate(self, family, mutate, broken):
        # each control breaks the certificate it targets, with a nonzero
        # residual, and leaves every other certificate passing
        entries = certificate_battery(make_system(family), mutate)
        failed = [e for e in entries if e["status"] == "FAIL"]
        assert failed and all(e["check"].startswith(broken) for e in failed)
        assert all(e["residual"] not in ("", "0") for e in failed)
        assert len(failed) == sum(e["check"].startswith(broken)
                                  for e in entries)

    def test_unknown_mutation(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            certificate_battery(make_autonomous5(), "typo")
