from fractions import Fraction

import pytest

from hamfam.hamiltonian import (HamSystem, SecondOrderODE,
                                autonomous5_reference_ode, eliminate_momentum,
                                general_reference_ode, hamilton_equations,
                                make_autonomous5, make_general_n,
                                make_nonautonomous3, make_system,
                                nonautonomous3_reference_ode, reference_ode,
                                second_order_form, time_derivative_of_H,
                                verify_equivalence)
from hamfam.poly import LaurentPoly

N_RANGE = range(2, 9)


def v(sys, name, exp=1):
    return LaurentPoly.var(sys.table, name, exp)


class TestConstructors:
    def test_autonomous5_expansion(self):
        sys = make_autonomous5()
        assert len(sys.H) == 4
        assert sys.H.coefficient({"q": 5, "p": 2}) == 1
        assert sys.H == (v(sys, "q", 5) * v(sys, "p", 2)
                         + v(sys, "a") * v(sys, "q", 4) * v(sys, "p")
                         + v(sys, "e1") * v(sys, "q", 3) * v(sys, "p")
                         + v(sys, "e2") * v(sys, "p"))
        assert sys.autonomous

    def test_autonomous5_velocity_at_rest(self):
        sys = make_autonomous5()
        got = sys.H.diff("p").substitute({"p": LaurentPoly.zero(sys.table)})
        assert got == (v(sys, "a") * v(sys, "q", 4)
                       + v(sys, "e1") * v(sys, "q", 3) + v(sys, "e2"))

    def test_general_2(self):
        sys = make_general_n(2)
        assert sys.H == (v(sys, "q", 2) * v(sys, "p", 2)
                         + v(sys, "a") * v(sys, "q") * v(sys, "p")
                         + v(sys, "e1") * v(sys, "p"))

    @pytest.mark.parametrize("n", N_RANGE)
    def test_general_term_count(self, n):
        assert len(make_general_n(n).H) == n + 1

    def test_general_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_general_n(1)

    def test_general5_specializes_to_autonomous5(self):
        # zero the middle coefficients, rename the constant one
        g = make_general_n(5)
        zero = LaurentPoly.zero(g.table)
        specialized = g.H.substitute({"e2": zero, "e3": zero,
                                      "e4": v(g, "e2")})
        a5 = make_autonomous5()
        # compare term maps across the two tables by variable name
        def named_terms(poly):
            out = {}
            for exps, c in poly.terms.items():
                key = frozenset((n, e) for n, e in zip(poly.table.names, exps)
                                if e != 0)
                out[key] = c
            return out
        assert named_terms(specialized) == named_terms(a5.H)

    def test_nonautonomous3(self):
        sys = make_nonautonomous3()
        assert not sys.autonomous
        # six grouped summands; the (a1+1)q^4 p group expands to two monomials
        assert len(sys.H) == 7
        assert sys.H.coefficient({"q": 4, "p": 1}) == 1
        assert sys.H.coefficient({"q": 4, "p": 1, "a1": 1}) == 1
        assert sys.H.diff("t") == (v(sys, "q", 3) * v(sys, "p")
                                   + v(sys, "a2") * v(sys, "q", 2))

    def test_make_system_names(self):
        assert make_system("autonomous5").name == "autonomous5"
        assert make_system("general:3").n == 3
        assert make_system("general", 4).n == 4
        with pytest.raises(ValueError):
            make_system("unknown")


class TestHamiltonEquations:
    def test_autonomous5(self):
        sys = make_autonomous5()
        f_q, f_p = hamilton_equations(sys)
        assert f_q == (v(sys, "q", 5) * v(sys, "p") * 2
                       + v(sys, "a") * v(sys, "q", 4)
                       + v(sys, "e1") * v(sys, "q", 3) + v(sys, "e2"))
        assert f_p == -(v(sys, "q", 4) * v(sys, "p", 2) * 5
                        + v(sys, "a") * v(sys, "q", 3) * v(sys, "p") * 4
                        + v(sys, "e1") * v(sys, "q", 2) * v(sys, "p") * 3)

    def test_general_2(self):
        sys = make_general_n(2)
        f_q, _ = hamilton_equations(sys)
        assert f_q == (v(sys, "q", 2) * v(sys, "p") * 2
                       + v(sys, "a") * v(sys, "q") + v(sys, "e1"))


class TestMomentumElimination:
    @pytest.mark.parametrize("n", N_RANGE)
    def test_general_formula(self, n):
        sys = make_general_n(n)
        p_expr = eliminate_momentum(sys)
        A = v(sys, "a") * v(sys, "q", n - 1)
        for i in range(1, n):
            A = A + v(sys, f"e{i}") * v(sys, "q", n - 1 - i)
        expected = (v(sys, "qdot") - A) * v(sys, "q", -n) * Fraction(1, 2)
        assert p_expr == expected

    def test_autonomous5_formula(self):
        sys = make_autonomous5()
        A = (v(sys, "a") * v(sys, "q", 4) + v(sys, "e1") * v(sys, "q", 3)
             + v(sys, "e2"))
        expected = (v(sys, "qdot") - A) * v(sys, "q", -5) * Fraction(1, 2)
        assert eliminate_momentum(sys) == expected

    @pytest.mark.parametrize("family", ["autonomous5", "nonautonomous3",
                                        "general:2", "general:7"])
    def test_inversion_consistency(self, family):
        sys = make_system(family)
        f_q, _ = hamilton_equations(sys)
        back = f_q.substitute({"p": eliminate_momentum(sys)})
        assert back == v(sys, "qdot")


class TestSecondOrderForm:
    def test_autonomous5_matches_reference(self):
        sys = make_autonomous5()
        assert verify_equivalence(sys, autonomous5_reference_ode()).is_zero()

    @pytest.mark.parametrize("n", N_RANGE)
    def test_general_matches_reference(self, n):
        sys = make_general_n(n)
        assert verify_equivalence(sys, general_reference_ode(n)).is_zero()

    def test_nonautonomous_matches_reference(self):
        sys = make_nonautonomous3()
        assert verify_equivalence(sys, nonautonomous3_reference_ode()).is_zero()

    def test_mutation_control(self):
        sys = make_autonomous5()
        target = autonomous5_reference_ode()
        exps = sorted(target.rhs.terms)[0]
        mutated_terms = dict(target.rhs.terms)
        mutated_terms[exps] = -mutated_terms[exps]
        mutated = SecondOrderODE(target.table,
                                 LaurentPoly(target.table, mutated_terms))
        assert not verify_equivalence(sys, mutated).is_zero()

    def test_expansion_order_independence(self):
        # distribute the momentum substitution into each factor first,
        # instead of substituting into the assembled expression
        sys = make_nonautonomous3()
        f_q, f_p = hamilton_equations(sys)
        p_expr = eliminate_momentum(sys)
        qdot = v(sys, "qdot")
        sub = {"p": p_expr}
        route_a = second_order_form(sys).rhs
        route_b = (f_q.diff("q").substitute(sub) * qdot
                   + f_q.diff("p").substitute(sub) * f_p.substitute(sub)
                   + f_q.diff("t").substitute(sub))
        assert route_a == route_b

    def test_denominator_is_q_power(self):
        sys = make_autonomous5()
        rhs = second_order_form(sys).rhs
        d = -rhs.min_exponent("q")
        assert d >= 1
        assert (rhs * v(sys, "q", d)).min_exponent("q") >= 0


class TestFirstIntegral:
    def test_autonomous5_conserved(self):
        assert time_derivative_of_H(make_autonomous5()).is_zero()

    @pytest.mark.parametrize("n", N_RANGE)
    def test_general_conserved(self, n):
        assert time_derivative_of_H(make_general_n(n)).is_zero()

    def test_nonautonomous_not_conserved(self):
        sys = make_nonautonomous3()
        dH = time_derivative_of_H(sys)
        assert dH == sys.H.diff("t")
        assert dH == (v(sys, "q", 3) * v(sys, "p")
                      + v(sys, "a2") * v(sys, "q", 2))

    @pytest.mark.parametrize("family", ["autonomous5", "nonautonomous3",
                                        "general:3", "general:8"])
    def test_conservation_iff_autonomous(self, family):
        sys = make_system(family)
        assert time_derivative_of_H(sys).is_zero() == sys.autonomous


def test_reference_dispatch():
    for family in ("autonomous5", "nonautonomous3", "general:6"):
        sys = make_system(family)
        assert verify_equivalence(sys, reference_ode(sys)).is_zero()
