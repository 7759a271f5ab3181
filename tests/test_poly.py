from fractions import Fraction

import pytest

from conftest import compiled_poly, reference_serialize
from hamfam.cyclo import CycloRat, ZETA
from hamfam.hamiltonian import make_system
from hamfam.poly import LaurentError, LaurentPoly, VarTable
from hamfam.symmetry import certificate_battery

TBL = VarTable(("q", "p", "t", "a"))


def v(name, exp=1, coeff=1):
    return LaurentPoly.var(TBL, name, exp, coeff)


def const(c):
    return LaurentPoly.const(TBL, c)


class TestAdd:
    def test_cancellation(self):
        assert (v("q") + const(1)) + (-v("q")) == const(1)

    def test_identity(self):
        P = v("q", 2) * v("p") + const(3)
        assert LaurentPoly.zero(TBL) + P == P

    def test_cyclo_coefficients(self):
        got = v("q", coeff=ZETA) + v("q", coeff=ZETA ** 3)
        assert got == v("q", coeff=CycloRat(0, 1, 0, 1))

    def test_table_mismatch(self):
        other = LaurentPoly.var(VarTable(("q", "p")), "q")
        with pytest.raises(LaurentError):
            v("q") + other


class TestMul:
    def test_laurent_inverse_monomial(self):
        assert v("q", 5) * v("q", -5) == const(1)

    def test_zeta_reduction(self):
        assert const(ZETA) * const(ZETA ** 3) == const(-1)

    def test_distribution_matches_family_hamiltonian(self):
        inner = v("q", 5) * v("p") + v("a") * v("q", 4) + v("q", 3) + const(2)
        product = inner * v("p")
        assert product == (v("q", 5) * v("p", 2) + v("a") * v("q", 4) * v("p")
                           + v("q", 3) * v("p") + v("p", 2 - 1) * 2)

    def test_no_degree_cap(self):
        # general:32 has terms of total degree 65; the family is certified
        # for every n >= 2
        entries = certificate_battery(make_system("general", 32))
        assert [e["status"] for e in entries] == ["PASS"] * 5


class TestDiff:
    def test_power_rule(self):
        assert (v("q", 5) * v("p", 2)).diff("p") == v("q", 5) * v("p") * 2

    def test_laurent_power_rule(self):
        assert v("q", -1).diff("q") == v("q", -2, coeff=-1)

    def test_independent_variable(self):
        assert (v("a") * v("p")).diff("q").is_zero()

    def test_leibniz_specific(self):
        a = v("q", 2) + v("p")
        b = v("q", -1) * v("t")
        lhs = (a * b).diff("q")
        rhs = a.diff("q") * b + a * b.diff("q")
        assert lhs == rhs


class TestSubstitute:
    def test_empty_binding(self):
        P = v("q", -2) * v("p") + const(5)
        assert P.substitute({}) == P

    def test_unit_monomial_scaling(self):
        got = v("q", 2).substitute({"q": v("q", coeff=-ZETA)})
        assert got == v("q", 2, coeff=ZETA ** 2)

    def test_polynomial_binding_for_p(self):
        shear = v("p") + v("a") * v("q", -1)
        got = (v("q") * v("p")).substitute({"p": shear})
        assert got == v("q") * v("p") + v("a")

    def test_negative_exponent_needs_monomial(self):
        P = v("q", -1)
        with pytest.raises(LaurentError):
            P.substitute({"q": v("q") + const(1)})

    def test_simultaneous(self):
        P = v("q") * v("p")
        got = P.substitute({"q": v("p"), "p": v("q")})
        assert got == P


class TestEvalNumeric:
    def test_plain(self):
        P = v("q", 5) * v("p", 2)
        assert compiled_poly(P, {})(1, 1, 0) == 1 + 0j

    def test_zeta_constant(self):
        got = compiled_poly(const(ZETA), {})(0, 0, 0)
        root2 = 2 ** 0.5 / 2
        assert abs(got - complex(root2, root2)) < 1e-15

    def test_against_naive_oracle(self, rng):
        # independent route: monomial-by-monomial products
        P = _random_poly(rng)
        pt = {n: complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
              for n in TBL.names}
        naive = 0j
        for exps, c in P.terms.items():
            term = complex(c)
            for name, e in zip(TBL.names, exps):
                term *= pt[name] ** e
            naive += term
        got = compiled_poly(P, {"a": pt["a"]})(pt["q"], pt["p"], pt["t"])
        assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))

    def test_unbound_variable(self):
        with pytest.raises(ValueError, match="unbound parameter 'a'"):
            compiled_poly(v("q") * v("a"), {})

    def test_laurent_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            compiled_poly(v("q", -2), {})(0j, 0j, 0j)


class TestInvariants:
    def test_no_negative_exponents_outside_q(self):
        with pytest.raises(LaurentError):
            LaurentPoly.var(TBL, "p", -1)
        with pytest.raises(LaurentError):
            LaurentPoly(TBL, {(0, -1, 0, 0): 1})

    def test_wrong_length_exponents(self):
        with pytest.raises(LaurentError):
            LaurentPoly(TBL, {(1, 0, 0): 1})

    @pytest.mark.parametrize("e", [0.5, 1.0, Fraction(1, 2), True, "1"])
    def test_constructor_rejects_non_int_exponents(self, e):
        with pytest.raises(LaurentError, match="is not an int"):
            LaurentPoly(TBL, {(e, 0, 0, 0): 1})

    @pytest.mark.parametrize("e", [0.5, -1.0, Fraction(3, 2)])
    def test_var_rejects_non_int_exponents(self, e):
        with pytest.raises(LaurentError, match="is not an int"):
            LaurentPoly.var(TBL, "q", e)

    @pytest.mark.parametrize("c", [0.1, "1/3", 1 + 2j],
                             ids=["float", "str", "complex"])
    def test_rejects_non_rational_coefficients(self, c):
        for build in (lambda: LaurentPoly(TBL, {(1, 0, 0, 0): c}),
                      lambda: LaurentPoly.const(TBL, c),
                      lambda: LaurentPoly.var(TBL, "q", coeff=c)):
            with pytest.raises(TypeError, match="int or Fraction"):
                build()

    def test_unit_inverse_checks_exponents(self):
        # the only ring operation that negates exponents
        with pytest.raises(LaurentError):
            v("p") ** -1

    def test_zero_is_empty(self):
        assert (v("q") - v("q")).terms == {}

    def test_structural_equality(self):
        a = v("q") * v("p") + const(Fraction(1, 2))
        b = const(Fraction(1, 2)) + v("p") * v("q")
        assert a == b and hash(a) == hash(b)


class TestPackedKeys:
    def test_serialize_sorts_decoded_tuples(self, rng):
        for _ in range(50):
            P = _random_poly(rng, nterms=rng.randint(0, 8)) \
                * _random_poly(rng, nterms=3)
            assert P.serialize() == reference_serialize(P)

    def test_unit_inverse_of_non_q_monomial_raises(self):
        with pytest.raises(LaurentError, match="negative exponent of 'a'"):
            (v("q", 2) * v("a")).unit_inverse()
        assert v("q", 2, coeff=4).unit_inverse() \
            == v("q", -2, coeff=Fraction(1, 4))


class TestRangeGuard:
    # keys hold each exponent as a signed digit, so every |exponent| stays
    # below 2^62; a result that could leave the range raises, never wraps
    def test_constructor(self):
        with pytest.raises(LaurentError, match="outside"):
            v("q", 2 ** 62)
        with pytest.raises(LaurentError, match="outside"):
            v("q", -2 ** 62)
        assert v("q", 2 ** 62 - 1).terms == {(2 ** 62 - 1, 0, 0, 0): 1}

    def test_product(self):
        with pytest.raises(LaurentError, match="outside"):
            v("q", 2 ** 61) * v("q", 2 ** 61)

    def test_power(self):
        with pytest.raises(LaurentError, match="outside"):
            v("q") ** 2 ** 62

    def test_largest_exponents_keep_their_order(self):
        top, bottom = 2 ** 62 - 1, -(2 ** 62 - 1)
        P = LaurentPoly(TBL, {(bottom, 0, 0, 0): 1, (top, 0, 0, 0): 2,
                              (0, top, 0, top): 3, (0, 0, 0, 1): 4})
        assert P.serialize() == reference_serialize(P)
        assert set(P.terms) == {(bottom, 0, 0, 0), (top, 0, 0, 0),
                                (0, top, 0, top), (0, 0, 0, 1)}


class TestSerialize:
    def test_golden_forms(self):
        assert LaurentPoly.zero(TBL).serialize() == "0"
        P = v("q", 5) * v("p", 2) + v("q", -1, coeff=Fraction(5, 2)) \
            + const(ZETA ** 3) * v("t")
        assert P.serialize() == "1*q^5*p^2 + (z^3)*t + 5/2*q^-1"

    def test_roundtrip_stability(self):
        P = v("a") * v("q", 4) * v("p") + v("p", 2)
        assert P.serialize() == (v("p", 2) + v("a") * v("q", 4) * v("p")).serialize()


def _random_poly(rng, nterms=6):
    terms = {}
    for _ in range(nterms):
        exps = (rng.randint(-3, 3), rng.randint(0, 3),
                rng.randint(0, 2), rng.randint(0, 2))
        terms[exps] = CycloRat(rng.randint(-5, 5), rng.randint(-2, 2),
                               rng.randint(-2, 2), rng.randint(-2, 2))
    return LaurentPoly(TBL, terms)

