"""Property-based checks of the algebra kernel: ring axioms, Leibniz rule,
substitution round-trips through the symmetry maps, and the evaluation
homomorphism."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hamfam.cyclo import CycloRat, ONE, ZETA
from hamfam.poly import LaurentPoly, VarTable

TBL = VarTable(("q", "p", "t"))

rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                         max_denominator=6)
cyclos = st.builds(CycloRat, rationals, rationals, rationals, rationals)


@st.composite
def polys(draw, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = (draw(st.integers(-3, 3)), draw(st.integers(0, 3)),
                draw(st.integers(0, 2)))
        terms[exps] = draw(cyclos)
    return LaurentPoly(TBL, terms)


@given(cyclos, cyclos, cyclos)
def test_cyclo_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(cyclos)
def test_cyclo_field_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE


def test_cyclo_root_identities():
    assert ZETA ** 8 == ONE
    assert ZETA ** 4 == CycloRat(-1)
    assert (ZETA ** 2) ** 2 == CycloRat(-1)


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(polys(), polys(), st.sampled_from(("q", "p", "t")))
def test_leibniz(a, b, var):
    assert (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)


@settings(max_examples=60)
@given(polys(), polys(), cyclos, st.sampled_from(("q", "p", "t")))
def test_ring_results_are_canonical(a, b, c, var):
    # ring results skip the constructor's checks, so each must already be
    # what the checked constructor builds from its terms, in the same order
    inversion = LaurentPoly.var(TBL, "q", -1, coeff=-ZETA)
    results = [a + b, a - b, -a, a * b, a * c, a.diff(var),
               a.substitute({"q": inversion}), a.substitute({"p": b}),
               *a.collect(var).values()]
    for r in results:
        assert not any(k.is_zero() for k in r.terms.values())
        rebuilt = LaurentPoly(TBL, r.terms)
        assert rebuilt == r and list(rebuilt.terms) == list(r.terms)


@settings(max_examples=40)
@given(polys())
def test_shear_substitution_roundtrip(a):
    # forward/inverse pair of a representative birational shear in p
    shear = LaurentPoly.var(TBL, "p") + LaurentPoly.var(TBL, "q", -2)
    unshear = LaurentPoly.var(TBL, "p") - LaurentPoly.var(TBL, "q", -2)
    assert a.substitute({"p": shear}).substitute({"p": unshear}) == a


@settings(max_examples=40)
@given(polys())
def test_scaling_substitution_roundtrip(a):
    fwd = LaurentPoly.var(TBL, "q", coeff=-ZETA)
    back = LaurentPoly.var(TBL, "q", coeff=(-ZETA).inverse())
    assert a.substitute({"q": fwd}).substitute({"q": back}) == a


@settings(max_examples=40)
@given(polys(max_terms=4), polys(max_terms=4), st.integers(0, 10 ** 6))
def test_eval_is_multiplicative(a, b, seed):
    import random
    r = random.Random(seed)
    pt = {n: complex(r.uniform(0.5, 1.5), r.uniform(-0.5, 0.5))
          for n in TBL.names}
    va, vb = a.eval_numeric(pt), b.eval_numeric(pt)
    vab = (a * b).eval_numeric(pt)
    assert abs(vab - va * vb) <= 1e-12 * max(1.0, abs(va * vb))
