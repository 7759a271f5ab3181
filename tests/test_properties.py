"""Property-based checks of the algebra kernel: CycloRat against a Fraction
reference, ring axioms, Leibniz rule, substitution round-trips through the
symmetry maps, and the evaluation homomorphism."""

import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import compiled_poly, norm_route_inverse, reference_serialize
from hamfam.cyclo import CycloRat, ONE, ZETA
from hamfam.poly import LaurentPoly, VarTable

TBL = VarTable(("q", "p", "t"))

rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                         max_denominator=6)
cyclos = st.builds(CycloRat, rationals, rationals, rationals, rationals)


# -- reference: Q(z8) as 4-tuples of Fractions, z^4 = -1 ---------------------

def ref_mul(a, b):
    acc = [Fraction(0)] * 4
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            if k >= 4:
                acc[k - 4] -= x * y
            else:
                acc[k] += x * y
    return tuple(acc)


def ref_galois(a, k):
    acc = [Fraction(0)] * 4
    for i, x in enumerate(a):
        m = (i * k) % 8
        if m >= 4:
            acc[m - 4] -= x
        else:
            acc[m] += x
    return tuple(acc)


def ref_inverse(a):
    conj = ref_mul(ref_mul(ref_galois(a, 3), ref_galois(a, 5)),
                   ref_galois(a, 7))
    norm = ref_mul(a, conj)
    assert norm[1:] == (0, 0, 0)
    return tuple(c / norm[0] for c in conj)


def ref_str(a):
    parts = []
    for i, x in enumerate(a):
        if not x:
            continue
        if i == 0:
            parts.append(str(x))
        else:
            sym = "z" if i == 1 else f"z^{i}"
            head = sym if abs(x) == 1 else f"{abs(x)}*{sym}"
            if not parts:
                parts.append(head if x > 0 else "-" + head)
            else:
                parts.append(("+" if x > 0 else "-") + head)
    return "".join(parts) if parts else "0"


def ref_complex(a):
    z = cmath.exp(1j * cmath.pi / 4)
    return complex(a[0]) + complex(a[1]) * z \
        + complex(a[2]) * z ** 2 + complex(a[3]) * z ** 3


def as_fractions(x):
    return tuple(Fraction(n, x.d) for n in x.n)


def bits(z):
    return z.real.hex(), z.imag.hex()


wide = st.one_of(st.integers(-10 ** 9, 10 ** 9),
                 st.fractions(min_value=-1000, max_value=1000,
                              max_denominator=10 ** 6))
wide4 = st.tuples(wide, wide, wide, wide)


def assert_normal(x):
    assert x.d > 0 and gcd(*x.n, x.d) == 1


@settings(max_examples=300)
@given(wide4, wide4, st.sampled_from((1, 3, 5, 7)))
def test_cyclo_matches_fraction_reference(ca, cb, k):
    a, b = CycloRat(*ca), CycloRat(*cb)
    ra, rb = tuple(map(Fraction, ca)), tuple(map(Fraction, cb))
    results = {"a": (a, ra),
               "+": (a + b, tuple(x + y for x, y in zip(ra, rb))),
               "-": (a - b, tuple(x - y for x, y in zip(ra, rb))),
               "neg": (-a, tuple(-x for x in ra)),
               "*": (a * b, ref_mul(ra, rb)),
               "galois": (a.galois(k), ref_galois(ra, k))}
    if any(ra):
        results["inverse"] = (a.inverse(), ref_inverse(ra))
    for label, (x, r) in results.items():
        assert as_fractions(x) == r, label
        assert_normal(x)
        assert str(x) == ref_str(r), label
        assert bits(complex(x)) == bits(ref_complex(r)), label
        assert x.is_zero() == (not any(r))
    assert (a == b) == (ra == rb)
    assert (a == ra[0]) == (ra[1:] == (0, 0, 0))
    # equal values built along different paths: equal forms, equal hashes
    for x, y in (((a + b) - b, a), (a * b, b * a), (a.galois(k).galois(k), a)):
        assert x == y and hash(x) == hash(y) and x.n == y.n and x.d == y.d


MIXED_OPS = {"a + x": lambda a, x: a + x, "x + a": lambda a, x: x + a,
             "a - x": lambda a, x: a - x, "x - a": lambda a, x: x - a,
             "a * x": lambda a, x: a * x, "x * a": lambda a, x: x * a,
             "a / x": lambda a, x: a / x, "x / a": lambda a, x: x / a}


@settings(max_examples=200)
@given(st.builds(CycloRat, wide, wide, wide, wide), wide,
       st.floats(allow_nan=False))
@example(ONE, 0, 0.5)
@example(ZETA, Fraction(-1, 3), 1.0)
def test_cyclo_mixed_operands(a, x, f):
    """An int or Fraction operand on either side acts as CycloRat(x) does;
    a float on either side is refused by the constructor's check."""
    for label, op in MIXED_OPS.items():
        if (label == "a / x" and not x) or (label == "x / a" and not a):
            continue
        got = op(a, x)
        want = op(a, CycloRat(x))
        assert type(got) is CycloRat, label
        assert (got.n, got.d) == (want.n, want.d), label
        assert_normal(got)
        with pytest.raises(TypeError, match="int or Fraction"):
            op(a, f)


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


@st.composite
def invertibles(draw):
    """A nonzero element: a rational, +-u*z^i/d for i = 0..3, or any."""
    kind = draw(st.sampled_from(("rational", "monomial", "general")))
    if kind == "general":
        return CycloRat(*draw(wide4.filter(any)))
    cs = [0, 0, 0, 0]
    cs[draw(st.integers(0, 3)) if kind == "monomial" else 0] = \
        draw(wide.filter(bool))
    return CycloRat(*cs)


@settings(max_examples=400)
@given(invertibles())
@example(ONE)
@example(CycloRat(-1))
@example(ZETA)
@example(-ZETA ** 2)
@example(ZETA ** 3)
@example(CycloRat(0, 0, 0, Fraction(-7, 3)))
def test_cyclo_inverse_matches_norm_route(x):
    inv = x.inverse()
    ref = norm_route_inverse(x)
    assert (inv.n, inv.d) == (ref.n, ref.d)
    assert_normal(inv)
    assert x * inv == ONE and inv * x == ONE


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
        # the exponent bound that the range guard reads covers every term
        assert all(abs(e) <= r._bound for exps in r.terms for e in exps)


def exponent_tuples(limit):
    """(q, p, t) exponents up to ``limit`` in magnitude; only q negative."""
    return st.tuples(st.integers(-limit, limit), st.integers(0, limit),
                     st.integers(0, limit))


@settings(max_examples=200)
@given(st.dictionaries(exponent_tuples(2 ** 62 - 1), cyclos, max_size=6))
def test_terms_roundtrip_through_keys(terms):
    nonzero = {e: c for e, c in terms.items() if not c.is_zero()}
    P = LaurentPoly(TBL, terms)
    assert P.terms == nonzero and list(P.terms) == list(nonzero)
    # keys sort as their exponent tuples do
    assert P.serialize() == reference_serialize(P)


@settings(max_examples=100)
@given(exponent_tuples(2 ** 61 - 1), exponent_tuples(2 ** 61 - 1))
def test_monomial_product_adds_exponents(e1, e2):
    a, b = LaurentPoly(TBL, {e1: 1}), LaurentPoly(TBL, {e2: ZETA})
    assert (a * b).terms == {tuple(x + y for x, y in zip(e1, e2)): ZETA}


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
    at = lambda poly: compiled_poly(poly, {})(pt["q"], pt["p"], pt["t"])
    va, vb, vab = at(a), at(b), at(a * b)
    assert abs(vab - va * vb) <= 1e-12 * max(1.0, abs(va * vb))
