import cmath
from fractions import Fraction

import pytest

from hamfam.cyclo import CycloRat, IMAG, ONE, ZERO, ZETA, fourth_root_of_minus_one


def test_zeta_powers():
    assert ZETA ** 4 == CycloRat(-1)
    assert ZETA ** 8 == ONE
    assert IMAG == ZETA ** 2
    assert IMAG * IMAG == CycloRat(-1)


def test_reduction_keeps_degree_below_four():
    x = ZETA ** 3 * ZETA ** 3  # z^6 = -z^2
    assert x == CycloRat(0, 0, -1, 0)


def test_add_sub():
    a = CycloRat(1, 2, 3, 4)
    b = CycloRat(Fraction(1, 2), -2, 0, 1)
    assert a + b == CycloRat(Fraction(3, 2), 0, 3, 5)
    assert a - b == CycloRat(Fraction(1, 2), 4, 3, 3)
    assert a + ZERO == a


def test_zeta_plus_zeta_cubed():
    # z + z^3 = i*sqrt(2), kept exact
    s = ZETA + ZETA ** 3
    assert s == CycloRat(0, 1, 0, 1)
    assert abs(complex(s) - 1j * 2 ** 0.5) < 1e-15


def test_mul_zeta_zeta3():
    assert ZETA * ZETA ** 3 == CycloRat(-1)


def test_inverse():
    for x in (ZETA, IMAG, CycloRat(2, -3, Fraction(1, 7), 5), CycloRat(-4)):
        assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_and_pow():
    x = CycloRat(1, 1)
    assert (x / x) == ONE
    assert ZETA ** -1 == ZETA ** 7
    assert ZETA ** -3 == ZETA ** 5


def test_numeric_embedding():
    z = complex(ZETA)
    assert abs(z - cmath.exp(1j * cmath.pi / 4)) < 1e-15
    assert abs(complex(IMAG) - 1j) < 1e-15


def test_branches():
    for k in (1, 3, 5, 7):
        r = fourth_root_of_minus_one(k)
        assert r ** 4 == CycloRat(-1)
    with pytest.raises(ValueError):
        fourth_root_of_minus_one(2)


def test_rational_predicates():
    assert CycloRat(Fraction(3, 4)).is_rational()
    assert CycloRat(Fraction(3, 4)).rational == Fraction(3, 4)
    assert not ZETA.is_rational()
    with pytest.raises(ValueError):
        _ = ZETA.rational


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(CycloRat(1, -1)) == "1-z"
    assert str(CycloRat(0, 0, Fraction(1, 2))) == "1/2*z^2"


NOT_RATIONAL = [0.1, "1/3", 1 + 2j]


@pytest.mark.parametrize("c", NOT_RATIONAL, ids=["float", "str", "complex"])
@pytest.mark.parametrize("slot", range(4))
def test_rejects_non_rational_coefficients(c, slot):
    cs = [0, 0, 0, 0]
    cs[slot] = c
    with pytest.raises(TypeError, match="int or Fraction"):
        CycloRat(*cs)


def test_accepts_what_coerce_accepts():
    assert CycloRat(True) == ONE  # bool is an int, as in _coerce
    assert CycloRat(Fraction(1, 3), 2).n == (1, 6, 0, 0)
