"""Exact arithmetic in the cyclotomic field Q(z), z a primitive 8th root of unity.

An element is (n0 + n1*z + n2*z^2 + n3*z^3) / d with four Python int
numerators over one int denominator, the reduction z^4 = -1 always applied.
The form is normal: d > 0 and gcd(n0, n1, n2, n3, d) = 1, so equal elements
have equal numerators and denominators.  The ring and field operations
(+, -, *, Galois automorphisms, inverse) work on ints only; ``Fraction``
appears only at the boundary: the constructor's rational inputs, the
``rational`` property and ``str``.  The field contains i = z^2 and the fourth
roots of -1: the principal one is z = exp(i*pi/4), its odd powers give the
other branches.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd
from typing import Union

Rational = Union[int, Fraction]

_Z = cmath.exp(1j * cmath.pi / 4)
_Z2 = _Z ** 2
_Z3 = _Z ** 3


def _normal(n0: int, n1: int, n2: int, n3: int, d: int) -> "CycloRat":
    """The element (n0..n3)/d for d > 0, in normal form."""
    g = gcd(n0, n1, n2, n3, d)
    if g != 1:
        n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    new = object.__new__(CycloRat)
    new.n = (n0, n1, n2, n3)
    new.d = d
    return new


class CycloRat:
    """An element of Q(z) with z^4 = -1, i.e. (n0 + n1*z + n2*z^2 + n3*z^3)/d."""

    __slots__ = ("n", "d")

    def __init__(self, c0: Rational = 0, c1: Rational = 0,
                 c2: Rational = 0, c3: Rational = 0):
        cs = (c0, c1, c2, c3)
        if all(type(c) is int for c in cs):
            self.n, self.d = cs, 1
            return
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"CycloRat takes int or Fraction, not "
                                f"{type(c).__name__}")
        fs = [Fraction(c) for c in cs]
        d = 1
        for f in fs:
            d = d * f.denominator // gcd(d, f.denominator)
        # d is the lcm of the reduced denominators, so the form is normal
        self.n = tuple(f.numerator * (d // f.denominator) for f in fs)
        self.d = d

    @staticmethod
    def _coerce(x) -> "CycloRat":
        return x if isinstance(x, CycloRat) else CycloRat(x)

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = o.n
        da, db = self.d, o.d
        return _normal(a0 * db + b0 * da, a1 * db + b1 * da,
                       a2 * db + b2 * da, a3 * db + b3 * da, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        a0, a1, a2, a3 = self.n
        return _normal(-a0, -a1, -a2, -a3, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = o.n
        # the 16-product convolution, reduced with z^4 = -1
        return _normal(a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                       a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                       a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                       a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
                       self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "CycloRat":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- field structure -----------------------------------------------

    def galois(self, k: int) -> "CycloRat":
        """Apply the automorphism z -> z^k (k odd)."""
        if k % 2 == 0:
            raise ValueError("Galois automorphisms of Q(z8) need odd k")
        # z^i -> z^(i*k mod 8) permutes the numerators up to sign
        acc = [0] * 4
        for i, a in enumerate(self.n):
            m = (i * k) % 8
            if m >= 4:
                acc[m - 4] = -a
            else:
                acc[m] = a
        return _normal(*acc, self.d)

    def inverse(self) -> "CycloRat":
        n, d = self.n, self.d
        nonzero = [i for i, a in enumerate(n) if a]
        if not nonzero:
            raise ZeroDivisionError("inverse of zero in Q(z8)")
        if len(nonzero) == 1:
            # u/d inverts to d/u, and u*z^i/d (i > 0) to (d/u)*z^-i, where
            # z^-i = -z^(4-i); gcd(u, d) = 1 in normal form, so only the sign
            # of u moves to the numerator
            i, = nonzero
            u = n[i]
            c = d if u > 0 else -d
            out = [0, 0, 0, 0]
            if i:
                out[4 - i] = -c
            else:
                out[0] = c
            return _normal(*out, abs(u))
        # for the integer numerator a, the product of its nontrivial Galois
        # conjugates gives a * conj = N, the field norm: an integer, and
        # positive, being |a|^2 * |galois(a, 3)|^2 under z -> exp(i*pi/4);
        # then (a/d)^-1 = d * conj / N
        num = _normal(*n, 1)
        conj = num.galois(3) * num.galois(5) * num.galois(7)
        norm = (num * conj).n
        assert norm[0] > 0 and norm[1] == 0 and norm[2] == 0 and norm[3] == 0
        return _normal(*(d * c for c in conj.n), norm[0])

    # -- predicates & conversions ---------------------------------------

    def is_zero(self) -> bool:
        return self.n == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        n = self.n
        return not (n[1] or n[2] or n[3])

    @property
    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.n[0], self.d)

    def __complex__(self) -> complex:
        # int / int is correctly rounded, exactly as float(Fraction) is
        n0, n1, n2, n3 = self.n
        d = self.d
        return complex(n0 / d) + complex(n1 / d) * _Z \
            + complex(n2 / d) * _Z2 + complex(n3 / d) * _Z3

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycloRat)):
            o = self._coerce(other)
            return self.n == o.n and self.d == o.d
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self) -> str:
        parts = []
        for i, n in enumerate(self.n):
            if not n:
                continue
            a = Fraction(n, self.d)
            if i == 0:
                parts.append(str(a))
            else:
                sym = "z" if i == 1 else f"z^{i}"
                mag = abs(a)
                head = sym if mag == 1 else f"{mag}*{sym}"
                if not parts:
                    parts.append(head if a > 0 else "-" + head)
                else:
                    parts.append(("+" if a > 0 else "-") + head)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycloRat({self})"


ZERO = CycloRat(0)
ONE = CycloRat(1)
ZETA = CycloRat(0, 1)   # exp(i*pi/4); the principal fourth root of -1
IMAG = CycloRat(0, 0, 1)  # i = z^2


def fourth_root_of_minus_one(branch: int = 1) -> CycloRat:
    """Return z^branch for odd branch; each odd power is a 4th root of -1."""
    if branch % 2 == 0:
        raise ValueError("branch must be odd so that the root satisfies x^4 = -1")
    return ZETA ** (branch % 8)
