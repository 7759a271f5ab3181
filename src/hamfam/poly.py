"""Sparse multivariate Laurent polynomials over Q(z8).

A polynomial is a dict of nonzero int numerators over one int denominator
den > 0, with gcd(den, every numerator) = 1, so equal polynomials have equal
dicts and denominators.  A key packs the exponents over a fixed table of k
names and the power j = 0..3 of z as signed digits of W = ``_WIDTH`` bits:
sum(e_i * 2^(W*(k-i))) + j, the first name most significant and z lowest
(Kronecker substitution).  Keys add under products, and a z-digit reaching
4 drops by 4 and negates the numerator (z^4 = -1); keys order as (exponent
tuple, j) does.  A key decodes while every digit lies inside +-2^(W-1): each
polynomial bounds its |exponent|s, and a result whose bound reaches
``_LIMIT`` = 2^(W-2) raises ``LaurentError`` instead of wrapping.

``CycloRat`` is the scalar type at the boundary only: the constructor,
``var`` and ``const`` take it, and ``terms`` and ``coefficient`` return one
per monomial.  The certificates never put two powers of z on one monomial,
so each monomial is one entry and keys sit in ``terms`` in the order the
ring's loops first made them.  Int values make few objects the garbage
collector tracks, so full collections become rare; CPython empties its tuple
free lists only at a full collection, so the hot paths make no tuple per
term or per call, which would pile up there.

Only q may carry negative exponents; every transformation in this package
divides only by powers of q.  Terms are checked (int exponents inside the
range, the tuple length, negative exponents only in q) where they enter from
outside (the constructor, ``var``, ``const``) and where ``unit_inverse``
negates exponents; every other ring result is built from checked terms and is
taken as it is.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from .cyclo import CycloRat, ZERO, _normal

Coeff = Union[int, Fraction, CycloRat]

_WIDTH = 64                      # bits per exponent digit of a key
_HALF = 1 << (_WIDTH - 1)
_MASK = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 2)       # every |exponent| stays below this
_MONO = -4                       # key & _MONO clears the z-digit

_tables: dict[tuple, "VarTable"] = {}


class LaurentError(ValueError):
    """Illegal negative exponent or impossible substitution/division."""


class VarTable:
    """Ordered variable names, and the packing of exponent tuples over
    them.  Tables are interned: equal names give the same table."""

    __slots__ = ("names", "_index", "_shifts", "_places", "_offset")

    def __new__(cls, names: Iterable[str]):
        names = tuple(names)
        table = _tables.get(names)
        if table is not None:
            return table
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        table = object.__new__(cls)
        table.names = names
        table._index = {n: i for i, n in enumerate(names)}
        k = len(names)
        # digit 0, the lowest, holds the power of z
        table._shifts = tuple(_WIDTH * (k - i) for i in range(k))
        table._places = tuple(1 << s for s in table._shifts)
        # adding it makes every digit of a key non-negative
        table._offset = _HALF * sum(table._places)
        return _tables.setdefault(names, table)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}; table has {self.names}") from None

    def _digit(self, key: int, i: int) -> int:
        return (((key + self._offset) >> self._shifts[i]) & _MASK) - _HALF

    def _unpack(self, key: int) -> tuple:
        u = key + self._offset
        return tuple(((u >> s) & _MASK) - _HALF for s in self._shifts)

    def __reduce__(self):
        return VarTable, (self.names,)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self):
        return f"VarTable{self.names}"


def _accumulate_product(terms: dict, shift: int, coeff: int,
                        other: dict) -> None:
    """Add coeff * x^shift * other into ``terms`` in place, in the order of
    ``other``, and drop every term that cancels.  A sum updates its key where
    it stands; a key that cancels and comes back is appended at the end."""
    get = terms.get
    for key, c in other.items():
        key += shift
        if key & 4:     # z^4 = -1
            key -= 4
            c = -coeff * c
        else:
            c = coeff * c
        s = get(key)
        if s is not None:
            c += s
            if not c:
                del terms[key]
                continue
        terms[key] = c


def _checked(name: str, e: int) -> int:
    """An exponent of ``name`` from outside: an int inside the range, and
    negative only for q."""
    if type(e) is not int:
        raise LaurentError(f"exponent {e!r} of {name!r} is not an int")
    if e < 0 and name != "q":
        raise LaurentError(f"negative exponent of {name!r} is not allowed")
    if abs(e) >= _LIMIT:
        raise LaurentError(f"exponent of magnitude {abs(e)} is outside "
                           f"+-2^{_WIDTH - 2}")
    return e


def _check_bound(bound: int) -> None:
    if bound >= _LIMIT:
        raise LaurentError(f"an exponent may reach {bound}, outside "
                           f"+-2^{_WIDTH - 2}")


class LaurentPoly:
    """Immutable sparse polynomial: int numerators by packed key over one
    denominator."""

    __slots__ = ("table", "_terms", "_den", "_bound")

    def __init__(self, table: VarTable, terms: Mapping[tuple, CycloRat] | None = None):
        coeffs = {}
        bound = 0
        for exps, coeff in (terms or {}).items():
            coeff = CycloRat._coerce(coeff)
            if coeff.is_zero():
                continue
            if len(exps) != len(table):
                raise LaurentError(f"exponent tuple of length "
                                   f"{len(exps)} for {table}")
            key = 0
            for name, e, place in zip(table.names, exps, table._places):
                key += _checked(name, e) * place
                bound = max(bound, abs(e))
            coeffs[key] = coeff
        # normal-form coefficients over the lcm of their denominators share
        # no factor with it
        den = lcm(*(c.d for c in coeffs.values()))
        self.table = table
        self._terms = {key + j: n * (den // c.d) for key, c in coeffs.items()
                       for j, n in enumerate(c.n) if n}
        self._den = den
        self._bound = bound

    @classmethod
    def _trusted(cls, table: VarTable, terms: dict, den: int,
                 bound: int) -> "LaurentPoly":
        """Wrap a dict of keys and nonzero int numerators over ``den`` > 0
        without copying it, after dividing out the common factor of ``den``
        and the numerators; ``bound`` bounds every |exponent| and is the one
        thing checked."""
        _check_bound(bound)
        if den != 1:
            g = den
            for n in terms.values():
                g = gcd(g, n)
                if g == 1:
                    break
            else:
                terms = {key: n // g for key, n in terms.items()}
                den //= g
        new = object.__new__(cls)
        new.table = table
        new._terms = terms
        new._den = den
        new._bound = bound
        return new

    @classmethod
    def _monomial(cls, table: VarTable, key: int, c: CycloRat,
                  bound: int) -> "LaurentPoly":
        """c * x^key for a key with a zero z-digit."""
        terms = {key + j: n for j, n in enumerate(c.n) if n}
        return cls._trusted(table, terms, c.d, bound)

    def _coefficients(self) -> dict[int, CycloRat]:
        """{key without its z-digit: coefficient}, in first-appearance
        order."""
        nums: dict[int, list] = {}
        for key, n in self._terms.items():
            nums.setdefault(key & _MONO, [0, 0, 0, 0])[key & 3] = n
        den = self._den
        return {mono: _normal(*ns, den) for mono, ns in nums.items()}

    @property
    def terms(self) -> dict[tuple, CycloRat]:
        """{exponent tuple: coefficient}, decoded into a fresh dict in
        insertion order."""
        unpack = self.table._unpack
        return {unpack(mono): c for mono, c in self._coefficients().items()}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls._trusted(table, {}, 1, 0)

    @classmethod
    def const(cls, table: VarTable, c: Coeff) -> "LaurentPoly":
        return cls._monomial(table, 0, CycloRat._coerce(c), 0)

    @classmethod
    def var(cls, table: VarTable, name: str, exp: int = 1,
            coeff: Coeff = 1) -> "LaurentPoly":
        place = table._places[table.index(name)]
        c = CycloRat._coerce(coeff)
        if c.is_zero():
            return cls.zero(table)
        return cls._monomial(table, _checked(name, exp) * place, c, abs(exp))

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.table is not self.table:
                raise LaurentError("variable-table mismatch")
            return other
        if isinstance(other, (int, Fraction, CycloRat)):
            return LaurentPoly.const(self.table, other)
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        den = lcm(self._den, o._den)
        scale = den // self._den
        terms = dict(self._terms) if scale == 1 else \
            {key: n * scale for key, n in self._terms.items()}
        _accumulate_product(terms, 0, den // o._den, o._terms)
        return LaurentPoly._trusted(self.table, terms, den,
                                    max(self._bound, o._bound))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return LaurentPoly._trusted(
            self.table, {key: -n for key, n in self._terms.items()},
            self._den, self._bound)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self._terms, o._terms
        terms = {}
        # a product by a single term shifts the keys: nothing collides, and
        # no product of nonzero ints vanishes
        if len(b) == 1:
            (k2, c2), = b.items()
            _accumulate_product(terms, k2, c2, a)
        else:
            for k1, c1 in a.items():
                _accumulate_product(terms, k1, c1, b)
        return LaurentPoly._trusted(self.table, terms, self._den * o._den,
                                    self._bound + o._bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        """The n-th power; a negative n inverts a monomial first.

        The exponent range is checked before any product is formed: n times
        the base's exponent bound must stay inside it, as the bound of the
        power is exactly that.  A single term c*z^j*x^e goes straight to
        c^n*z^(j*n)*x^(n*e); any other base is raised by repeated
        squaring."""
        if n < 0:
            return self.unit_inverse() ** (-n)
        if n == 0:
            return LaurentPoly.const(self.table, 1)
        bound = self._bound * n
        _check_bound(bound)
        if len(self._terms) == 1:
            (key, c), = self._terms.items()
            wraps = (key & 3) * n >> 2       # times z^4 = -1 is crossed
            c **= n
            return LaurentPoly._trusted(
                self.table, {key * n - 4 * wraps: -c if wraps & 1 else c},
                self._den ** n, bound)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a single invertible monomial; anything else raises."""
        if len(self) != 1:
            raise LaurentError("division requires a single-term monomial")
        tbl = self.table
        mono = next(iter(self._terms)) & _MONO
        i = tbl._index.get("q")
        rest = mono if i is None else mono - tbl._digit(mono, i) * tbl._places[i]
        if rest:
            name = next(n for n, e in zip(tbl.names, tbl._unpack(rest)) if e)
            raise LaurentError(f"negative exponent of {name!r} is not allowed")
        return LaurentPoly._monomial(
            tbl, -mono, self._coefficients()[mono].inverse(), self._bound)

    # -- calculus ---------------------------------------------------------

    def diff(self, name: str) -> "LaurentPoly":
        """Formal partial derivative; d(x^k)/dx = k*x^(k-1) for any integer k."""
        tbl = self.table
        i = tbl.index(name)
        offset, shift, place = tbl._offset, tbl._shifts[i], tbl._places[i]
        terms = {}
        for key, c in self._terms.items():
            e = (((key + offset) >> shift) & _MASK) - _HALF
            if e:
                terms[key - place] = c * e
        return LaurentPoly._trusted(tbl, terms, self._den, self._bound + 1)

    def substitute(self, bindings: Mapping[str, "LaurentPoly | Coeff"]) -> "LaurentPoly":
        """Simultaneous substitution, fully expanded.

        A binding for a variable that occurs with negative exponents must be a
        single invertible monomial; polynomial bindings are fine everywhere a
        variable occurs polynomially.
        """
        if not bindings:
            return self
        tbl = self.table
        bound = {tbl.index(name): self._coerce(value)
                 for name, value in bindings.items()}
        order = sorted(bound)
        offset, shifts = tbl._offset, tbl._shifts
        # a key's bound part is (key + offset) & mask - base: its bound
        # digits, with every other digit zero
        mask = base = 0
        for i in order:
            mask |= _MASK << shifts[i]
            base |= _HALF << shifts[i]
        # keyed by e * place, the bound part of a key holding x_i^e alone
        power_cache: dict[int, LaurentPoly] = {}
        # the product of the bound powers, per bound part of a key
        products: dict[int, LaurentPoly] = {}

        def powered(i: int, e: int) -> LaurentPoly:
            key = e * tbl._places[i]
            if key not in power_cache:
                try:
                    power_cache[key] = bound[i] ** e
                except LaurentError as exc:
                    raise LaurentError(
                        f"substitution for {tbl.names[i]!r} needs "
                        f"division by a non-monomial") from exc
            return power_cache[key]

        def product_of(part: int) -> LaurentPoly:
            product = None
            for i in order:
                e = (((part + offset) >> shifts[i]) & _MASK) - _HALF
                if e:
                    factor = powered(i, e)
                    product = factor if product is None else product * factor
            if product is None:
                product = LaurentPoly.const(tbl, 1)
            return product

        terms: dict[int, int] = {}
        den = 1     # the common denominator of the products met so far
        for key, c in self._terms.items():
            part = ((key + offset) & mask) - base
            product = products.get(part)
            if product is None:
                product = products[part] = product_of(part)
            pd = product._den
            if pd != den:
                if den % pd:
                    grow = lcm(den, pd) // den
                    for k, n in terms.items():
                        terms[k] = n * grow
                    den *= grow
                c *= den // pd
            _accumulate_product(terms, key - part, c, product._terms)
        return LaurentPoly._trusted(
            tbl, terms, self._den * den, self._bound + max(
                (p._bound for p in products.values()), default=0))

    # -- structure ----------------------------------------------------------

    def variables(self) -> set[str]:
        """Names that occur with a nonzero exponent."""
        tbl = self.table
        used = set()
        for key in self._terms:
            for name, e in zip(tbl.names, tbl._unpack(key)):
                if e:
                    used.add(name)
        return used

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exps: Mapping[str, int]) -> CycloRat:
        tbl = self.table
        key = 0
        for name, e in exps.items():
            if type(e) is not int:
                raise LaurentError(f"exponent {e!r} of {name!r} is not an int")
            if abs(e) >= _LIMIT:
                return ZERO  # no term reaches it
            key += e * tbl._places[tbl.index(name)]
        get = self._terms.get
        return _normal(get(key, 0), get(key + 1, 0), get(key + 2, 0),
                       get(key + 3, 0), self._den)

    def collect(self, name: str) -> dict[int, "LaurentPoly"]:
        """Split into {exponent of `name`: cofactor polynomial}."""
        tbl = self.table
        i = tbl.index(name)
        offset, shift, place = tbl._offset, tbl._shifts[i], tbl._places[i]
        out: dict[int, dict] = {}
        for key, c in self._terms.items():
            k = (((key + offset) >> shift) & _MASK) - _HALF
            out.setdefault(k, {})[key - k * place] = c
        return {k: LaurentPoly._trusted(tbl, t, self._den, self._bound)
                for k, t in out.items()}

    def min_exponent(self, name: str) -> int:
        tbl = self.table
        i = tbl.index(name)
        return min((tbl._digit(key, i) for key in self._terms), default=0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloRat)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.table is other.table and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.table, self._den, frozenset(self._terms.items())))

    def __len__(self):
        """The number of monomials."""
        return len({key & _MONO for key in self._terms})

    # -- canonical text form --------------------------------------------------

    def serialize(self) -> str:
        """Canonical text: monomials sorted lexicographically (descending) on
        the variable table; coefficients as exact a+b*z+c*z^2+d*z^3 forms.
        Keys order as their exponent tuples do, so they are sorted as they
        are."""
        if not self._terms:
            return "0"
        names, unpack = self.table.names, self.table._unpack
        coeffs = self._coefficients()
        parts = []
        for key in sorted(coeffs, reverse=True):
            coeff = coeffs[key]
            mono = "*".join(
                (n if e == 1 else f"{n}^{e}")
                for n, e in zip(names, unpack(key)) if e != 0)
            cs = str(coeff)
            if not coeff.is_rational():
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __str__(self):
        return self.serialize()

    def __repr__(self):
        return f"LaurentPoly({self.serialize()})"
