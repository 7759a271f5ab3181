"""Sparse multivariate Laurent polynomials over Q(z8).

A monomial's exponents over a fixed variable table of k names are packed into
one int, its key: sum(e_i * 2^(W*(k-1-i))) with W = ``_WIDTH`` bits per
signed digit, the first name most significant (Kronecker substitution).  The
sum of two keys is the key of the product monomial, and keys order exactly
as the exponent tuples do lexicographically.  A key decodes while every digit
lies inside +-2^(W-1); each polynomial carries an upper bound on its
|exponent|s, and a result whose bound reaches ``_LIMIT`` = 2^(W-2) raises
``LaurentError`` instead of wrapping.  ``terms`` decodes the keys back into
exponent tuples.

Only q may carry negative exponents; every transformation in this package
divides only by powers of q.  Terms are checked (int exponents inside the
range, the tuple length, negative exponents only in q) where they enter from
outside (the constructor, ``var``, ``const``) and where ``unit_inverse``
negates exponents; every other ring result is built from checked terms and is
taken as it is.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .cyclo import CycloRat, ONE, ZERO

Coeff = Union[int, Fraction, CycloRat]

_WIDTH = 64                      # bits per exponent digit of a key
_HALF = 1 << (_WIDTH - 1)
_MASK = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 2)       # every |exponent| stays below this


class LaurentError(ValueError):
    """Illegal negative exponent or impossible substitution/division."""


class VarTable:
    """Ordered variable names, and the packing of exponent tuples over
    them."""

    __slots__ = ("names", "_index", "_shifts", "_places", "_offset")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self._index = {n: i for i, n in enumerate(self.names)}
        k = len(self.names)
        self._shifts = tuple(_WIDTH * (k - 1 - i) for i in range(k))
        self._places = tuple(1 << s for s in self._shifts)
        # adding it makes every digit of a key non-negative
        self._offset = _HALF * sum(self._places)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}; table has {self.names}") from None

    def _unpack(self, key: int) -> tuple:
        u = key + self._offset
        return tuple(((u >> s) & _MASK) - _HALF for s in self._shifts)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return self is other or (isinstance(other, VarTable)
                                 and self.names == other.names)

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable{self.names}"


def _as_cyclo(c: Coeff) -> CycloRat:
    return c if isinstance(c, CycloRat) else CycloRat(c)


def _accumulate(terms: dict, pairs: Iterable[tuple[int, CycloRat]]) -> None:
    """Add the (key, nonzero coefficient) pairs into ``terms`` in place and
    drop every term that cancels.  A sum updates its key where it stands; a
    key that cancels and comes back is appended at the end."""
    get = terms.get
    for key, c in pairs:
        s = get(key)
        if s is not None:
            c = s + c
            if c.is_zero():
                del terms[key]
                continue
        terms[key] = c


def _accumulate_product(terms: dict, shift: int, coeff: CycloRat,
                        other: dict) -> None:
    """``_accumulate`` of coeff * x^shift * other: the pairs
    (shift + key, coeff * c) over the (key, c) of ``other``, in its order."""
    get = terms.get
    for key, c in other.items():
        key += shift
        c = coeff * c
        s = get(key)
        if s is not None:
            c = s + c
            if c.is_zero():
                del terms[key]
                continue
        terms[key] = c


def _check_bound(bound: int) -> None:
    if bound >= _LIMIT:
        raise LaurentError(f"an exponent may reach {bound}, outside "
                           f"+-2^{_WIDTH - 2}")


class LaurentPoly:
    """Immutable sparse polynomial: map from packed exponent key to CycloRat."""

    __slots__ = ("table", "_terms", "_bound")

    def __init__(self, table: VarTable, terms: Mapping[tuple, CycloRat] | None = None):
        self.table = table
        clean = {}
        bound = 0
        if terms:
            for exps, coeff in terms.items():
                coeff = _as_cyclo(coeff)
                if coeff.is_zero():
                    continue
                if len(exps) != len(table):
                    raise LaurentError(f"exponent tuple of length "
                                       f"{len(exps)} for {table}")
                key = 0
                for name, e, place in zip(table.names, exps, table._places):
                    if type(e) is not int:
                        raise LaurentError(
                            f"exponent {e!r} of {name!r} is not an int")
                    if e:
                        if e < 0 and name != "q":
                            raise LaurentError(f"negative exponent of "
                                               f"{name!r} is not allowed")
                        key += e * place
                        bound = max(bound, abs(e))
                clean[key] = coeff
        if bound >= _LIMIT:
            raise LaurentError(f"exponent of magnitude {bound} is outside "
                               f"+-2^{_WIDTH - 2}")
        self._terms = clean
        self._bound = bound

    @classmethod
    def _trusted(cls, table: VarTable, terms: dict,
                 bound: int) -> "LaurentPoly":
        """Wrap a dict of keys and nonzero CycloRat coefficients as it is,
        without copying it; ``bound`` bounds every |exponent| and is the one
        thing checked."""
        _check_bound(bound)
        new = object.__new__(cls)
        new.table = table
        new._terms = terms
        new._bound = bound
        return new

    @property
    def terms(self) -> dict[tuple, CycloRat]:
        """{exponent tuple: coefficient}, decoded into a fresh dict in
        insertion order."""
        unpack = self.table._unpack
        return {unpack(key): c for key, c in self._terms.items()}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls(table)

    @classmethod
    def const(cls, table: VarTable, c: Coeff) -> "LaurentPoly":
        return cls(table, {(0,) * len(table): _as_cyclo(c)})

    @classmethod
    def var(cls, table: VarTable, name: str, exp: int = 1,
            coeff: Coeff = 1) -> "LaurentPoly":
        exps = [0] * len(table)
        exps[table.index(name)] = exp
        return cls(table, {tuple(exps): _as_cyclo(coeff)})

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.table is not self.table and other.table != self.table:
                raise LaurentError("variable-table mismatch")
            return other
        if isinstance(other, (int, Fraction, CycloRat)):
            return LaurentPoly.const(self.table, other)
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        terms = dict(self._terms)
        _accumulate(terms, o._terms.items())
        return LaurentPoly._trusted(self.table, terms,
                                    max(self._bound, o._bound))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return LaurentPoly._trusted(
            self.table, {key: -c for key, c in self._terms.items()},
            self._bound)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloRat)):
            c = _as_cyclo(other)
            if c.is_zero():
                return LaurentPoly.zero(self.table)
            # Q(z8) is a field: no product of nonzero coefficients vanishes
            return LaurentPoly._trusted(
                self.table, {key: k * c for key, k in self._terms.items()},
                self._bound)
        o = self._coerce(other)
        a, b = self._terms, o._terms
        # a product by a monomial shifts the keys: nothing collides
        if len(b) == 1:
            (k2, c2), = b.items()
            terms = {k1 + k2: c1 * c2 for k1, c1 in a.items()}
        elif len(a) == 1:
            (k1, c1), = a.items()
            terms = {k1 + k2: c1 * c2 for k2, c2 in b.items()}
        else:
            terms = {}
            for k1, c1 in a.items():
                _accumulate_product(terms, k1, c1, b)
        return LaurentPoly._trusted(self.table, terms,
                                    self._bound + o._bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        """The n-th power; a negative n inverts a monomial first.

        The exponent range is checked before any product is formed: n times
        the base's exponent bound must stay inside it, as the bound of the
        power is exactly that.  A monomial c*x^e goes straight to
        c^n*x^(n*e); any other base is raised by repeated squaring."""
        if n < 0:
            return self.unit_inverse() ** (-n)
        if n == 0:
            return LaurentPoly.const(self.table, 1)
        bound = self._bound * n
        _check_bound(bound)
        if len(self._terms) == 1:
            (key, c), = self._terms.items()
            return LaurentPoly._trusted(self.table, {key * n: c ** n}, bound)
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
        if len(self._terms) != 1:
            raise LaurentError("division requires a single-term monomial")
        (key, coeff), = self._terms.items()
        tbl = self.table
        for name, e in zip(tbl.names, tbl._unpack(key)):
            if e and name != "q":
                raise LaurentError(
                    f"negative exponent of {name!r} is not allowed")
        return LaurentPoly._trusted(tbl, {-key: coeff.inverse()},
                                    self._bound)

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
        return LaurentPoly._trusted(tbl, terms, self._bound + 1)

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
        digits = [(i, tbl._shifts[i], tbl._places[i]) for i in sorted(bound)]
        offset = tbl._offset
        power_cache: dict[tuple[int, int], LaurentPoly] = {}
        # the product of the bound powers, per bound-exponent pattern
        products: dict[tuple, LaurentPoly] = {}

        def powered(i: int, e: int) -> LaurentPoly:
            key = (i, e)
            if key not in power_cache:
                try:
                    power_cache[key] = bound[i] ** e
                except LaurentError as exc:
                    raise LaurentError(
                        f"substitution for {tbl.names[i]!r} needs "
                        f"division by a non-monomial") from exc
            return power_cache[key]

        def product_of(pattern: tuple) -> LaurentPoly:
            product = None
            for (i, _, _), e in zip(digits, pattern):
                if e:
                    factor = powered(i, e)
                    product = factor if product is None else product * factor
            if product is None:
                product = LaurentPoly._trusted(tbl, {0: ONE}, 0)
            return product

        terms: dict[int, CycloRat] = {}
        for key, coeff in self._terms.items():
            u = key + offset
            pattern = tuple(((u >> shift) & _MASK) - _HALF
                            for _, shift, _ in digits)
            # the unbound variables' part of the key
            rest = key
            for (_, _, place), e in zip(digits, pattern):
                rest -= e * place
            product = products.get(pattern)
            if product is None:
                product = products[pattern] = product_of(pattern)
            _accumulate_product(terms, rest, coeff, product._terms)
        return LaurentPoly._trusted(
            tbl, terms, self._bound + max(
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
        return self._terms.get(key, ZERO)

    def collect(self, name: str) -> dict[int, "LaurentPoly"]:
        """Split into {exponent of `name`: cofactor polynomial}."""
        tbl = self.table
        i = tbl.index(name)
        offset, shift, place = tbl._offset, tbl._shifts[i], tbl._places[i]
        out: dict[int, dict] = {}
        for key, c in self._terms.items():
            k = (((key + offset) >> shift) & _MASK) - _HALF
            out.setdefault(k, {})[key - k * place] = c
        return {k: LaurentPoly._trusted(tbl, t, self._bound)
                for k, t in out.items()}

    def min_exponent(self, name: str) -> int:
        tbl = self.table
        i = tbl.index(name)
        if not self._terms:
            return 0
        return min(tbl._unpack(key)[i] for key in self._terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloRat)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self._terms == other._terms

    def __hash__(self):
        return hash((self.table, frozenset(self._terms.items())))

    def __len__(self):
        return len(self._terms)

    # -- canonical text form --------------------------------------------------

    def serialize(self) -> str:
        """Canonical text: monomials sorted lexicographically (descending) on
        the variable table; coefficients as exact a+b*z+c*z^2+d*z^3 forms.
        Keys order as their exponent tuples do, so they are sorted as they
        are."""
        if not self._terms:
            return "0"
        names, unpack = self.table.names, self.table._unpack
        parts = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
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
