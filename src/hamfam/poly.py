"""Sparse multivariate Laurent polynomials over Q(z8).

Exponents are dense integer tuples indexed by a fixed variable table.  Only q
may carry negative exponents; every transformation in this package divides
only by powers of q.  Terms are checked (int exponents, the tuple length,
negative exponents only in q) where they enter from outside (the
constructor, ``var``, ``const``) and where ``unit_inverse`` negates
exponents; every other ring result is built from checked terms and is taken
as it is.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

from .cyclo import CycloRat, ONE, ZERO

Coeff = Union[int, Fraction, CycloRat]


class LaurentError(ValueError):
    """Illegal negative exponent or impossible substitution/division."""


class VarTable:
    """Ordered variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self._index = {n: i for i, n in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}; table has {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable{self.names}"


def _as_cyclo(c: Coeff) -> CycloRat:
    return c if isinstance(c, CycloRat) else CycloRat(c)


def _accumulate(pairs: Iterable[tuple[tuple, CycloRat]],
                terms: dict | None = None) -> dict:
    """Add the (exponents, nonzero coefficient) pairs into ``terms`` (a new
    dict by default) and drop every term that cancels; returns the dict."""
    if terms is None:
        terms = {}
    for exps, c in pairs:
        s = terms.get(exps)
        if s is not None:
            c = s + c
            if c.is_zero():
                del terms[exps]
                continue
        terms[exps] = c
    return terms


class LaurentPoly:
    """Immutable sparse polynomial: map from exponent tuple to CycloRat."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple, CycloRat] | None = None):
        self.table = table
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _as_cyclo(coeff)
                if coeff.is_zero():
                    continue
                if len(exps) != len(table):
                    raise LaurentError(f"exponent tuple of length "
                                       f"{len(exps)} for {table}")
                for name, e in zip(table.names, exps):
                    if type(e) is not int:
                        raise LaurentError(
                            f"exponent {e!r} of {name!r} is not an int")
                    if e < 0 and name != "q":
                        raise LaurentError(
                            f"negative exponent of {name!r} is not allowed")
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, table: VarTable, terms: dict) -> "LaurentPoly":
        """Wrap a dict of checked exponent tuples and nonzero CycloRat
        coefficients as it is, without copying or checking it."""
        new = object.__new__(cls)
        new.table = table
        new.terms = terms
        return new

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
            if other.table != self.table:
                raise LaurentError("variable-table mismatch")
            return other
        if isinstance(other, (int, Fraction, CycloRat)):
            return LaurentPoly.const(self.table, other)
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return LaurentPoly._trusted(
            self.table, _accumulate(o.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return LaurentPoly._trusted(
            self.table, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloRat)):
            c = _as_cyclo(other)
            if c.is_zero():
                return LaurentPoly.zero(self.table)
            # Q(z8) is a field: no product of nonzero coefficients vanishes
            return LaurentPoly._trusted(
                self.table, {e: k * c for e, k in self.terms.items()})
        o = self._coerce(other)
        return LaurentPoly._trusted(self.table, _accumulate(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in o.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.unit_inverse() ** (-n)
        result = LaurentPoly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a single invertible monomial; anything else raises."""
        if len(self.terms) != 1:
            raise LaurentError("division requires a single-term monomial")
        (exps, coeff), = self.terms.items()
        return LaurentPoly(self.table,
                           {tuple(-e for e in exps): coeff.inverse()})

    # -- calculus ---------------------------------------------------------

    def diff(self, name: str) -> "LaurentPoly":
        """Formal partial derivative; d(x^k)/dx = k*x^(k-1) for any integer k."""
        i = self.table.index(name)
        return LaurentPoly._trusted(self.table, _accumulate(
            (exps[:i] + (exps[i] - 1,) + exps[i + 1:], c * exps[i])
            for exps, c in self.terms.items() if exps[i]))

    def substitute(self, bindings: Mapping[str, "LaurentPoly | Coeff"]) -> "LaurentPoly":
        """Simultaneous substitution, fully expanded.

        A binding for a variable that occurs with negative exponents must be a
        single invertible monomial; polynomial bindings are fine everywhere a
        variable occurs polynomially.
        """
        if not bindings:
            return self
        bound = {self.table.index(name): self._coerce(value)
                 for name, value in bindings.items()}
        power_cache: dict[tuple[int, int], LaurentPoly] = {}

        def powered(idx: int, e: int) -> LaurentPoly:
            key = (idx, e)
            if key not in power_cache:
                try:
                    power_cache[key] = bound[idx] ** e
                except LaurentError as exc:
                    raise LaurentError(
                        f"substitution for {self.table.names[idx]!r} needs "
                        f"division by a non-monomial") from exc
            return power_cache[key]

        unit = (0,) * len(self.table)
        terms: dict[tuple, CycloRat] = {}
        for exps, coeff in self.terms.items():
            residual = [0] * len(exps)
            factor = LaurentPoly._trusted(self.table, {unit: coeff})
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i in bound:
                    factor = factor * powered(i, e)
                else:
                    residual[i] = e
            if any(residual):
                factor = factor * LaurentPoly._trusted(
                    self.table, {tuple(residual): ONE})
            _accumulate(factor.terms.items(), terms)
        return LaurentPoly._trusted(self.table, terms)

    # -- structure ----------------------------------------------------------

    def variables(self) -> set[str]:
        """Names that occur with a nonzero exponent."""
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(self.table.names[i])
        return used

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Mapping[str, int]) -> CycloRat:
        vec = [0] * len(self.table)
        for name, e in exps.items():
            vec[self.table.index(name)] = e
        return self.terms.get(tuple(vec), ZERO)

    def collect(self, name: str) -> dict[int, "LaurentPoly"]:
        """Split into {exponent of `name`: cofactor polynomial}."""
        i = self.table.index(name)
        out: dict[int, dict] = {}
        for exps, c in self.terms.items():
            stripped = list(exps)
            k = stripped[i]
            stripped[i] = 0
            out.setdefault(k, {})[tuple(stripped)] = c
        return {k: LaurentPoly._trusted(self.table, t) for k, t in out.items()}

    def min_exponent(self, name: str) -> int:
        i = self.table.index(name)
        if not self.terms:
            return 0
        return min(exps[i] for exps in self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloRat)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    def __len__(self):
        return len(self.terms)

    # -- canonical text form --------------------------------------------------

    def serialize(self) -> str:
        """Canonical text: monomials sorted lexicographically (descending) on
        the variable table; coefficients as exact a+b*z+c*z^2+d*z^3 forms."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                (n if e == 1 else f"{n}^{e}")
                for n, e in zip(self.table.names, exps) if e != 0)
            cs = str(coeff)
            if not coeff.is_rational():
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __str__(self):
        return self.serialize()

    def __repr__(self):
        return f"LaurentPoly({self.serialize()})"
