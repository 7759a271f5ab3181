"""Numerical integration of the complex-valued Hamilton equations.

Each symbolic field is compiled once per (system, parameter values) pair:
the parameters are bound to complex numbers and the polynomials become one
straight-line Python function, generated with a single ``exec``, that
evaluates each in nested form (``_kernel_lines``): Horner's rule in q, then
p, then t, negative powers of q in w = 1/q.  It is backward stable with the
error bound of the term-by-term sum (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 5.1) in fewer operations.  There are two
compile entries, each with a bounded cache keyed by exact parameter bits:
``compile_field`` for a system's field, and ``compile_map`` for a map's
rules.  The generated source holds only names, so each distinct text
goes through the compiler once: fields whose parameters leave the same terms
nonzero share the code of their kernels, steps and loops.
The field is stepped by one explicit Runge-Kutta engine driven by a Butcher
tableau: classical RK4 at a fixed step, or the embedded Fehlberg 4(5) pair,
which propagates its 5th-order solution, estimates the error with the 4th,
and sizes steps by PI control (Gustafsson, ACM TOMS 17, 1991) whose memory
of the last accepted error is floored at 1e-4, as DOPRI5's is (Hairer,
Norsett & Wanner, Solving ODEs I, II.4).  A whole run of a tableau over a
field is generated the same way, on the first ``integrate`` with the method,
as one loop that the compiled field keeps: its step is straight-line code
with the stages unrolled, the field's kernel lines inlined at each stage,
and a stage loop's operations in the same order, less the products of zero
and unit weights.  The first stage also nests H at the step's start, so
each sample's H comes from the step that leaves it and only the last
sample's from the H kernel.  The loop appends the samples
itself; for the embedded pair it also holds the error norm, the step
control and the blow-up estimates below, and at a sample that reaches the
chart's escape radius it reads the field's chart.  It returns once, where
the run ends.  So the Hamiltonian is sampled and drift can be monitored:
for the autonomous families H is a first integral and the drift is a
direct error measure; for the non-autonomous family dH/dt = q^3 p + a2 q^2
is nonzero and is checked against finite differences instead.  The
compiled map rules serve both the trajectory check and
``BirationalMap.apply_numeric``; each raises ValueError only where the
image is not finite, as at q = 0 for a map that divides by q.

Hamilton's equations are polynomial, so q = 0 is a regular point that a
run passes through.  A step fails only where the state leaves the finite
range: at a stage that starts beyond OVERFLOW_GUARD or from a p that is
not finite, or where H at its start is not finite.  Integration then stops
cleanly with ``overflow`` (never NaN-propagates).

Near a movable singularity t*, q ~ C(t* - t)^-alpha.  For autonomous5 and
general:n the regularising chart (w, u) = (1/q, p q^(n-1)) carries H to a
polynomial H~ = u^2 w^(n-2) + u A~(w) that is regular at w = 0, where q is
infinite (``hamiltonian.regularising_chart``).  H is conserved, so one
sample gives t* in closed form, as a quadrature in w, and alpha is exactly
1/(n-2).  Where no chart applies (nonautonomous3, or a = 0), u = q/q'
equals (t* - t)/alpha; the adaptive run reads u at each sample from its
step's first stage, at no extra field evaluation, and two samples estimate
alpha = -dt/du and t* = t + alpha*u, which is a Newton step on u = 0
(Corliss & Chang, ACM TOMS 8, 1982).  ``integrate``'s docstring states
when a run reads the chart or makes the estimates, and when it ends with
``blow-up``.
"""

from __future__ import annotations

import cmath
import functools
import marshal
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .hamiltonian import COORD_VARS, HamSystem, hamilton_equations
from .poly import LaurentPoly

if TYPE_CHECKING:
    from .chart import Chart
    from .symmetry import BirationalMap

OVERFLOW_GUARD = 1e12
# |q| at which a run reads t* from the regularising chart: past it the
# chart's series in w = 1/q converges fast, and an autonomous5 orbit is
# still about 3e-4 from t*, well inside the benchmark's margin of 0.004
ESCAPE_RADIUS = 10.0


@dataclass
class NumericParams:
    """Complex parameter values for one family."""

    family: str
    values: dict[str, complex]
    n: int | None = None

    def __post_init__(self):
        for name, v in self.values.items():
            if name.startswith("e") and v == 0:
                warnings.warn(f"parameter {name} = 0 leaves the intended "
                              f"parameter domain (nonzero complex)",
                              stacklevel=2)

    def check_complete(self, sys: HamSystem):
        if self.values.keys() != set(sys.params):
            missing = [p for p in sys.params if p not in self.values]
            unknown = [p for p in self.values if p not in sys.params]
            raise ValueError(f"{sys.name} takes {', '.join(sys.params)}: "
                             f"unbound {missing}, unknown {unknown}")


@dataclass(eq=False)
class Trajectory:
    """Time grid with complex (q, p) samples and conservation diagnostics.

    The run statistics (steps attempted and rejected, field evaluations of
    the attempts that returned, the smallest accepted step, None if no step
    was accepted) describe how the samples were made.  A run that ends in
    ``blow-up`` carries the located singularity time ``t_star`` and the
    exponent alpha of q ~ C(t* - t)^-alpha; other runs carry None.
    Trajectories compare by identity: compare their arrays to compare their
    samples."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    H_values: np.ndarray
    # completed | overflow | blow-up | step-underflow
    termination: str
    steps_attempted: int = 0
    steps_rejected: int = 0
    field_evals: int = 0
    min_step: float | None = None
    t_star: float | None = None
    exponent: float | None = None
    drift: float = field(init=False)

    def __post_init__(self):
        import numpy as np
        if not (len(self.times) == len(self.q) == len(self.p)
                == len(self.H_values)):
            raise ValueError("sample arrays must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        self.drift = float(np.max(np.abs(self.H_values - self.H_values[0]))) \
            if len(self.H_values) else 0.0


def _bind(poly: LaurentPoly, params: dict[str, complex]) -> list:
    """The (c, eq, ep, et) terms of ``poly`` with its parameters bound:
    one term per (q, p, t) exponent triple, zero coefficients left out.
    A parameter name that is unbound, a coordinate, or not in the table is a
    ValueError."""
    tbl = poly.table
    for name in params:
        if name in COORD_VARS:
            raise ValueError(f"{name!r} is a coordinate, not a parameter")
        if name not in tbl:
            raise ValueError(f"unknown parameter {name!r}; table has "
                             f"{tbl.names}")
    iq, ip, it = tbl.index("q"), tbl.index("p"), tbl.index("t")
    pidx = {tbl.index(k): complex(v) for k, v in params.items()}
    merged: dict[tuple[int, int, int], complex] = {}
    for exps, coeff in poly.terms.items():
        c = complex(coeff)
        for i, e in enumerate(exps):
            if e and i not in (iq, ip, it):
                if i not in pidx:
                    raise ValueError(f"unbound parameter {tbl.names[i]!r}")
                c *= pidx[i] ** e
        key = (exps[iq], exps[ip], exps[it])
        merged[key] = merged.get(key, 0j) + c
    return [(c, eq, ep, et) for (eq, ep, et), c in merged.items() if c != 0]


def _generate(signature: str, lines: list[str], args: dict):
    """The function ``def fn{signature}`` with body ``lines``, built with a
    single ``exec``.  The values in ``args`` enter as arguments of a factory
    function that ``fn`` closes over, so the source text holds only names."""
    source = (f"def factory({', '.join(args)}):\n    def fn{signature}:\n"
              + "".join(f"        {line}\n" for line in lines)
              + "    return fn\n")
    namespace = {}
    exec(_compile(source), namespace)
    # popped, so that the function's globals do not hold the factory in a
    # cycle
    return namespace.pop("factory")(**args)


@functools.lru_cache(maxsize=64)
def _compile(source: str):
    """The code of ``source``, compiled once: the kernels and steps of
    fields whose parameters leave the same terms nonzero have the same
    source, so a field compiled at new parameter values skips the compiler,
    which takes most of the time of generating a step."""
    return compile(source, "<hamfam generated>", "exec")


def _power_name(v: str, k: int) -> str:
    """The local that holds v^k in a kernel: v itself for k = 1, and a
    power of w = 1/v for k < 0."""
    return v if k == 1 else f"{v}{k}" if k > 0 else f"{v}m{-k}"


def _power_lines(powers) -> list[str]:
    """Lines that set ``_power_name(v, k)`` to v^k, k not 0 or 1, for each
    (v, k) of ``powers``, from v, or from w = 1/v for k < 0: the squares
    b^2 = b*b, b^4 = b^2*b^2, ... of the base b, and each other
    b^m = b^(m - hb) * b^hb, with hb the highest set bit of m."""
    chains = {}
    for v, k in powers:
        ms, m = chains.setdefault((v, k < 0), set()), abs(k)
        while m:  # b^m needs b^(m - hb), which needs ...
            ms.add(m)
            m -= 1 << m.bit_length() - 1
    lines = []
    for (v, inverse), ms in chains.items():
        sign = -1 if inverse else 1
        name = lambda m: _power_name(v, sign * m)  # noqa: E731
        if inverse:
            lines.append(f"{name(1)} = 1 / {v}")
        for b in range(1, max(ms).bit_length()):
            lines.append(f"{name(1 << b)} = {name(1 << b - 1)} * "
                         f"{name(1 << b - 1)}")
        for m in sorted(ms):
            hb = 1 << m.bit_length() - 1
            if m > hb:
                lines.append(f"{name(m)} = {name(m - hb)} * {name(hb)}")
    return lines


def _named(coeffs: dict, spans: list) -> list:
    """``spans`` with each coefficient entered in ``coeffs`` under a name,
    and that name in its place."""
    named = []
    for c, *exps in spans:
        name = f"c{len(coeffs)}"
        coeffs[name] = c
        named.append((name, *exps))
    return named


# Horner steps per generated expression: each nests one more pair of
# parentheses, and the parser refuses 200
_CHAIN = 40


def _kernel_lines(sums: list) -> list[str]:
    """Lines that set each local ``out`` of ``sums`` ([(out, terms, inputs)])
    to its polynomial in nested form; ``terms`` are the named
    (coefficient, eq, ep, et) of ``_named``, and ``inputs`` names the q, p
    and t they read.  A polynomial without terms is 0j.  Otherwise the
    monomial common to its terms is factored out (per variable, the least
    exponent where all are >= 0, the greatest where all are < 0), and the
    rest is nested by Horner's rule over the degrees present in q,
    x = C_k, x = x*q^(k - j) + C_j, ..., x*q^i, with the negative degrees
    nested alike in w = 1/q and added after; each C_k is nested alike in p,
    then t.  Each chain of _CHAIN Horner steps is stored in a local, each
    power is computed once by ``_power_lines``, and the text holds only
    names and int exponents."""
    powers, lines = {}, []

    def power(v, k):
        if k != 1:
            powers[v, k] = None
        return _power_name(v, k)

    def group(text):  # an operand of * or the right operand of +
        return f"({text})" if " + " in text else text

    def nest(terms, names):
        if len(terms) == 1:  # its own common monomial, times c
            (c, exps), = terms
            return " * ".join([c, *(power(v, k)
                                    for v, k in zip(names, exps) if k)])
        common = [min(col) if min(col) >= 0 else max(col) if max(col) < 0
                  else 0 for col in zip(*(exps for _, exps in terms))]
        sides = {}, {}  # the terms by |degree| in names[0], >= 0 and < 0
        for c, (k, *rest) in terms:
            k -= common[0]
            sides[k < 0].setdefault(abs(k), []).append(
                (c, tuple(e - m for e, m in zip(rest, common[1:]))))
        text = " + ".join(group(horner(names[0], sign, side, names[1:]))
                          for sign, side in zip((1, -1), sides) if side)
        factors = [power(v, k) for v, k in zip(names, common) if k]
        return " * ".join([group(text), *factors]) if factors else text

    def horner(v, sign, side, names):
        ks = sorted(side, reverse=True)
        text = nest(side[ks[0]], names)
        for n, (k, j) in enumerate(zip(ks, ks[1:]), 1):
            text = (f"{group(text)} * {power(v, sign * (k - j))} + "
                    f"{group(nest(side[j], names))}")
            if n % _CHAIN == 0:  # a local closes the parentheses
                lines.append(f"x{len(lines)} = {text}")
                text = f"x{len(lines) - 1}"
        return (f"{group(text)} * {power(v, sign * ks[-1])}" if ks[-1]
                else text)

    for out, terms, inputs in sums:
        text = terms and nest([(c, tuple(e)) for c, *e in terms], inputs)
        lines.append(f"{out} = {text or '0j'}")
    return _power_lines(powers) + lines


def _kernel(*polys: list):
    """One straight-line function (q, p, t) -> the value of each bound
    polynomial (a tuple for more than one), nested by ``_kernel_lines``.  It
    raises only ZeroDivisionError, from 1 / q at q = 0 on a complex scalar
    (numpy arrays warn and go on)."""
    coeffs = {}
    lines = _kernel_lines([(f"s{k}", _named(coeffs, spans), "qpt")
                           for k, spans in enumerate(polys)])
    lines.append("return " + ", ".join(f"s{k}" for k in range(len(polys))))
    return _generate("(q, p, t)", lines, coeffs)


class CompiledField:
    """Numeric vector field (q, p, t) -> (dq/dt, dp/dt) for one parameter
    set: one kernel for both components, ``H`` for the Hamiltonian, and,
    generated on first use, the loop that makes a whole run of a tableau
    over the field (``loop``), which ``integrate`` calls once per run."""

    __slots__ = ("_kernel", "H", "_spans", "_loops", "_source", "_chart")

    def __init__(self, sys: HamSystem, values: dict[str, complex]):
        f_q, f_p = hamilton_equations(sys)
        self._spans = (_bind(f_q, values), _bind(f_p, values),
                       _bind(sys.H, values))
        self._kernel = _kernel(*self._spans[:2])
        self.H = _kernel(self._spans[2])
        self._loops = {}
        self._source = sys, values
        self._chart = _UNBOUND

    def __call__(self, q: complex, p: complex, t) -> tuple[complex, complex]:
        return self._kernel(q, p, t)

    def loop(self, tab: _Tableau):
        """loop(times, qs, ps, hs, h, t1, tol) -> (end, returned, rejected,
        min_step, min_before, t_star, alpha): a run of ``tab`` from the
        last sample of the lists to t1, generated on the first call for
        ``tab``, as ``integrate``'s docstring states it.

        It appends each sample's t, q and p, and H at the sample before.  It
        counts the steps that returned and those rejected, and keeps the
        smallest accepted step (min_step, and min_before before the last
        one).  fixed-rk4 counts every sample of the lists after the first
        as a step of the run, in that count and in its last-step rule
        t1 - t <= h + len(times)*t_ulp, with t_ulp = 2**-52 times the larger
        of |t1| and |t| at the first sample; adaptive-rk45 counts the
        attempts of the call.  At a sample whose |q| reaches the chart's
        escape radius, or doubles since the last reading, it reads the
        field's chart (``_chart_reading``), which gives None or
        (t* - t, alpha) where its reading counts.  It ends with
        'completed', 'overflow' (a step to |q| or |p| beyond OVERFLOW_GUARD,
        not taken), 'raised' (a start with |q| > OVERFLOW_GUARD, or a stage
        or chart reading that raises OverflowError), 'blow-up' (with Re t*
        and alpha, else None) or 'step-underflow'."""
        loop = self._loops.get(tab)
        if loop is None:
            loop = self._loops[tab] = _generate(
                f"({', '.join(_LOOP_ARGS)})", *_loop_source(tab, self))
        return loop

    def chart(self) -> Chart | None:
        """The field's regularising chart, bound on the first call, or None
        where the field has none (see ``chart.Chart``)."""
        if self._chart is _UNBOUND:
            from .chart import Chart
            self._chart = Chart.bind(*self._source)
        return self._chart


_UNBOUND = object()


def _bits(values: dict) -> tuple:
    """The names in order and the bytes of their values as complex numbers:
    a cache key in which 0.0 and -0.0 differ."""
    names = tuple(sorted(values))
    return names, marshal.dumps([complex(values[name]) for name in names], 2)


def compile_field(sys: HamSystem, params: NumericParams) -> CompiledField:
    """The compiled field of ``sys`` at ``params``, which are checked on
    every call.  Fields are cached by the system's value and the exact bits
    of each parameter, so 0.0 and -0.0 never share a field."""
    params.check_complete(sys)
    return _field_cache(sys, *_bits(params.values))


@functools.lru_cache(maxsize=32)
def _field_cache(sys: HamSystem, names: tuple, bits: bytes) -> CompiledField:
    return CompiledField(sys, dict(zip(names, marshal.loads(bits))))


def compile_map(m: BirationalMap, values: dict[str, complex]):
    """The rules of ``m`` compiled at the parameter ``values``: the mapped
    parameter values, as (name, value) pairs, and one kernel (q, p, t) ->
    (Q, P, T).  Cached like the fields, by the rules and the exact bits of
    each value."""
    return _map_cache((m.q_rule, m.p_rule, m.t_rule,
                       tuple(m.param_rules.items())), *_bits(values))


@functools.lru_cache(maxsize=32)
def _map_cache(rules: tuple, names: tuple, bits: bytes):
    values = dict(zip(names, marshal.loads(bits)))
    *coords, param_rules = rules
    mapped = []
    for name, rule in param_rules:
        terms = _bind(rule, values)  # one term at most, free of q, p and t
        if any(eq or ep or et for _, eq, ep, et in terms):
            raise ValueError(f"the rule of parameter {name!r} reads q, p or t")
        mapped.append((name, terms[0][0] if terms else 0j))
    return tuple(mapped), _kernel(*(_bind(rule, values) for rule in coords))


@dataclass(frozen=True, eq=False)
class _Tableau:
    """Explicit Butcher tableau.  The step propagates with weights b / div;
    an embedded pair estimates its error with the weights b_err / div."""

    a: tuple[tuple[float, ...], ...]
    c: tuple[float, ...]
    b: tuple[float, ...]
    div: float = 1
    b_err: tuple[float, ...] | None = None


def _stages(tab: _Tableau, field: CompiledField,
            size: str) -> tuple[list[str], list[str], dict]:
    """The lines of one explicit RK step of ``tab`` over ``field`` from
    (q, p, t), of the length that the local ``size`` holds, and the values
    they name: (products, stages, args).  The products set
    h{i}_{j} = size*a_ij, dt{i} = c_i*size and w = size/div from the step
    length alone, so a run of equal steps computes them once.  The stages
    set the field at each stage, kq{i} and kp{i}, H at (q, p, t), and the
    update qn, pn; with an embedded pair, also its solution qe, pe.

    Stage i > 0 starts from q + h_i0*k0 + h_i1*k1 + ..., summed left to
    right over the nonzero a_ij (RK4 then matches its textbook form), and
    raises OverflowError unless |q| <= OVERFLOW_GUARD and p is finite there
    before it evaluates the field, whose kernel lines it holds, at that
    start and t + dt_i.  Stage 0 starts from q, which the loop tests once,
    at the state it starts from; after the field it nests H at (q, p, t)
    and raises OverflowError where H is not finite.  h*a*k is
    (h*a)*k and t + c*h is t + (c*h), as a stage loop computes them.  A
    weighted sum runs left to right from its first term, with none for a
    zero weight and k for a unit one, not 1*k.  Tableau entries enter as
    floats and weights as complex numbers, the values to which CPython
    converts them in each product."""
    if any(eq < 0 or ep < 0 for spans in field._spans
           for _, eq, ep, _ in spans):
        raise ValueError("a negative power of q or p in the field or H: "
                         "integrate steps only fields free of poles")
    coeffs = {}
    f_q, f_p, H = (_named(coeffs, spans) for spans in field._spans)
    timed = any(et for *_, et in f_q + f_p)
    args = {**coeffs, "div": float(tab.div), "GUARD": OVERFLOW_GUARD,
            "isfinite": cmath.isfinite}
    products, lines = [], []
    for i, (row, c) in enumerate(zip(tab.a, tab.c)):
        js = [j for j, a in enumerate(row) if a]
        qi, pi = ("qi", "pi") if js else ("q", "p")
        for j in js:
            args[f"a{i}_{j}"] = float(row[j])
            products.append(f"h{i}_{j} = {size} * a{i}_{j}")
        if js:
            lines += [f"{v}i = {v}" + "".join(f" + h{i}_{j} * k{v}{j}"
                                              for j in js) for v in "qp"]
            lines += ["if not (abs(qi) <= GUARD and isfinite(pi)):",
                      "    raise OverflowError('a stage starts beyond the "
                      "guard')"]
        if timed:
            args[f"node{i}"] = float(c)
            products.append(f"dt{i} = node{i} * {size}")
            lines.append(f"ti = t + dt{i}")
        sums = [(f"kq{i}", f_q, (qi, pi, "ti")),
                (f"kp{i}", f_p, (qi, pi, "ti"))]
        if i == 0:
            sums.append(("H", H, (qi, pi, "t")))
        lines += _kernel_lines(sums)
        if i == 0:
            lines += ["if not isfinite(H):",
                      "    raise OverflowError('H is not finite')"]

    def weighted(prefix, weights, k):
        args.update((f"{prefix}{j}", complex(w))
                    for j, w in enumerate(weights) if w not in (0, 1))
        return " + ".join(f"{k}{j}" if w == 1 else f"{prefix}{j} * {k}{j}"
                          for j, w in enumerate(weights) if w)
    products.append(f"w = {size} / div")
    lines += [f"qn = q + w * ({weighted('b', tab.b, 'kq')})",
              f"pn = p + w * ({weighted('b', tab.b, 'kp')})"]
    if tab.b_err is not None:
        lines += [f"qe = q + w * ({weighted('e', tab.b_err, 'kq')})",
                  f"pe = p + w * ({weighted('e', tab.b_err, 'kp')})"]
    return products, lines, args


# the names of the loop's own arguments and locals, which its stages must
# not assign: the stages of nonautonomous3 set ti = t + dt_i, for one, which
# a loop argument ti would lose after the first step
_LOOP_ARGS = ("times", "qs", "ps", "hs", "h", "t1", "tol")
_LOOP_NAMES = (*_LOOP_ARGS, "add_t", "add_q", "add_p", "add_h", "t", "q",
               "p", "n", "s", "size", "t_ulp", "t_end", "returned",
               "rejected", "min_step", "min_before", "escape_at", "into",
               "charted", "reading", "star", "alpha", "span", "h_max",
               "err_prev", "t_u", "u", "u_prev", "agreed", "near", "eq", "ep",
               "err", "scale", "star_prev", "fac", "RADIUS", "ends", "probe",
               "sqrt", "inf", "nan")


def _loop_source(tab: _Tableau, field: CompiledField) -> tuple[list, dict]:
    """The body of ``CompiledField.loop``'s function for ``tab``, and the
    values it names.

    The loop holds the stages of ``_stages``.  fixed-rk4 computes its step
    products once for h, and again where the last step is shortened; an
    embedded pair computes them at each attempt, and adds the error norm,
    the PI controller and the u-estimates, in the order of ``integrate``'s
    docstring.  The test of |q| <= OVERFLOW_GUARD that stage 0 lacks runs
    once, for the state the loop starts from: each later step starts from a
    sample whose |q| passed that test.  Once the last fixed step's rule
    holds, it holds at every step after: the rounding left in t by a step
    onto t1 is below two t_ulp."""
    products, stages, args = _stages(tab, field, "s")
    assigned = {line.partition(" = ")[0] for line in products + stages}
    clash = (assigned | set(args)) & set(_LOOP_NAMES)
    assert not clash, f"the stages assign the loop's names {sorted(clash)}"
    args.update(RADIUS=ESCAPE_RADIUS, ends=_ends,
                probe=functools.partial(_chart_reading, field),
                sqrt=math.sqrt, inf=math.inf, nan=math.nan)
    adaptive = tab.b_err is not None

    def out(end, located="None, None"):
        # fixed-rk4 counts its samples, n, which every returned step adds
        # to but one that overflows
        count = ("returned" if adaptive
                 else "n" if end == "overflow" else "n - 1")
        return (f"return '{end}', {count}, rejected, min_step, min_before, "
                f"{located}")
    accept = ["size = abs(qn)",
              "if not (size <= GUARD and abs(pn) <= GUARD):",
              "    " + out("overflow"),
              "add_h(H)",
              "t += s",
              "q, p = qn, pn",
              "add_t(t)",
              "add_q(q)",
              "add_p(p)",
              *["n += 1"] * (not adaptive),
              "min_before = min_step",
              "if s < min_step:",
              "    min_step = s",
              "if size >= escape_at:",
              "    escape_at, into = 2 * size, s",
              "elif size < RADIUS:",
              "    escape_at = RADIUS"]
    if adaptive:
        start = ["span = t1 - t",
                 "h_max = max(span / 10, 1e-12)",
                 "s = min(h, h_max) if span > 0 else 0.0",
                 "err_prev = 1.0",
                 # the time of the last sample the estimates read, u = q/q'
                 # there, and how many t* estimates in a row counted
                 "t_u = u = nan",
                 "agreed = 0",
                 "near = sqrt(tol)"]
        size = ["s = min(s, t1 - t)", *products]
        step = [
            "eq = abs(qe - qn) / (tol + tol * max(abs(q), abs(qn)))",
            "ep = abs(pe - pn) / (tol + tol * max(abs(p), abs(pn)))",
            "err = sqrt((eq ** 2 + ep ** 2) / 2)",
            "returned += 1",
            "if not charted and t != t_u and kq0:",
            # q ~ C(t* - t)^-alpha has u = (t* - t)/alpha: a Newton step on
            # u = 0 through the last two samples
            "    u_prev, u = u, q / kq0",
            "    if u != u_prev:",
            "        alpha = (t_u - t) / (u - u_prev)",
            "        star_prev, star = star, t + alpha * u",
            # counts only within sqrt(tol) of t*, heading into it to tol and
            # ending before t1 by the agreement bound; a non-finite t* fails
            # one of the tests
            "        scale = max(1.0, abs(star.real))",
            "        if not (alpha.real > 0 and star.real - t <= near * scale",
            "                and ends(star, t, t1, tol)):",
            "            agreed = 0",
            "        elif agreed and abs(star - star_prev) <= tol * scale:",
            "            agreed += 1",
            "        else:",
            "            agreed = 1",
            "    t_u = t",
            "if err <= 1.0:",
            *(f"    {line}" for line in accept),
            # PI control; the memory is floored, as DOPRI5's FACOLD is: an
            # estimate of exactly 0, where both solutions agree to the last
            # bit, would cut the next step about 20-fold
            "    fac = 0.9 * (err + 1e-16) ** (-0.7 / 5.0) "
            "* (err_prev + 1e-16) ** (0.4 / 5.0)",
            "    err_prev = max(err, 1e-4)",
            "else:",
            "    rejected += 1",
            "    fac = max(0.1, 0.9 * err ** (-1 / 5.0))",
            "s = min(max(s * min(5.0, fac), 1e-12), h_max)",
            "if agreed == 3:",
            "    " + out("blow-up", "star.real, alpha.real"),
            "if s <= 1e-12 and err > 1.0:",
            "    " + out("step-underflow")]
    else:
        start = ["n = len(times)", "s = h", *products]
        size = ["if t1 - t <= h + n * t_ulp:",
                "    s = t1 - t",
                *(f"    {line}" for line in products)]
        step = accept
    return ["add_t, add_q, add_p, add_h = (times.append, qs.append, "
            "ps.append, hs.append)",
            "t, q, p = times[-1], qs[-1], ps[-1]",
            # bound on the rounding each summed step leaves in t
            "t_ulp = 2.0 ** -52 * max(abs(times[0]), abs(t1))",
            "t_end = t1 - 1e-15 * max(1.0, abs(t1))",
            "returned = rejected = 0",
            "min_step = min_before = inf",
            # the |q| the next chart probe waits for, the step into the
            # sample in hand where it reached it (else 0), and whether a
            # reading has counted
            "escape_at, into, charted = RADIUS, 0.0, False",
            "star = alpha = nan",
            *start,
            "try:",
            "    if t < t_end and not abs(q) <= GUARD:",
            "        " + out("raised"),
            "    while t < t_end:",
            "        if into:",
            "            reading = probe(q, p, t, into)",
            "            into = 0.0",
            "            if reading is not None:",
            "                charted = True",
            "                star, alpha = t + reading[0], reading[1]",
            "                if ends(star, t, t1, tol):",
            "                    " + out("blow-up", "star.real, alpha"),
            *(f"        {line}" for line in size + stages + step),
            "except OverflowError:",
            "    " + out("raised"),
            out("completed")], args


# classical RK4, weights over 6: the update is h/6*(k1 + 2k2 + 2k3 + k4)
_RK4 = _Tableau(a=((), (1 / 2,), (0, 1 / 2), (0, 0, 1)),
                c=(0, 1 / 2, 1 / 2, 1), b=(1, 2, 2, 1), div=6)
# Fehlberg 4(5) with local extrapolation: the step propagates the
# 5th-order solution, and the 4th-order one estimates its error
_FEHLBERG45 = _Tableau(
    a=((),
       (1 / 4,),
       (3 / 32, 9 / 32),
       (1932 / 2197, -7200 / 2197, 7296 / 2197),
       (439 / 216, -8, 3680 / 513, -845 / 4104),
       (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40)),
    c=(0, 1 / 4, 3 / 8, 12 / 13, 1, 1 / 2),
    b=(16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
    b_err=(25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0))
_METHODS = {"fixed-rk4": _RK4, "adaptive-rk45": _FEHLBERG45}


def _ends(star: complex, t: float, t1: float, tol: float) -> bool:
    """Whether an estimate t* ends a run at t that spans to t1: with
    gap = Re t* - t and s = max(1, |Re t*|), gap > 0, |Im t*| <= tol*gap and
    Re t* <= t1 - tol*s.  A non-finite t* fails."""
    gap = star.real - t
    return (gap > 0 and abs(star.imag) <= tol * gap
            and star.real <= t1 - tol * max(1.0, abs(star.real)))


def _chart_reading(field: CompiledField, q: complex, p: complex, t: float,
                   into: float) -> tuple[complex, float] | None:
    """t* - t and alpha read from the field's chart at the sample (q, p, t)
    where the reading counts, else None.  A reading counts only where the
    step ``into`` the sample is shorter than its real part: a longer step
    may have crossed t*, onto an orbit whose own t* lies just ahead.  Raises
    OverflowError where H at the sample is not finite, as the step from it
    would."""
    chart, H = field.chart(), field.H(q, p, t)
    if not cmath.isfinite(H):
        raise OverflowError("H is not finite")
    ahead = chart and chart.gap(q, p, H)
    if ahead is None or not into < ahead.real:
        return None
    return ahead, chart.exponent


def integrate(sys: HamSystem, params: NumericParams, q0: complex, p0: complex,
              t_span: tuple[float, float], h: float = 1e-3, tol: float = 1e-9,
              method: str = "fixed-rk4") -> Trajectory:
    """Integrate the Hamilton equations over a finite time span.

    Each method makes the whole run in one call of the field's generated
    loop (``CompiledField.loop``), whose samples, H values and statistics
    are those of a Python loop over a step of the method.  fixed-rk4 takes
    steps of h, the last one ending exactly at t1; adaptive-rk45 propagates
    Fehlberg's 5th-order solution and sizes its steps by PI control,
    remembering each accepted step's error floored at 1e-4, so that an
    error estimate of 0 does not cut the next step.  h and
    tol must be finite and positive (fixed-rk4 uses tol only to read the
    chart), and q0 and p0 finite.  Samples (t, q, p, H) at every accepted
    step; q = 0 is a regular point.  Stops cleanly (with the reason
    recorded) on ``overflow``, where |q| or |p| is not finite or exceeds
    OVERFLOW_GUARD or H is not finite, on a located blow-up, or on adaptive
    step underflow.  A negative power of q or p in the field or H is a
    ValueError, as are a start at which H is not finite and, for
    fixed-rk4, an h of at most half the spacing of floats at
    max(|t0|, |t1|), which cannot advance t.  A step to a later sample at
    which H is not finite is not accepted, like one to a q or p that
    overflows: the run ends at the sample before with ``overflow`` whatever
    it would have ended with, and its statistics are those of a run that
    evaluates H at each accepted sample.  Each sample's H is computed by the
    step that leaves it, so such a step is found only when the run has
    ended.

    A field with a regularising chart (``chart.Chart``: autonomous5 and
    general:n, n >= 3, with a != 0) is read where an accepted sample first
    has |q| >= ESCAPE_RADIUS, and again at the first sample each time |q|
    doubles; |q| < ESCAPE_RADIUS starts the count afresh.  The reading gives
    t* with alpha = 1/(n-2) from the sample and its H, or nothing where the
    chart's series may not converge.  It counts only where the step into
    the sample is shorter than the gap t* - t it reads: a longer step may
    have crossed the true t* onto an orbit whose own t* lies just ahead, as
    fixed-rk4 at h = 1e-3 does on autonomous5, which then runs on to
    ``overflow``.  Once a reading counts, the chart alone decides and the
    run makes no more estimates.  With s = max(1, |Re t*|) and
    gap = Re t* - t, the run ends at that sample with ``blow-up`` when
    gap > 0, |Im t*| <= tol*gap and Re t* <= t1 - tol*s, recording Re t*
    and alpha; its statistics are those of a run cut at that sample.  So
    the run never chases t*, and a t1 just before t* completes unless the
    run's own error at the sample exceeds the margin.

    Until a chart's reading counts, adaptive-rk45 also locates a blow-up
    q ~ C(t* - t)^-alpha from u = q/q': at each two successive samples it
    estimates alpha = -dt/du and t* = t + alpha*u.  With
    s = max(1, |Re t*|), an estimate counts when Re alpha > 0, the gap
    Re t* - t lies in (0, sqrt(tol)*s], |Im t*| <= tol*gap and
    Re t* <= t1 - tol*s.  Once three in a row count and each agrees with
    the one before to tol*s, the attempt in hand is accepted or rejected as
    usual and the run stops with ``blow-up``, recording Re t* and Re alpha
    of the last estimate.  That alpha is an estimate, not a chart's exact
    1/(n-2): general:12 runs from real q0 near 0.95 stop near |q| = 3 with
    alpha = 0.1048 for 1/10.  The estimates never cut a run more than
    sqrt(tol)*s before t*, however early they agree (sqrt(tol)*s is
    halfway, on a log scale, from their agreement to s).
    Their error can exceed their agreement: a t1 within a few tol*s of t*
    may end in ``blow-up`` though q is regular on [t0, t1], and a flow
    that passes within tol*gap of a complex singularity counts as meeting
    it.  Step control depends on neither the estimates nor the chart, so
    each sample is the one a run without them makes.  fixed-rk4 makes no
    estimates.
    """
    import numpy as np
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    for name, value in (("h", h), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    tab = _METHODS[method]
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 >= t0):
        raise ValueError(f"bad time span {t_span}")
    if not (cmath.isfinite(q0) and cmath.isfinite(p0)):
        raise ValueError(f"start state must be finite, got q0 = {q0}, "
                         f"p0 = {p0}")
    largest = max(abs(t0), abs(t1))
    if tab is _RK4 and h <= math.ulp(largest) / 2:
        raise ValueError(f"h = {h} cannot advance t: it is at most half the "
                         f"spacing of floats at |t| = {largest}")
    field = compile_field(sys, params)
    # each sample's H comes from the step that leaves it, the last one's
    # from field.H after the run
    times, qs, ps, hs = [t0], [complex(q0)], [complex(p0)], []
    end, returned, rejected, min_step, min_before, t_star, alpha = \
        field.loop(tab)(times, qs, ps, hs, h, t1, tol)
    raised = end == "raised"
    termination = "overflow" if raised else end
    t, q, p = times[-1], qs[-1], ps[-1]
    H = field.H(q, p, t)
    if cmath.isfinite(H):
        hs.append(H)
    elif len(times) == 1:
        raise ValueError(f"H is not finite at the start state q0 = {q}, "
                         f"p0 = {p}, t0 = {t}: H = {H}")
    else:
        # the step to the last sample is not accepted, as one whose q or p
        # overflows is not, so no attempt left that sample
        del times[-1], qs[-1], ps[-1]
        termination, raised, min_step = "overflow", False, min_before
        t_star = alpha = None
    return Trajectory(np.array(times, np.float64),
                      np.array(qs, np.complex128), np.array(ps, np.complex128),
                      np.array(hs, np.complex128), termination,
                      steps_attempted=returned + raised,
                      steps_rejected=rejected,
                      field_evals=len(tab.c) * returned,
                      min_step=min_step if min_step < math.inf else None,
                      t_star=t_star, exponent=alpha)


def check_symmetry_on_trajectory(traj: Trajectory, m: BirationalMap,
                                 sys: HamSystem, params: NumericParams) -> float:
    """Finite-difference defect of the transformed path against the
    transformed system's field; small residual confirms invariance numerically.

    Maps all samples at once with the compiled map rules, central-differences
    (Q, P) against the (possibly complex) transformed time grid, and compares
    with the compiled field of the system at the mapped parameters.  Returns
    the max defect.  A sample without a finite image raises ValueError.
    """
    import numpy as np
    params.check_complete(sys)
    mapped, coords = compile_map(m, params.values)
    q, p, t = traj.q, traj.p, traj.times.astype(complex)
    with np.errstate(all="ignore"):  # tested below, sample by sample
        # a rule free of q, p and t evaluates to one number: spread it
        Q, P, T = (np.broadcast_to(v, q.shape) for v in coords(q, p, t))
    finite = np.isfinite(Q) & np.isfinite(P) & np.isfinite(T)
    if not finite.all():
        when = traj.times[finite.argmin()]
        raise ValueError(f"{m.name} has no finite image at t = {when}")
    if len(traj.times) < 3:
        return 0.0
    field = compile_field(sys, NumericParams(sys.name, dict(mapped), sys.n))
    fq, fp = field(Q[1:-1], P[1:-1], T[1:-1])
    dT = T[2:] - T[:-2]
    return float(max(np.abs((Q[2:] - Q[:-2]) / dT - fq).max(),
                     np.abs((P[2:] - P[:-2]) / dT - fp).max()))


def measure_order(errors_by_h: list[tuple[float, float]]) -> float:
    """Richardson-style order estimate from (h, error) pairs, h halving.
    Each h and each error must be finite and positive, successive h must
    differ, and the ratios of successive h and errors must not underflow or
    overflow."""
    if len(errors_by_h) < 2:
        raise ValueError("need at least two (h, error) pairs")
    rates = []
    for (h1, e1), (h2, e2) in zip(errors_by_h, errors_by_h[1:]):
        pair = f"(h, error) pairs {(h1, e1)} and {(h2, e2)}"
        if h1 == h2:
            raise ValueError(f"no order from {pair}: equal h")
        if not all(math.isfinite(x) and x > 0 for x in (h1, e1, h2, e2)):
            raise ValueError(f"no order from {pair}: each h and error must "
                             f"be finite and positive")
        if not (0 < e1 / e2 < math.inf and 0 < h1 / h2 < math.inf):
            raise ValueError(f"no order from {pair}: a ratio leaves the "
                             f"float range")
        rates.append(math.log(e1 / e2) / math.log(h1 / h2))
    return sum(rates) / len(rates)


def richardson_order(sys: HamSystem, params: NumericParams, q0: complex,
                     p0: complex, t_span: tuple[float, float],
                     hs: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)) -> float:
    """Measured RK4 convergence order from successive solution differences
    at the common final time (no exact solution needed).  Two h give one
    difference and an order needs two, so fewer than three h values are a
    ValueError, raised before any run."""
    if len(hs) < 3:
        raise ValueError(f"a sweep needs at least three h values, got "
                         f"{len(hs)}")
    finals = []
    for h in hs:
        traj = integrate(sys, params, q0, p0, t_span, h=h, method="fixed-rk4")
        if traj.termination != "completed":
            raise ValueError(f"sweep run at h={h} ended with "
                             f"{traj.termination}")
        finals.append((traj.q[-1], traj.p[-1]))
    diffs = [math.hypot(abs(qa - qb), abs(pa - pb))
             for (qa, pa), (qb, pb) in zip(finals, finals[1:])]
    return measure_order(list(zip(hs, diffs)))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """RFC-4180 CSV, '.' decimal, 17 significant digits, one row per step."""
    g = lambda x: f"{x:.17g}"
    h0 = traj.H_values[0] if len(traj.H_values) else 0j
    running = 0.0
    with open(path, "w", newline="") as fh:
        fh.write("t,re_q,im_q,re_p,im_p,re_H,im_H,drift\r\n")
        for t, q, p, H in zip(traj.times, traj.q, traj.p, traj.H_values):
            running = max(running, abs(H - h0))
            fh.write(",".join([g(t), g(q.real), g(q.imag), g(p.real),
                               g(p.imag), g(H.real), g(H.imag),
                               g(running)]) + "\r\n")
