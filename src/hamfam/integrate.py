"""Numerical integration of the complex-valued Hamilton equations.

Each symbolic field is compiled once per (system, parameter values) pair:
the parameters are bound to complex numbers and the polynomials become one
straight-line Python function, generated with a single ``exec``, that does
the term-by-term operations of a plain evaluation loop in the same order, so
every float matches that loop.  Each power of q or p with exponent 1..100
costs one complex multiply: the kernel shares the squares and partial
products of the chain that CPython's ``z**k`` runs for such k, so on
complex scalars every power has the bits of ``**`` and raises where ``**``
raises, and on numpy arrays the same chain runs in numpy arithmetic.
Powers of t, negative powers and exponents above 100 keep ``**``.  There
are two compile entries, each with a bounded cache keyed by exact parameter
bits: ``compile_field`` for a system's field, and ``compile_map`` for a
map's rules.
The field is stepped by one explicit Runge-Kutta engine driven by a Butcher
tableau: classical RK4 at a fixed step, or the embedded Fehlberg 4(5) pair
with PI step-size control.  Each tableau's step is generated the same way,
once, as one straight-line function with its stages unrolled and the same
operations in the same order as a stage loop.  Along the way the Hamiltonian
is sampled so drift can be monitored: for the autonomous families H is a
first integral and the drift is a direct error measure; for the
non-autonomous family dH/dt = q^3 p + a2 q^2 is nonzero and is checked
against finite differences instead.  The compiled map rules serve both the
trajectory check and ``BirationalMap.apply_numeric``.

Hamilton's equations are polynomial, so q = 0 is not a singularity of the
dynamics; the |q| floor is the integrator's own guard, and integration
stops cleanly there (never NaN-propagates), as it does when a trajectory
blows up.  Near a movable singularity t*, q ~ C(t* - t)^-alpha, so
u = q/q' equals (t* - t)/alpha; the adaptive run reads u at each sample from
its step's first stage, at no extra field evaluation, and estimates
alpha = -dt/du and t* = t + alpha*u from each two samples, which is a Newton
step on u = 0 (Corliss & Chang, ACM TOMS 8, 1982).  It stops with the
blow-up located once it is within sqrt(tol) of t* and three estimates in a
row agree to its own tolerance, instead of chasing t* until its step
underflows.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .hamiltonian import COORD_VARS, HamSystem, hamilton_equations
from .poly import LaurentPoly

if TYPE_CHECKING:
    from .symmetry import BirationalMap

SINGULARITY_FLOOR = 1e-8
OVERFLOW_GUARD = 1e12


class SingularityError(RuntimeError):
    """A stage evaluation fell inside the |q| singularity floor."""

    def __init__(self, t: float, q: complex):
        super().__init__(f"|q| = {abs(q):.3e} inside singularity floor at t = {t}")
        self.t = t
        self.q = q


class BlowupError(RuntimeError):
    """State left the finite-magnitude guard (movable singularity reached)."""


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
        missing = [p for p in sys.params if p not in self.values]
        unknown = [p for p in self.values if p not in sys.params]
        if missing or unknown:
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
    # completed | singularity | overflow | blow-up | step-underflow
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


# terms per generated statement: one expression of a few thousand terms
# exceeds the compiler's recursion limit
_TERMS_PER_LINE = 200


def _generate(signature: str, lines: list[str], args: dict):
    """The function ``def fn{signature}`` with body ``lines``, built with a
    single ``exec``.  The values in ``args`` enter as arguments of a factory
    function that ``fn`` closes over, so the source text holds only names."""
    source = (f"def factory({', '.join(args)}):\n    def fn{signature}:\n"
              + "".join(f"        {line}\n" for line in lines)
              + "    return fn\n")
    namespace = {}
    exec(compile(source, "<hamfam generated>", "exec"), namespace)
    # popped, so that the function's globals do not hold the factory in a
    # cycle
    return namespace.pop("factory")(**args)


# CPython computes z**k for an int 0 < k <= 100 by binary exponentiation
# (c_powu in Objects/complexobject.c) and in polar form past 100
_CHAIN_MAX = 100


def _power_lines(powers: dict[str, tuple[str, int]]) -> tuple[list[str],
                                                                dict]:
    """Lines that set each local ``name`` of ``powers`` ({name: (v, k)}, in
    the order the terms first use them) to v**k, and the values they name.

    A power of q or p with 0 < k <= 100 follows the multiplications of
    CPython's ``z**k`` for such k, shared across the kernel: the squares
    v*v, (v*v)*(v*v), ... up to the highest set bit hb of the largest k are
    computed once, and v^k = v^(k - hb) * v^hb with v^0 the constant 1+0j
    (``1*z`` is not bitwise z), so each power costs one multiply and has the
    bits of v**k, signed zeros, infinities and NaNs included.

    ``**`` raises OverflowError where its result has an infinite part.  The
    largest power of each variable is finite only if every smaller one is,
    so when the largest powers are complex scalars one test of their sum
    guards a line that evaluates every power with ``**`` in the terms'
    order, and raises there what the ``**`` kernel raises.  On arrays the
    chain follows numpy, which warns and goes on.  Powers of t (a float
    t**k is libm pow), negative powers (``**`` raises ZeroDivisionError at
    0) and k > 100 keep ``**``.
    """
    chains, kept = {"q": set(), "p": set()}, []
    for name, (v, k) in powers.items():
        if v in chains and 0 < k <= _CHAIN_MAX:
            while k:  # v^k needs v^(k - hb), which needs ...
                chains[v].add(k)
                k -= 1 << k.bit_length() - 1
        else:
            kept.append(f"{name} = {v}**{k}")
    lines, tops = [], []
    for v, ks in chains.items():
        if not ks:
            continue
        square = lambda hb: v if hb == 1 else f"{v}_{hb}"
        top = max(ks)
        for b in range(1, top.bit_length()):
            lines.append(f"{square(1 << b)} = {square(1 << b - 1)} * "
                         f"{square(1 << b - 1)}")
        for k in sorted(ks):
            hb = 1 << k.bit_length() - 1
            low = f"{v}{k - hb}" if k > hb else "one"
            lines.append(f"{v}{k} = {low} * {square(hb)}")
        tops.append(f"{v}{top}")
    if not tops:
        return kept, {}
    scalar = " and ".join(f"type({top}) is complex" for top in tops)
    check = [f"if {scalar} and not isfinite({' + '.join(tops)}):",
             "    " + ", ".join(f"{v}**{k}" for v, k in powers.values())]
    return lines + check + kept, {"isfinite": cmath.isfinite, "one": 1 + 0j}


def _kernel(*polys: list):
    """One straight-line function (q, p, t) -> the value of each bound
    polynomial (a tuple for more than one).

    Each term is ((c*q**eq)*p**ep)*t**et with zero exponents left out, and a
    polynomial's terms are summed left to right from 0j.  q, p and t may be
    complex scalars or numpy arrays.  Each power is computed once, into a
    local that every term using it reads; ``_power_lines`` shares the
    multiplications of the powers of q and p along CPython's chain for
    ``**``, so with complex scalars every value and every exception is that
    of a kernel that computes each power with ``**``, and arrays follow the
    same chain in numpy arithmetic.  The source text holds only local
    names and the int exponents."""
    coeffs, powers, lines = {}, {}, []
    for k, spans in enumerate(polys):
        terms = []
        for c, *exps in spans:
            factors = [f"c{len(coeffs)}"]
            coeffs[factors[0]] = c
            for v, e in zip("qpt", exps):
                if e:
                    name = f"{v}{e}" if e > 0 else f"{v}m{-e}"
                    powers[name] = (v, e)
                    factors.append(name)
            terms.append("*".join(factors))
        total = "0j"
        for i in range(0, max(len(terms), 1), _TERMS_PER_LINE):
            lines.append(f"s{k} = " + " + ".join(
                [total] + terms[i:i + _TERMS_PER_LINE]))
            total = f"s{k}"
    power_lines, args = _power_lines(powers)
    lines = power_lines + lines
    lines.append("return " + ", ".join(f"s{k}" for k in range(len(polys))))
    return _generate("(q, p, t)", lines, {**coeffs, **args})


class CompiledField:
    """Numeric vector field (q, p, t) -> (dq/dt, dp/dt) for one parameter
    set: one kernel for both components, and ``H`` for the Hamiltonian."""

    __slots__ = ("_kernel", "H")

    def __init__(self, sys: HamSystem, values: dict[str, complex]):
        f_q, f_p = hamilton_equations(sys)
        self._kernel = _kernel(_bind(f_q, values), _bind(f_p, values))
        self.H = _kernel(_bind(sys.H, values))

    def __call__(self, q: complex, p: complex, t) -> tuple[complex, complex]:
        return self._kernel(q, p, t)


def _bits(values: dict) -> tuple:
    """(name, real bits, imaginary bits) of each value, in name order: a
    cache key in which 0.0 and -0.0 differ."""
    return tuple((name, z.real.hex(), z.imag.hex())
                 for name, z in sorted((name, complex(v))
                                       for name, v in values.items()))


def _unbits(key: tuple) -> dict[str, complex]:
    return {name: complex(float.fromhex(re), float.fromhex(im))
            for name, re, im in key}


def compile_field(sys: HamSystem, params: NumericParams) -> CompiledField:
    """The compiled field of ``sys`` at ``params``, which are checked on
    every call.  Fields are cached by the system's value and the exact bits
    of each parameter, so 0.0 and -0.0 never share a field."""
    params.check_complete(sys)
    return _field_cache(sys, _bits(params.values))


@functools.lru_cache(maxsize=32)
def _field_cache(sys: HamSystem, key: tuple) -> CompiledField:
    return CompiledField(sys, _unbits(key))


def compile_map(m: BirationalMap, values: dict[str, complex]):
    """The rules of ``m`` compiled at the parameter ``values``: the mapped
    parameter values, as (name, value) pairs, and one kernel (q, p, t) ->
    (Q, P, T).  Cached like the fields, by the rules and the exact bits of
    each value."""
    return _map_cache((m.q_rule, m.p_rule, m.t_rule,
                       tuple(m.param_rules.items())), _bits(values))


@functools.lru_cache(maxsize=32)
def _map_cache(rules: tuple, key: tuple):
    values = _unbits(key)
    *coords, param_rules = rules
    mapped = tuple((name, _kernel(_bind(rule, values))(0, 0, 0))
                   for name, rule in param_rules)
    return mapped, _kernel(*(_bind(rule, values) for rule in coords))


def _guard(t, q):
    if not cmath.isfinite(q):
        raise BlowupError(f"non-finite q at t = {t}")
    if abs(q) < SINGULARITY_FLOOR:
        raise SingularityError(t, q)
    if abs(q) > OVERFLOW_GUARD:
        raise BlowupError(f"|q| = {abs(q):.3e} above overflow guard at t = {t}")


@dataclass(frozen=True)
class _Tableau:
    """Explicit Butcher tableau.  The step propagates with weights b / div;
    an embedded pair estimates its error with the weights b_err / div."""

    a: tuple[tuple[float, ...], ...]
    c: tuple[float, ...]
    b: tuple[float, ...]
    div: float = 1
    b_err: tuple[float, ...] | None = None
    # step(q, p, t, h, f, tol) -> (q, p, err, dq/dt at the start), generated
    # from the entries
    step: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "step", _generate(
            "(q, p, t, h, f, tol)", *_step_source(self)))


def _step_source(tab: _Tableau) -> tuple[list[str], dict]:
    """The body of one explicit RK step over the field f, and the values it
    names.  err is the RMS over q and p of the embedded pair's error over
    tol*(1 + max(|old|, |new|)), else 0.  The step also returns its first
    stage's dq/dt, the field at the start when c_0 = 0.

    Stage i starts from q + h*a_i0*k0 + h*a_i1*k1 + ..., summed left to
    right over the nonzero a_ij (RK4 then matches its textbook form), and
    stops at the |q| guard before it calls f.  Each h*a_ij is computed once
    per stage, for q and p: h*a*k is (h*a)*k.  The weights, zeros included,
    are summed left to right from the int 0, as ``sum`` does."""
    args = {"div": tab.div, "FLOOR": SINGULARITY_FLOOR,
            "GUARD": OVERFLOW_GUARD, "guard": _guard, "sqrt": math.sqrt}
    lines = []
    for i, (row, c) in enumerate(zip(tab.a, tab.c)):
        js = [j for j, a in enumerate(row) if a]
        for j in js:
            args[f"a{i}_{j}"] = row[j]
            lines.append(f"ha{j} = h * a{i}_{j}")
        for v in "qp":
            lines.append(f"{v}i = {v}" + "".join(f" + ha{j} * k{v}{j}"
                                                 for j in js))
        args[f"c{i}"] = c
        lines += ["if not FLOOR <= abs(qi) <= GUARD:", "    guard(t, qi)",
                  f"kq{i}, kp{i} = f(qi, pi, t + c{i} * h)"]

    def weighted(prefix, weights, k):
        args.update((f"{prefix}{j}", w) for j, w in enumerate(weights))
        return " + ".join(["0"] + [f"{prefix}{j} * {k}{j}"
                                   for j in range(len(weights))])
    lines += ["w = h / div",
              f"qn = q + w * ({weighted('b', tab.b, 'kq')})",
              f"pn = p + w * ({weighted('b', tab.b, 'kp')})"]
    if tab.b_err is None:
        return lines + ["return qn, pn, 0.0, kq0"], args
    return lines + [
        f"qe = q + w * ({weighted('e', tab.b_err, 'kq')})",
        f"pe = p + w * ({weighted('e', tab.b_err, 'kp')})",
        "eq = abs(qe - qn) / (tol + tol * max(abs(q), abs(qn)))",
        "ep = abs(pe - pn) / (tol + tol * max(abs(p), abs(pn)))",
        "return qn, pn, sqrt((eq ** 2 + ep ** 2) / 2), kq0"], args


# classical RK4, weights over 6: the update is h/6*(k1 + 2k2 + 2k3 + k4)
_RK4 = _Tableau(a=((), (1 / 2,), (0, 1 / 2), (0, 0, 1)),
                c=(0, 1 / 2, 1 / 2, 1), b=(1, 2, 2, 1), div=6)
# Fehlberg 4(5): 4th-order propagation, 5th-order error estimate
_FEHLBERG45 = _Tableau(
    a=((),
       (1 / 4,),
       (3 / 32, 9 / 32),
       (1932 / 2197, -7200 / 2197, 7296 / 2197),
       (439 / 216, -8, 3680 / 513, -845 / 4104),
       (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40)),
    c=(0, 1 / 4, 3 / 8, 12 / 13, 1, 1 / 2),
    b=(25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0),
    b_err=(16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55))
_METHODS = {"fixed-rk4": _RK4, "adaptive-rk45": _FEHLBERG45}


def integrate(sys: HamSystem, params: NumericParams, q0: complex, p0: complex,
              t_span: tuple[float, float], h: float = 1e-3, tol: float = 1e-9,
              method: str = "fixed-rk4") -> Trajectory:
    """Integrate the Hamilton equations over a finite time span.

    fixed-rk4 takes steps of h, the last one ending exactly at t1;
    adaptive-rk45 sizes them by PI control.  h and tol must be finite and
    positive (fixed-rk4 ignores tol).  Samples (t, q, p, H) at every
    accepted step.  Stops cleanly (with the reason recorded) at the |q|
    singularity floor, on numeric overflow, on a located blow-up, or on
    adaptive step underflow.

    adaptive-rk45 locates a blow-up q ~ C(t* - t)^-alpha: from u = q/q' at
    each two successive samples it estimates alpha = -dt/du and
    t* = t + alpha*u.  With s = max(1, |Re t*|), an estimate counts when
    Re alpha > 0, the gap Re t* - t lies in (0, sqrt(tol)*s],
    |Im t*| <= tol*gap and Re t* <= t1 - tol*s.  Once three in a row count
    and each agrees with the one before to tol*s, the attempt in hand is
    accepted or rejected as usual and the run stops with ``blow-up``,
    recording Re t* and Re alpha of the last estimate.  So a run is never
    cut more than sqrt(tol)*s before t*, however early its estimates agree
    (sqrt(tol)*s is halfway, on a log scale, from their agreement to s).
    Their error can exceed their agreement: a t1 within a few tol*s of t*
    may end in ``blow-up`` though q is regular on [t0, t1], and a flow
    that passes within tol*gap of a complex singularity counts as meeting
    it.  Step control does not depend on the estimates, so each
    sample is the one a run without the locator makes.  fixed-rk4 makes no
    estimates.
    """
    import numpy as np
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    for name, value in (("h", h), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    tab = _METHODS[method]
    adaptive = tab.b_err is not None
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 >= t0):
        raise ValueError(f"bad time span {t_span}")
    if abs(q0) < SINGULARITY_FLOOR:
        raise SingularityError(t0, q0)
    field = compile_field(sys, params)
    f, H, advance = field._kernel, field.H, tab.step

    t, q, p = t0, complex(q0), complex(p0)
    times, qs, ps, hs = [t], [q], [p], [H(q, p, t)]
    add_t, add_q, add_p, add_h = times.append, qs.append, ps.append, hs.append
    termination = "completed"
    returned = raised = rejected = 0
    min_step = math.inf
    span = t1 - t0
    h_min, h_max = 1e-12, max(span / 10, 1e-12)
    step = min(h, h_max) if span > 0 else 0.0
    safety, p_order = 0.9, 5.0
    err_prev = 1.0
    # bound on the rounding each summed step leaves in t
    t_ulp = 2.0 ** -52 * max(abs(t0), abs(t1))
    t_end = t1 - 1e-15 * max(1.0, abs(t1))
    # the blow-up locator: the time of the last sample it read, u = q/q' at
    # that sample, its t* estimate, and how many estimates in a row counted
    t_u = u = star = math.nan
    agreed = 0
    near = math.sqrt(tol)
    while t < t_end:
        if adaptive:
            step = min(step, t1 - t)
        else:  # end on t1 rather than leave a rounding-level sliver
            step = t1 - t if t1 - t <= h + len(times) * t_ulp else h
        try:
            qn, pn, err, dq = advance(q, p, t, step, f, tol)
        except SingularityError:
            termination, raised = "singularity", 1
            break
        except (BlowupError, OverflowError):
            termination, raised = "overflow", 1
            break
        returned += 1
        if adaptive and t != t_u and dq:
            # q ~ C(t* - t)^-alpha has u = (t* - t)/alpha: a Newton step on
            # u = 0 through the last two samples
            u_prev, u = u, q / dq
            if u != u_prev:
                alpha = (t_u - t) / (u - u_prev)
                star_prev, star = star, t + alpha * u
                # counts only within sqrt(tol) of t*, heading into it to tol
                # and ending before t1 by the agreement bound; a non-finite
                # t* fails one of the tests
                gap, scale = star.real - t, max(1.0, abs(star.real))
                close = tol * scale
                if not (alpha.real > 0 and 0 < gap <= near * scale
                        and abs(star.imag) <= tol * gap
                        and star.real <= t1 - close):
                    agreed = 0
                elif agreed and abs(star - star_prev) <= close:
                    agreed += 1
                else:
                    agreed = 1
            t_u = t
        if err <= 1.0:  # accept (a fixed step has err = 0)
            t += step
            q, p = qn, pn
            if not (cmath.isfinite(q) and cmath.isfinite(p)) \
                    or abs(q) > OVERFLOW_GUARD or abs(p) > OVERFLOW_GUARD:
                termination = "overflow"
                break
            add_t(t)
            add_q(q)
            add_p(p)
            add_h(H(q, p, t))
            if step < min_step:
                min_step = step
        if not adaptive:
            continue
        if err <= 1.0:  # PI controller
            fac = safety * (err + 1e-16) ** (-0.7 / p_order) \
                * (err_prev + 1e-16) ** (0.4 / p_order)
            err_prev = err
        else:
            rejected += 1
            fac = max(0.1, safety * err ** (-1 / p_order))
        step = min(max(step * min(5.0, fac), h_min), h_max)
        if agreed == 3:
            termination = "blow-up"
            break
        if step <= h_min and err > 1.0:
            termination = "step-underflow"
            break

    located = termination == "blow-up"
    return Trajectory(np.array(times), np.array(qs), np.array(ps),
                      np.array(hs), termination,
                      steps_attempted=returned + raised,
                      steps_rejected=rejected,
                      field_evals=len(tab.c) * returned,
                      min_step=min_step if min_step < math.inf else None,
                      t_star=star.real if located else None,
                      exponent=alpha.real if located else None)


def check_symmetry_on_trajectory(traj: Trajectory, m: BirationalMap,
                                 sys: HamSystem, params: NumericParams) -> float:
    """Finite-difference defect of the transformed path against the
    transformed system's field; small residual confirms invariance numerically.

    Maps all samples at once with the compiled map rules, central-differences
    (Q, P) against the (possibly complex) transformed time grid, and compares
    with the compiled field of the system at the mapped parameters.  Returns
    the max defect.
    """
    import numpy as np
    params.check_complete(sys)
    near = np.abs(traj.q) < SINGULARITY_FLOOR
    if near.any():
        raise SingularityError(float("nan"), traj.q[near.argmax()])
    if len(traj.times) < 3:
        return 0.0
    mapped, coords = compile_map(m, params.values)
    q, p, t = traj.q, traj.p, traj.times.astype(complex)
    # a rule free of q, p and t evaluates to one number: spread it per sample
    Q, P, T = (np.broadcast_to(v, q.shape) for v in coords(q, p, t))
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
    at the common final time (no exact solution needed)."""
    finals = []
    for h in hs:
        traj = integrate(sys, params, q0, p0, t_span, h=h, method="fixed-rk4")
        if traj.termination != "completed":
            raise RuntimeError(f"sweep run at h={h} ended with "
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
