"""Numerical integration of the complex-valued Hamilton equations.

The symbolic fields are compiled once (parameters bound to complex numbers)
and then stepped by one explicit Runge-Kutta engine driven by a Butcher
tableau: classical RK4 at a fixed step, or the embedded Fehlberg 4(5) pair
with PI step-size control.  Along the way the Hamiltonian is sampled so drift
can be monitored: for the autonomous families H is a first integral and the drift
is a direct error measure; for the non-autonomous family dH/dt = q^3 p + a2 q^2
is nonzero and is checked against finite differences instead.

q = 0 is a genuine singular locus of the dynamics; integration stops cleanly
(never NaN-propagates) when a trajectory approaches it or blows up.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .hamiltonian import HamSystem, hamilton_equations
from .poly import LaurentPoly
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


@dataclass
class Trajectory:
    """Time grid with complex (q, p) samples and conservation diagnostics."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    H_values: np.ndarray
    termination: str  # completed | singularity | overflow | step-underflow
    drift: float = field(init=False)

    def __post_init__(self):
        if not (len(self.times) == len(self.q) == len(self.p)
                == len(self.H_values)):
            raise ValueError("sample arrays must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        self.drift = float(np.max(np.abs(self.H_values - self.H_values[0]))) \
            if len(self.H_values) else 0.0


class CompiledPoly:
    """A LaurentPoly with parameters bound, reduced to (coeff, eq, ep, et) terms."""

    __slots__ = ("spans",)

    def __init__(self, poly: LaurentPoly, params: dict[str, complex]):
        tbl = poly.table
        iq, ip, it = tbl.index("q"), tbl.index("p"), tbl.index("t")
        pidx = {tbl.index(k): complex(v) for k, v in params.items()}
        merged: dict[tuple[int, int, int], complex] = {}
        for exps, coeff in poly.terms.items():
            c = complex(coeff)
            for i, e in enumerate(exps):
                if e and i not in (iq, ip, it):
                    if i not in pidx:
                        raise ValueError(
                            f"unbound parameter {tbl.names[i]!r}")
                    c *= pidx[i] ** e
            key = (exps[iq], exps[ip], exps[it])
            merged[key] = merged.get(key, 0j) + c
        self.spans = [(c, eq, ep, et) for (eq, ep, et), c in merged.items()
                      if c != 0]

    def __call__(self, q: complex, p: complex, t: float | complex) -> complex:
        total = 0j
        for c, eq, ep, et in self.spans:
            v = c
            if eq:
                v *= q ** eq
            if ep:
                v *= p ** ep
            if et:
                v *= t ** et
            total += v
        return total


class CompiledField:
    """Numeric vector field (q, p, t) -> (dq/dt, dp/dt) for one parameter set."""

    def __init__(self, sys: HamSystem, params: NumericParams):
        params.check_complete(sys)
        f_q, f_p = hamilton_equations(sys)
        self.f_q = CompiledPoly(f_q, params.values)
        self.f_p = CompiledPoly(f_p, params.values)
        self.H = CompiledPoly(sys.H, params.values)

    def __call__(self, q: complex, p: complex, t) -> tuple[complex, complex]:
        return self.f_q(q, p, t), self.f_p(q, p, t)


def compile_field(sys: HamSystem, params: NumericParams) -> CompiledField:
    return CompiledField(sys, params)


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


def _rk_step(tab: _Tableau, q: complex, p: complex, t: float, h: float,
             field: CompiledField, tol: float = 0.0):
    """One explicit RK step: (q, p, err).  err is the RMS over q and p of
    the embedded pair's error over tol*(1 + max(|old|, |new|)), else 0."""
    kq, kp = [], []
    for row, c in zip(tab.a, tab.c):
        qi, pi = q, p
        for a, dq, dp in zip(row, kq, kp):
            if a:  # zeros add nothing; RK4 then matches its textbook form
                qi += h * a * dq
                pi += h * a * dp
        _guard(t, qi)
        dq, dp = field(qi, pi, t + c * h)
        kq.append(dq)
        kp.append(dp)
    w = h / tab.div
    qn = q + w * sum(map(mul, tab.b, kq))
    pn = p + w * sum(map(mul, tab.b, kp))
    if tab.b_err is None:
        return qn, pn, 0.0
    qe = q + w * sum(map(mul, tab.b_err, kq))
    pe = p + w * sum(map(mul, tab.b_err, kp))
    eq = abs(qe - qn) / (tol + tol * max(abs(q), abs(qn)))
    ep = abs(pe - pn) / (tol + tol * max(abs(p), abs(pn)))
    return qn, pn, math.sqrt((eq ** 2 + ep ** 2) / 2)


def step_rk4(state: tuple[complex, complex], t: float, h: float,
             field: CompiledField) -> tuple[complex, complex]:
    """One classical 4th-order Runge-Kutta step over complex state."""
    return _rk_step(_RK4, *state, t, h, field)[:2]


def integrate(sys: HamSystem, params: NumericParams, q0: complex, p0: complex,
              t_span: tuple[float, float], h: float = 1e-3, tol: float = 1e-9,
              method: str = "fixed-rk4") -> Trajectory:
    """Integrate the Hamilton equations over a finite time span.

    fixed-rk4 takes steps of h, the last one ending exactly at t1;
    adaptive-rk45 sizes them by PI control.  h and tol must be finite and
    positive (fixed-rk4 ignores tol).  Samples (t, q, p, H) at every
    accepted step.  Stops cleanly (with the reason recorded) at the |q|
    singularity floor, on numeric overflow, or on adaptive step underflow.
    """
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

    t, q, p = t0, complex(q0), complex(p0)
    times, qs, ps, hs = [t], [q], [p], [field.H(q, p, t)]
    termination = "completed"
    span = t1 - t0
    h_min, h_max = 1e-12, max(span / 10, 1e-12)
    step = min(h, h_max) if span > 0 else 0.0
    safety, p_order = 0.9, 5.0
    err_prev = 1.0
    # bound on the rounding each summed step leaves in t
    t_ulp = 2.0 ** -52 * max(abs(t0), abs(t1))
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        if adaptive:
            step = min(step, t1 - t)
        else:  # end on t1 rather than leave a rounding-level sliver
            step = t1 - t if t1 - t <= h + len(times) * t_ulp else h
        try:
            qn, pn, err = _rk_step(tab, q, p, t, step, field, tol)
        except SingularityError:
            termination = "singularity"
            break
        except (BlowupError, OverflowError):
            termination = "overflow"
            break
        if err <= 1.0:  # accept (a fixed step has err = 0)
            t += step
            q, p = qn, pn
            if not (cmath.isfinite(q) and cmath.isfinite(p)) \
                    or abs(q) > OVERFLOW_GUARD or abs(p) > OVERFLOW_GUARD:
                termination = "overflow"
                break
            times.append(t)
            qs.append(q)
            ps.append(p)
            hs.append(field.H(q, p, t))
        if not adaptive:
            continue
        if err <= 1.0:  # PI controller
            fac = safety * (err + 1e-16) ** (-0.7 / p_order) \
                * (err_prev + 1e-16) ** (0.4 / p_order)
            err_prev = err
        else:
            fac = max(0.1, safety * err ** (-1 / p_order))
        step = min(max(step * min(5.0, fac), h_min), h_max)
        if step <= h_min and err > 1.0:
            termination = "step-underflow"
            break

    return Trajectory(np.array(times), np.array(qs), np.array(ps),
                      np.array(hs), termination)


def check_symmetry_on_trajectory(traj: Trajectory, m: BirationalMap,
                                 sys: HamSystem, params: NumericParams) -> float:
    """Finite-difference defect of the transformed path against the
    transformed system's field; small residual confirms invariance numerically.

    Maps all samples at once with the compiled map rules, central-differences
    (Q, P) against the (possibly complex) transformed time grid, and compares
    with the compiled field of the system at the mapped parameters.  Returns
    the max defect.
    """
    params.check_complete(sys)
    near = np.abs(traj.q) < SINGULARITY_FLOOR
    if near.any():
        raise SingularityError(float("nan"), traj.q[near.argmax()])
    if len(traj.times) < 3:
        return 0.0
    q, p, t = traj.q, traj.p, traj.times.astype(complex)
    compiled = lambda rule: CompiledPoly(rule, params.values)
    mapped = {name: compiled(r)(0, 0, 0) for name, r in m.param_rules.items()}
    # a rule free of q, p and t evaluates to one number: spread it per sample
    Q, P, T = (np.broadcast_to(compiled(r)(q, p, t), q.shape)
               for r in (m.q_rule, m.p_rule, m.t_rule))
    field = compile_field(sys, NumericParams(sys.name, mapped, sys.n))
    fq, fp = field(Q[1:-1], P[1:-1], T[1:-1])
    dT = T[2:] - T[:-2]
    return float(max(np.abs((Q[2:] - Q[:-2]) / dT - fq).max(),
                     np.abs((P[2:] - P[:-2]) / dT - fp).max()))


def measure_order(errors_by_h: list[tuple[float, float]]) -> float:
    """Richardson-style order estimate from (h, error) pairs, h halving."""
    if len(errors_by_h) < 2:
        raise ValueError("need at least two (h, error) pairs")
    rates = []
    for (h1, e1), (h2, e2) in zip(errors_by_h, errors_by_h[1:]):
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
