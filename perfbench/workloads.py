"""The benchmark's workloads, ``certify`` and ``flow``.

Each workload turns a seed into a list of operations.  An operation's ``run``
is the timed call into hamfam; its ``check`` runs afterwards, outside the
timed region, and returns None or the reason the output is wrong.  Each
operation belongs to a group (``general``, ``nonauto``, ``grid``,
``single``) whose time the report gives separately.  The exact certificates
are symbolic, so on ``certify`` the seed only orders the operations; on
``flow`` it also draws the initial conditions.

Every call into hamfam goes through the package namespace at call time
(``hamfam.integrate(...)``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
from typing import Callable

import hamfam

# n values of the general:n sweep.  31 is the largest n the degree cap of
# 64 accepts (general:32 has a term of degree 65).  The set is fixed so that
# later changes are measured on the same work.
GENERAL_SWEEP = (2, 3, 4, 6, 8, 12, 16, 20, 24, 31)
NONAUTO_BRANCHES = (1, 3, 5, 7)
NONAUTO_ITERATES = range(1, 9)

# sha256 of serialize() of each sign-flip mutation's residual, recorded at
# the commit that introduced the benchmark; an exact-layer change must leave
# the residual text byte-identical
MUTATION_DIGESTS = {
    "autonomous5":
        "89109f1db17403db3ff29f45d6c5bec3ab7b4d4865491d090470ea3fff6d4074",
    "general:12":
        "6f44a96e1f7aa7acc2f4fced50fc111ac24b509619e76e038fc419abdde4a5be",
    "nonautonomous3":
        "40c4aafa06ab6f956387bf45218c101e2eec0c6798ebf1756f3f64dd8c36fe6b",
}

# the scipy reference: DOP853 at tight tolerance; it is "regular" while |q|
# stays below ORACLE_CAP
ORACLE_RTOL = 1e-12
ORACLE_ATOL = 1e-14
ORACLE_CAP = 1e6
# a completed trajectory agrees with the reference up to this relative
# end-state deviation, or up to TRUNCATION_FACTOR times its own truncation
# error when that is below TRUNCATION_CAP
AGREE_RTOL = 1e-6
TRUNCATION_FACTOR = 2.0
TRUNCATION_CAP = 0.1
# symmetry check on a trajectory: the mapped path's finite-difference defect
# may exceed the identity map's defect on the same path by at most this factor
SYMCHECK_FACTOR = 10.0
# relative tolerance on the end time and end state of a pinned trajectory
PIN_RTOL = 1e-9
RICHARDSON_WINDOW = (3.7, 4.3)


@dataclasses.dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], str | None]
    group: str = ""


@dataclasses.dataclass
class Workload:
    ops: list[Op]
    # sign-flip mutation controls: name -> callable returning the residual
    mutations: dict[str, Callable[[], object]]


def residual_text(residual) -> str:
    if isinstance(residual, tuple):
        return "; ".join(r.serialize() for r in residual)
    return residual.serialize()


def residual_is_zero(residual) -> bool:
    if isinstance(residual, tuple):
        return all(r.is_zero() for r in residual)
    return residual.is_zero()


def fingerprint(result):
    """A value equal across passes iff the operation's output is."""
    if isinstance(result, hamfam.Trajectory):
        return (result.termination, len(result.times),
                float(result.times[-1]), complex(result.q[-1]),
                complex(result.p[-1]))
    if isinstance(result, (tuple, hamfam.LaurentPoly)):
        return residual_text(result)
    return result


def _zero_check(name: str):
    def check(residual, ctx) -> str | None:
        if residual_is_zero(residual):
            return None
        return f"{name}: nonzero residual {residual_text(residual)[:200]}"
    return check


def _flip_first_term(poly):
    """The polynomial with the sign of its first sorted term flipped."""
    exps = sorted(poly.terms)[0]
    terms = dict(poly.terms)
    terms[exps] = -terms[exps]
    return hamfam.LaurentPoly(poly.table, terms)


def _equivalence_mutation(sys_):
    def residual():
        target = hamfam.reference_ode(sys_)
        flipped = hamfam.SecondOrderODE(target.table,
                                        _flip_first_term(target.rhs))
        return hamfam.verify_equivalence(sys_, flipped)
    return residual


# -- certify: general -----------------------------------------------------------

def _general_ops() -> Workload:
    """autonomous5 and the general:n sweep: rational coefficients only."""
    families = ["autonomous5"] + [f"general:{n}" for n in GENERAL_SWEEP]
    ops = []
    systems = {}
    for family in families:
        sys_ = hamfam.make_system(family)
        smap = hamfam.autonomous_map(sys_)
        systems[family] = sys_
        ops += [
            Op(f"{family} equivalence",
               lambda ctx, s=sys_: hamfam.verify_equivalence(
                   s, hamfam.reference_ode(s)),
               _zero_check("equivalence")),
            Op(f"{family} dH/dt = 0",
               lambda ctx, s=sys_: hamfam.time_derivative_of_H(s),
               _zero_check("first integral")),
            Op(f"{family} shear invariance",
               lambda ctx, s=sys_, m=smap: hamfam.verify_invariance(m, s),
               _zero_check("invariance")),
            Op(f"{family} shear unit Jacobian",
               lambda ctx, m=smap: hamfam.jacobian_determinant(m) - 1,
               _zero_check("unit Jacobian")),
            Op(f"{family} shear order 2",
               lambda ctx, m=smap: hamfam.map_order(m, 4),
               lambda order, ctx: None if order == 2
               else f"shear order {order}, expected 2"),
        ]
    mutations = {name: _equivalence_mutation(systems[name])
                 for name in ("autonomous5", "general:12")}
    return Workload(ops, mutations)


# -- certify: nonauto -------------------------------------------------------------

def _nonauto_ops() -> Workload:
    """nonautonomous3 on all four branches: zeta in every coefficient."""
    sys_ = hamfam.make_system("nonautonomous3")
    v = sys_.var
    expected_dH = v("q", 3) * v("p") + v("a2") * v("q", 2)
    ops = [
        Op("equivalence",
           lambda ctx: hamfam.verify_equivalence(
               sys_, hamfam.reference_ode(sys_)),
           _zero_check("equivalence")),
        Op("dH/dt = q^3 p + a2 q^2",
           lambda ctx: hamfam.time_derivative_of_H(sys_) - expected_dH,
           _zero_check("dH/dt")),
    ]
    maps = {b: hamfam.nonautonomous_map(b) for b in NONAUTO_BRANCHES}

    def order_is_8(m):
        return (hamfam.map_order(m, 10) == 8
                and not hamfam.iterate_map(m, 4).is_identity())

    def iterate_certificates(m, k):
        mk = hamfam.iterate_map(m, k)
        return (*hamfam.verify_invariance(mk, sys_),
                hamfam.jacobian_determinant(mk) - 1)

    for b, m in maps.items():
        ops += [
            Op(f"branch {b} invariance",
               lambda ctx, m=m: hamfam.verify_invariance(m, sys_),
               _zero_check("invariance")),
            Op(f"branch {b} unit Jacobian",
               lambda ctx, m=m: hamfam.jacobian_determinant(m) - 1,
               _zero_check("unit Jacobian")),
            Op(f"branch {b} order 8",
               lambda ctx, m=m: order_is_8(m),
               lambda ok, ctx: None if ok else "order is not exactly 8"),
        ]
        ops += [Op(f"branch {b} s^{k} invariance and unit Jacobian",
                   lambda ctx, m=m, k=k: iterate_certificates(m, k),
                   _zero_check(f"s^{k} certificates"))
                for k in NONAUTO_ITERATES]

    def map_mutation():
        m = maps[1]
        flipped = dataclasses.replace(m, p_rule=_flip_first_term(m.p_rule))
        return hamfam.verify_invariance(flipped, sys_)

    return Workload(ops, {"nonautonomous3": map_mutation})


# -- the scipy reference for the flows -----------------------------------------

class Reference:
    """Hamilton's equations evaluated straight from the exact polynomials,
    integrated by scipy's DOP853; shared by every method run on one case."""

    def __init__(self, sys_, values: dict[str, complex]):
        self.sys = sys_
        self.values = values
        self.rhs = None  # built on first use, outside set-up and passes
        self._cache: dict[tuple, tuple] = {}

    @staticmethod
    def _terms(poly, values):
        names = poly.table.names
        out = []
        for exps, coeff in poly.terms.items():
            c = complex(coeff)
            powers = {}
            for name, e in zip(names, exps):
                if not e:
                    continue
                if name in ("q", "p", "t"):
                    powers[name] = e
                else:
                    c *= complex(values[name]) ** e
            out.append((c, powers.get("q", 0), powers.get("p", 0),
                        powers.get("t", 0)))
        return out

    def _field(self, t, y):
        q, p = complex(y[0]), complex(y[1])
        try:
            return [sum(c * q ** a * p ** b * t ** d for c, a, b, d in terms)
                    for terms in self.rhs]
        except (OverflowError, ZeroDivisionError):
            return [complex("nan"), complex("nan")]

    def solve(self, q0: complex, p0: complex, t_span: tuple[float, float]):
        """(t_reached, q, p): the end of the span, or where the solution
        stops being regular (|q| reaches ORACLE_CAP or the solver fails)."""
        key = (complex(q0), complex(p0), t_span)
        if key not in self._cache:
            from scipy.integrate import solve_ivp
            if self.rhs is None:
                self.rhs = [self._terms(f, self.values)
                            for f in hamfam.hamilton_equations(self.sys)]

            def escape(t, y):
                return abs(y[0]) - ORACLE_CAP
            escape.terminal = True

            sol = solve_ivp(self._field, t_span,
                            [complex(q0), complex(p0)], method="DOP853",
                            rtol=ORACLE_RTOL, atol=ORACLE_ATOL,
                            events=escape)
            self._cache[key] = (float(sol.t[-1]), complex(sol.y[0, -1]),
                                complex(sol.y[1, -1]))
        return self._cache[key]


def _relative_deviation(q, p, q_ref, p_ref) -> float:
    return math.hypot(abs(q - q_ref), abs(p - p_ref)) \
        / math.hypot(abs(q_ref), abs(p_ref))


def _oracle_check(ref: Reference, refine, q0, p0, t_span, h):
    """Gate for one trajectory.  A completed one must agree with the
    reference at t1; a larger deviation passes only as the method's own
    truncation error, which ``refine`` (the same run with half the step or a
    100x tighter tolerance) must reproduce.  An early stop fails if the
    reference stays regular past the stop by more than a margin."""
    t0, t1 = t_span
    margin = 2 * h + 0.02 * (t1 - t0)

    def check(traj, ctx) -> str | None:
        if not (all(map(cmath.isfinite, traj.q))
                and all(map(cmath.isfinite, traj.p))):
            return "non-finite samples"
        t_ref, q_ref, p_ref = ref.solve(q0, p0, t_span)
        t_end = float(traj.times[-1])
        if traj.termination != "completed":
            if t_ref > t_end + margin:
                return (f"stopped ({traj.termination}) at t={t_end:.6g}; the "
                        f"reference continues regularly to t={t_ref:.6g}")
            return None
        if t_ref < t1:
            return (f"completed to t={t1} but the reference stops being "
                    f"regular at t={t_ref:.6g}")
        dev = _relative_deviation(traj.q[-1], traj.p[-1], q_ref, p_ref)
        ctx.setdefault("oracle_err", []).append(dev)
        if dev <= AGREE_RTOL:
            return None
        fine = refine()
        est = _relative_deviation(traj.q[-1], traj.p[-1], fine.q[-1],
                                  fine.p[-1])
        if fine.termination == "completed" and dev <= TRUNCATION_CAP \
                and dev <= TRUNCATION_FACTOR * est:
            return None
        return (f"end state deviates from the reference by {dev:.3g}; "
                f"refining the run moves it by {est:.3g}")
    return check


def _pinned_or(check, expected):
    """Accept a trajectory that ``check`` passes, or that reproduces
    ``expected`` = (termination, samples, t_end, q_end, p_end): an output
    recorded when the benchmark was introduced that disagrees with the
    reference.  A fix that makes the run agree with the reference passes;
    any other change to it fails."""
    label, samples, t_end, q_end, p_end = expected

    def pinned(traj, ctx) -> str | None:
        reason = check(traj, ctx)
        if reason is None:
            return None
        ctx.setdefault("pinned", []).append(reason)
        t = float(traj.times[-1])
        if (traj.termination, len(traj.times)) == (label, samples) \
                and abs(t - t_end) <= PIN_RTOL * t_end \
                and _relative_deviation(traj.q[-1], traj.p[-1], q_end,
                                        p_end) <= PIN_RTOL:
            return None
        return f"{reason}; nor does it reproduce the recorded {expected}"
    return pinned


def _trajectory_op(name, sys_, params, ref, q0, p0, t_span, method, h, tol,
                   keep=None, pinned=None):
    def run(ctx):
        traj = hamfam.integrate(sys_, params, q0, p0, t_span, h=h, tol=tol,
                                method=method)
        if keep:
            ctx[keep] = traj
        return traj

    def refine():
        return hamfam.integrate(sys_, params, q0, p0, t_span, h=h / 2,
                                tol=tol / 100, method=method)
    check = _oracle_check(ref, refine, q0, p0, t_span, h)
    return Op(name, run, _pinned_or(check, pinned) if pinned else check)


def _case(family: str, values: dict[str, complex]):
    sys_ = hamfam.make_system(family)
    params = hamfam.NumericParams(sys_.name, values, sys_.n)
    hamfam.compile_field(sys_, params)  # set-up builds the field once
    return sys_, params, Reference(sys_, values)


A5_VALUES = {"a": 1, "e1": 1, "e2": 1}
GENERAL12_VALUES = {"a": 1, **{f"e{i}": 1 for i in range(1, 12)}}
NA3_VALUES = {"a1": 1, "a2": 1, "a3": 1}


# -- flow: grid -------------------------------------------------------------------

GRID_SPAN = (0.0, 0.1)
GRID_H = 1e-3
GRID_TOL = 1e-9
GRID_RADII = (0.7, 0.95)
GRID_SECTORS = 10
# real starts whose blow-up time lies well inside the span, for each family
GRID_REAL_STARTS = {"autonomous5": (1.45, 1.65), "general:12": (0.85, 1.0)}
GRID_REAL_COUNT = 3


def _grid_ops(rng: random.Random) -> Workload:
    """Many short trajectories from a seeded grid of complex starts."""
    ops = []
    for family, values in (("autonomous5", A5_VALUES),
                           ("general:12", GENERAL12_VALUES)):
        sys_, params, ref = _case(family, values)
        starts = []
        for r in GRID_RADII:
            for k in range(GRID_SECTORS):
                radius = r + rng.uniform(-0.1, 0.1)
                # sector centres sit off the real axis; the real starts
                # below are drawn on purpose
                angle = 2 * math.pi * (k + 0.5 + rng.uniform(-0.25, 0.25)) \
                    / GRID_SECTORS
                p0 = cmath.rect(rng.uniform(0, 0.25),
                                rng.uniform(0, 2 * math.pi))
                starts.append((cmath.rect(radius, angle), p0))
        lo, hi = GRID_REAL_STARTS[family]
        starts += [(complex(rng.uniform(lo, hi)), 0j)
                   for _ in range(GRID_REAL_COUNT)]
        for q0, p0 in starts:
            for method in ("fixed-rk4", "adaptive-rk45"):
                ops.append(_trajectory_op(
                    f"{family} {method} q0={q0:.4f} p0={p0:.4f}", sys_,
                    params, ref, q0, p0, GRID_SPAN, method, GRID_H,
                    GRID_TOL))
    return Workload(ops, {})


# -- flow: single -------------------------------------------------------------------

LONG_SPAN = (0.0, 0.3)
LONG_H = 1e-4
LONG_TOL = 1e-12
RICHARDSON_SPAN = (0.0, 0.1)
RICHARDSON_HS = (1e-2, 5e-3, 2.5e-3)
# where fixed-rk4 stops on the q = 0 pass-through (a = e1 = 1, e2 = -1,
# q0 = 0.01, p0 = 0, h = 1e-3): at the |q| floor, while the reference
# continues through q = 0
PASS_THROUGH_STOP = ("singularity", 10, 0.009000000000000001,
                     0.0010000025197513269 + 0j, 0j)


def _symcheck_op(name, traj_key, smap, sys_, params):
    def run(ctx):
        return hamfam.check_symmetry_on_trajectory(ctx[traj_key], smap, sys_,
                                                   params)

    def check(residual, ctx) -> str | None:
        traj = ctx[traj_key]
        baseline = hamfam.check_symmetry_on_trajectory(
            traj, hamfam.identity_map(sys_.table, sys_.params), sys_, params)
        if residual <= SYMCHECK_FACTOR * baseline:
            return None
        return (f"symmetry defect {residual:.3g} exceeds {SYMCHECK_FACTOR}x "
                f"the identity-map defect {baseline:.3g}")
    return Op(name, run, check)


def _single_ops(rng: random.Random) -> Workload:
    """A few long one-lane trajectories, checks on them, and termination
    cases."""

    def jitter(z, scale):
        return z + complex(rng.uniform(-scale, scale),
                           rng.uniform(-scale, scale))

    a5, p5, ref5 = _case("autonomous5", A5_VALUES)
    na3, p3, ref3 = _case("nonautonomous3", NA3_VALUES)
    pass_through = {"a": 1, "e1": 1, "e2": -1}
    a5x, p5x, ref5x = _case("autonomous5", pass_through)
    shear = hamfam.autonomous_map(a5)
    order8 = hamfam.nonautonomous_map(1)

    q5, pp5 = jitter(1, 0.02), jitter(-1.5, 0.02)
    q3, pp3 = jitter(1, 0.02), jitter(-1.5, 0.02)
    qr, pr = jitter(1, 0.02), jitter(0.3, 0.02)
    ops = [
        _trajectory_op("autonomous5 long fixed-rk4", a5, p5, ref5, q5, pp5,
                       LONG_SPAN, "fixed-rk4", LONG_H, LONG_TOL,
                       keep="a5-long"),
        _trajectory_op("autonomous5 long adaptive-rk45", a5, p5, ref5, q5,
                       pp5, LONG_SPAN, "adaptive-rk45", LONG_H, LONG_TOL),
        _trajectory_op("nonautonomous3 long fixed-rk4", na3, p3, ref3, q3,
                       pp3, LONG_SPAN, "fixed-rk4", LONG_H, LONG_TOL,
                       keep="na3-long"),
        _trajectory_op("nonautonomous3 long adaptive-rk45", na3, p3, ref3, q3,
                       pp3, LONG_SPAN, "adaptive-rk45", LONG_H, LONG_TOL),
        _symcheck_op("shear on the autonomous5 trajectory", "a5-long", shear,
                     a5, p5),
        _symcheck_op("order-8 map on the nonautonomous3 trajectory",
                     "na3-long", order8, na3, p3),
        Op("richardson order sweep",
           lambda ctx: hamfam.richardson_order(a5, p5, qr, pr,
                                               RICHARDSON_SPAN,
                                               RICHARDSON_HS),
           lambda order, ctx: None
           if RICHARDSON_WINDOW[0] <= order <= RICHARDSON_WINDOW[1]
           else f"measured order {order:.3f} outside {RICHARDSON_WINDOW}"),
        # q passes through 0, where Hamilton's equations are regular;
        # fixed-rk4 stops at the |q| floor instead
        _trajectory_op("pass-through q=0 fixed-rk4", a5x, p5x, ref5x, 0.01, 0,
                       (0.0, 0.05), "fixed-rk4", 1e-3, 1e-9,
                       pinned=PASS_THROUGH_STOP),
        _trajectory_op("pass-through q=0 adaptive-rk45", a5x, p5x, ref5x,
                       0.01, 0, (0.0, 0.05), "adaptive-rk45", 1e-3, 1e-9),
        # movable singularity at t* = 0.16164
        _trajectory_op("blow-up fixed-rk4", a5, p5, ref5, 1, 0, (0.0, 0.2),
                       "fixed-rk4", LONG_H, LONG_TOL),
        _trajectory_op("blow-up adaptive-rk45", a5, p5, ref5, 1, 0,
                       (0.0, 0.2), "adaptive-rk45", LONG_H, LONG_TOL),
    ]
    # the symmetry checks read the long trajectories of the same pass
    return Workload(ops, {})


def _combine(groups: dict[str, Workload]) -> Workload:
    ops, mutations = [], {}
    for group, part in groups.items():
        for op in part.ops:
            op.group = group
        ops += part.ops
        mutations.update(part.mutations)
    return Workload(ops, mutations)


def certify(seed: int) -> Workload:
    """The exact certificate batteries, in a seeded order."""
    work = _combine({"general": _general_ops(), "nonauto": _nonauto_ops()})
    random.Random(f"certify:{seed}").shuffle(work.ops)
    return work


def flow(seed: int) -> Workload:
    """The grid trajectories in a seeded order, then the long trajectories
    (the symmetry checks read trajectories made earlier in the pass)."""
    rng = random.Random(f"flow:{seed}")
    grid = _grid_ops(rng)
    rng.shuffle(grid.ops)
    return _combine({"grid": grid, "single": _single_ops(rng)})


WORKLOADS = {
    "certify": certify,
    "flow": flow,
}


def mutation_digest(residual) -> str:
    import hashlib
    return hashlib.sha256(residual_text(residual).encode()).hexdigest()
