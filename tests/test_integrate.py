import cmath
import collections
import dataclasses
import hashlib
import importlib
import math
import random
import re
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from conftest import compiled_poly
from hamfam.hamiltonian import (COORD_VARS, HamSystem, hamilton_equations,
                                make_autonomous5, make_general_n,
                                make_nonautonomous3, time_derivative_of_H)
from hamfam.chart import Chart
from hamfam.integrate import (_FEHLBERG45, _RK4, ESCAPE_RADIUS,
                              OVERFLOW_GUARD, NumericParams, Trajectory,
                              _bind, _field_cache, _generate, _kernel,
                              _map_cache,
                              check_symmetry_on_trajectory, compile_field,
                              compile_map, integrate, measure_order,
                              richardson_order, write_trajectory_csv)
from hamfam.poly import LaurentPoly
from hamfam.symmetry import autonomous_map, identity_map, nonautonomous_map

# the module, which the package's integrate function shadows as an attribute
integrate_module = importlib.import_module("hamfam.integrate")
A5 = make_autonomous5()
NA3 = make_nonautonomous3()
PARAMS5 = NumericParams("autonomous5", {"a": 1, "e1": 1, "e2": 1}, 5)
PARAMS3 = NumericParams("nonautonomous3", {"a1": 1, "a2": 1, "a3": 1}, 5)
# from q0 = 0.01, p0 = 0, q' = q^4 + q^3 - 1 takes q through 0 near t = 0.01
A5_PASS_THROUGH = {"a": 1, "e1": 1, "e2": -1}
# H = a*(t + 1) - q*p: at a = 1e308, H leaves the float range for
# t > 0.7977, while the field, q' = -q and p' = p, stays small
CAPPED = HamSystem("capped", A5.table,
                   A5.var("a") * (A5.var("t") + LaurentPoly.const(A5.table, 1))
                   - A5.var("q") * A5.var("p"), A5.params, False)
CAPPED_PARAMS = NumericParams("capped", {"a": 1e308, "e1": 1, "e2": 1})
# H = p*q^2 + a*t: q' = q^2 blows up at t* = 1/q0, and at
# a = 8.98872e307, H leaves the float range at t = 1.999943: from q0 = 0.5
# at tol 1e-9, between the last two samples of the run that the
# u-estimates end
BLOWUP = HamSystem("blowup", A5.table,
                   A5.var("p") * A5.var("q", 2) + A5.var("a") * A5.var("t"),
                   A5.params, False)
BLOWUP_PARAMS = NumericParams("blowup", {"a": 8.98872e307, "e1": 1, "e2": 1})
# the autonomous5 field without an n, and so without a chart
A5_UNCHARTED = dataclasses.replace(A5, name="autonomous5-uncharted", n=None)
# H = p(q^4 + a) with n = 5: H~ = u(1 + a w^4) has no term u^2 w^3, so no
# chart, though q' = q^4 + a blows up like autonomous5's q
LINEAR_IN_P = HamSystem("linear-in-p", A5.table,
                        A5.var("p") * (A5.var("q", 4) + A5.var("a")),
                        A5.params, True, 5)
# the shear of general:64 adds a/q + e1/q^2 + ... + e63/q^64 to p: at
# q = 1e-5, q^-64 = 1e320 overflows
G64 = make_general_n(64)
PARAMS64 = NumericParams(G64.name, dict.fromkeys(G64.params, 1), 64)


def scipy_reference(sys, params, q0, p0, t_span, rtol=1e-12, atol=1e-12):
    """Independent high-order solve on the realified system."""
    field = compile_field(sys, params)

    def rhs(t, y):
        q = complex(y[0], y[1])
        p = complex(y[2], y[3])
        dq, dp = field(q, p, t)
        return [dq.real, dq.imag, dp.real, dp.imag]

    q0, p0 = complex(q0), complex(p0)
    sol = solve_ivp(rhs, t_span, [q0.real, q0.imag, p0.real, p0.imag],
                    method="DOP853", rtol=rtol, atol=atol)
    assert sol.success
    y = sol.y[:, -1]
    return complex(y[0], y[1]), complex(y[2], y[3])


def scipy_escape_time(sys, params, q0, p0, t_span, cap=1e6):
    """The time at which the DOP853 solve of the realified system reaches
    |q| = cap, or t1 if it does not.  Where |q| grows too slowly to reach
    cap, the solve stops where its step falls below the spacing of doubles,
    next to the blow-up."""
    field = compile_field(sys, params)

    def rhs(t, y):
        dq, dp = field(complex(y[0], y[1]), complex(y[2], y[3]), t)
        return [dq.real, dq.imag, dp.real, dp.imag]

    def escape(t, y):
        return math.hypot(y[0], y[1]) - cap
    escape.terminal = True

    q0, p0 = complex(q0), complex(p0)
    sol = solve_ivp(rhs, t_span, [q0.real, q0.imag, p0.real, p0.imag],
                    method="DOP853", rtol=1e-12, atol=1e-12, events=escape)
    assert sol.success or "spacing between numbers" in sol.message
    return float(sol.t[-1])


def naive_eval(poly, point):
    """Independent oracle: the sum over monomials of the coefficient times
    each variable's power, parameters included, taken from ``point``."""
    total = 0j
    for exps, c in poly.terms.items():
        term = complex(c)
        for name, e in zip(poly.table.names, exps):
            if e:
                term *= point[name] ** e
        total += term
    return total


class TestCompileField:
    def test_autonomous5_hand_values(self):
        field = compile_field(A5, PARAMS5)
        dq, dp = field(1 + 0j, 0j, 0.0)
        assert dq == 3 + 0j  # a*q^4 + e1*q^3 + e2 at q=1, p=0
        assert dp == 0j

    def test_momentum_rest_is_fixed_in_p(self):
        # every dp/dt term of the autonomous families carries p
        field = compile_field(A5, PARAMS5)
        for q in (1 + 0j, 2 - 1j, 0.3 + 0.7j):
            assert field(q, 0j, 0.0)[1] == 0j

    def test_nonautonomous3_hand_values(self):
        params = NumericParams("nonautonomous3", {"a1": 0, "a2": 0, "a3": 0}, 5)
        field = compile_field(NA3, params)
        dq, dp = field(1 + 0j, 0j, 0.0)
        assert dq == 2 + 0j  # (a1+1)q^4 + 1
        assert dp == 0j

    def test_matches_symbolic_eval_on_random_points(self, rng):
        f_q, f_p = hamilton_equations(A5)
        field = compile_field(A5, PARAMS5)
        for _ in range(1000):
            pt = {"q": complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)),
                  "p": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  "t": rng.uniform(0, 1),
                  "a": 1, "e1": 1, "e2": 1}
            dq, dp = field(pt["q"], pt["p"], pt["t"])
            eq = naive_eval(f_q, pt)
            ep = naive_eval(f_p, pt)
            assert abs(dq - eq) <= 1e-12 * max(1.0, abs(eq))
            assert abs(dp - ep) <= 1e-12 * max(1.0, abs(ep))

    def test_unbound_parameter(self):
        with pytest.raises(ValueError):
            compile_field(A5, NumericParams("autonomous5", {"a": 1}, 5))

    def test_unknown_parameter(self):
        values = {"a": 1, "e1": 1, "e2": 1, "zz": 3}
        with pytest.raises(ValueError, match="unknown \\['zz'\\]"):
            NumericParams("autonomous5", values, 5).check_complete(A5)

    def test_eta_zero_warns(self):
        with pytest.warns(UserWarning):
            NumericParams("autonomous5", {"a": 1, "e1": 0, "e2": 1}, 5)


class TestFieldCache:
    def test_same_system_and_values_give_the_same_field(self):
        field = compile_field(A5, PARAMS5)
        again = NumericParams("autonomous5",
                              {"e2": 1.0, "a": 1 + 0j, "e1": 1}, 5)
        assert compile_field(make_autonomous5(), again) is field

    @pytest.mark.parametrize("zero", [complex(0.0, -0.0),
                                      complex(-0.0, 0.0)],
                             ids=["imag", "real"])
    def test_signed_zero_gets_its_own_field(self, zero):
        plus = NumericParams("autonomous5", {"a": 0j, "e1": 1, "e2": 1}, 5)
        minus = NumericParams("autonomous5", {"a": zero, "e1": 1, "e2": 1}, 5)
        assert compile_field(A5, plus) is not compile_field(A5, minus)

    def test_mutated_hamiltonian_gets_its_own_field(self):
        mutated = dataclasses.replace(A5, H=A5.H + A5.var("q"))
        field, other = compile_field(A5, PARAMS5), compile_field(mutated,
                                                                 PARAMS5)
        assert other is not field
        assert other(1 + 0j, 0j, 0.0) != field(1 + 0j, 0j, 0.0)

    @pytest.mark.parametrize("values,match", [
        ({"a": 1, "e1": 1}, "unbound \\['e2'\\]"),
        ({"a": 1, "e1": 1, "e2": 1, "zz": 3}, "unknown \\['zz'\\]")],
        ids=["missing", "unknown"])
    def test_parameters_are_checked_on_every_call(self, values, match):
        compile_field(A5, PARAMS5)  # a hit for the bound parameters
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                compile_field(A5, NumericParams("autonomous5", values, 5))

    def test_size_stays_bounded(self):
        maxsize = _field_cache.cache_info().maxsize
        for k in range(maxsize + 5):
            compile_field(A5, NumericParams("autonomous5",
                                            {"a": k, "e1": 1, "e2": 1}, 5))
        assert _field_cache.cache_info().currsize <= maxsize


class TestStepRK4:
    def test_zero_step(self):
        # a zero span takes no step: the run keeps its start, and H there
        state = (1.3 - 0.2j, 0.4 + 0.1j)
        traj = integrate(A5, PARAMS5, *state, (0.0, 0.0))
        assert traj.termination == "completed" and traj.steps_attempted == 0
        assert (complex(traj.q[0]), complex(traj.p[0])) == state
        assert bits(traj.H_values) == bits(np.array([
            compile_field(A5, PARAMS5).H(*state, 0.0)]))

    def test_constant_field_is_exact(self):
        # degenerate H = c*p gives qdot = c, pdot = 0; RK4 is exact
        tbl = A5.table
        for c in (1, 3):
            sys = HamSystem(f"degenerate{c}", tbl,
                            LaurentPoly.var(tbl, "p", coeff=c), A5.params,
                            True, 5)
            traj = integrate(sys, PARAMS5, 1, 0, (0, 1), h=0.25)
            assert list(traj.times) == [0, 0.25, 0.5, 0.75, 1]
            assert list(traj.q) == [1 + c * t for t in traj.times]
            assert not traj.p.any()
            # H at the start
            assert bits(complex(traj.H_values[0])) \
                == bits(compile_field(sys, PARAMS5).H(1 + 0j, 0j, 0))

    def test_against_reference_solve(self):
        h = 1e-3
        traj = integrate(A5, PARAMS5, 1, 0, (0.0, h), h=h)
        assert len(traj.times) == 2
        qr, pr = scipy_reference(A5, PARAMS5, 1, 0, (0.0, h))
        assert abs(traj.q[-1] - qr) < 1e-10
        assert abs(traj.p[-1] - pr) < 1e-10

    def test_singularity_guard(self):
        # q = 0 is a regular point of the polynomial field, so a step near
        # it returns; the guard stops a start whose q is not finite or
        # above OVERFLOW_GUARD
        field = compile_field(A5, PARAMS5)
        for q in (1e-10 + 0j, 0j):
            qn, pn, _ = loop_step(field, _RK4, q, 0j, 0.0, 1e-3, 1e-9)
            assert cmath.isfinite(qn) and cmath.isfinite(pn)
        for q in (2 * OVERFLOW_GUARD + 0j, complex(math.nan, 0),
                  complex(1, math.inf)):
            assert loop_step(field, _RK4, q, 0j, 0.0, 1e-3, 1e-9) \
                == "raised"

    def test_field_with_a_pole_raises(self):
        # H = p^2 + 1/q: its pole at q = 0 is no state the guard stops at
        tbl = A5.table
        sys = HamSystem("pole", tbl, LaurentPoly.var(tbl, "p", 2)
                        + LaurentPoly.var(tbl, "q", -1), A5.params, True, 5)
        with pytest.raises(ValueError, match="negative power of q or p"):
            integrate(sys, PARAMS5, 0, 1, (0, 0.01))

    def test_matches_textbook_step_bit_for_bit(self, rng):
        field = compile_field(A5, PARAMS5)
        for _ in range(100):
            q = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            t, h = rng.uniform(0, 1), rng.uniform(1e-4, 1e-2)
            k1q, k1p = field(q, p, t)
            k2q, k2p = field(q + h / 2 * k1q, p + h / 2 * k1p, t + h / 2)
            k3q, k3p = field(q + h / 2 * k2q, p + h / 2 * k2p, t + h / 2)
            k4q, k4p = field(q + h * k3q, p + h * k3p, t + h)
            expected = (q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q),
                        p + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))
            assert loop_step(field, _RK4, q, p, t, h, 1e-9) \
                == (*expected, field.H(q, p, t))


class TestTableaus:
    @pytest.mark.parametrize("tab", [_RK4, _FEHLBERG45],
                             ids=["rk4", "fehlberg45"])
    def test_consistent(self, tab):
        assert len(tab.a) == len(tab.c) == len(tab.b)
        for i, (row, c) in enumerate(zip(tab.a, tab.c)):
            assert len(row) == i
            assert abs(sum(row) - c) <= 1e-15
        assert abs(sum(tab.b) / tab.div - 1) <= 1e-15
        if tab.b_err is not None:
            assert abs(sum(tab.b_err) / tab.div - 1) <= 1e-15


class TestStepControl:
    """adaptive-rk45 propagates Fehlberg's 5th-order solution, and its PI
    controller remembers an accepted step's error floored at 1e-4."""

    def test_no_deep_cut_after_an_accepted_step(self):
        # the benchmark's blow-up orbit, on which the 4th-order propagation
        # estimated an error of exactly 0 at more than half its steps.  With
        # err <= 1 the controller's smallest factor is
        # 0.9*(1e-4)**(0.4/5) = 0.4307, where an unfloored memory of 0
        # allows 0.047.  The run rejects no attempt and ends before t1, so
        # its samples are its attempts, none clamped onto t1
        traj = integrate(A5, PARAMS5, 1, 0, (0, 0.2), h=1e-4, tol=1e-12,
                         method="adaptive-rk45")
        assert_same_run(traj, ref_integrate(A5, PARAMS5.values, 1, 0,
                                            (0, 0.2), 1e-4, 1e-12,
                                            "adaptive-rk45"))
        assert traj.termination == "blow-up" and traj.steps_rejected == 0
        steps = np.diff(traj.times)
        ratios = steps[1:] / steps[:-1]
        assert len(ratios) >= 300 and ratios.min() >= 0.43

    @pytest.mark.filterwarnings("ignore:At least one element of `rtol`")
    def test_step_propagates_at_fifth_order(self):
        # one step's local error against DOP853 falls as h^6: log2 of the
        # ratio is 6.19 and 6.10 here, and 5.05 and 5.01 for the 4th-order
        # solution
        q0, p0 = 0.5 + 0.3j, 0.2 - 0.1j
        field = compile_field(A5, PARAMS5)
        errors = []
        for h in (0.04, 0.02, 0.01):
            # at tol = 1 the error control accepts each step
            qn, pn, _ = loop_step(field, _FEHLBERG45, q0, p0, 0.0, h, 1.0)
            qr, pr = scipy_reference(A5, PARAMS5, q0, p0, (0, h),
                                     rtol=1e-14, atol=1e-14)
            errors.append(math.hypot(abs(qn - qr), abs(pn - pr)))
        for error, halved in zip(errors, errors[1:]):
            assert 5.5 <= math.log2(error / halved) <= 6.5


class TestIntegrate:
    def test_drift_small_on_short_span(self):
        traj = integrate(A5, PARAMS5, 1, 0.3, (0, 0.05), h=1e-3)
        assert traj.termination == "completed"
        assert traj.drift < 1e-8

    def test_drift_converges_at_order_four(self):
        pairs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = integrate(A5, PARAMS5, 1, 0.3, (0, 0.1), h=h)
            pairs.append((h, traj.drift))
        order = measure_order(pairs)
        assert 3.7 <= order <= 4.3

    def test_nonautonomous_dHdt_matches_symbolic(self):
        traj = integrate(NA3, PARAMS3, 1, 0, (0, 0.1), h=2.5e-4)
        assert traj.termination == "completed"
        dH = compiled_poly(time_derivative_of_H(NA3), PARAMS3.values)
        ts, qs, ps, Hs = traj.times, traj.q, traj.p, traj.H_values
        worst = 0.0
        for k in range(1, len(ts) - 1):
            fd = (Hs[k + 1] - Hs[k - 1]) / (ts[k + 1] - ts[k - 1])
            sym = dH(qs[k], ps[k], ts[k])
            worst = max(worst, abs(fd - sym) / abs(sym))
        assert worst < 1e-6

    def test_blowup_terminates_cleanly(self):
        traj = integrate(A5, PARAMS5, 100, 1, (0, 1), h=1e-3)
        assert traj.termination == "overflow"
        assert np.all(np.isfinite(traj.q.view(float)))

    def test_immediate_singularity(self):
        # q = 0 is a regular point: a run that starts at or next to it
        # completes
        for q0 in (1e-12, 0):
            traj = integrate(A5, PARAMS5, q0, 0, (0, 0.01))
            assert traj.termination == "completed" and len(traj.times) == 11

    @pytest.mark.parametrize("q0, p0", [(math.nan, 0),
                                        (1, complex(0, math.inf)),
                                        (complex(math.nan, 1), 0)])
    def test_start_state_must_be_finite(self, q0, p0):
        with pytest.raises(ValueError, match="start state must be finite"):
            integrate(A5, PARAMS5, q0, p0, (0, 0.01))

    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45"])
    def test_passes_through_q_zero(self, method):
        # each method runs on through q = 0 to t1 and agrees with DOP853
        params = NumericParams("autonomous5", A5_PASS_THROUGH, 5)
        traj = integrate(A5, params, 0.01, 0, (0, 0.05), h=1e-3, tol=1e-9,
                         method=method)
        assert traj.termination == "completed" and traj.times[-1] == 0.05
        assert traj.q[0].real > 0 > traj.q[-1].real
        qr, pr = scipy_reference(A5, params, 0.01, 0, (0, 0.05))
        assert abs(traj.q[-1] - qr) < 1e-10
        assert abs(traj.p[-1] - pr) < 1e-10

    @pytest.mark.parametrize("t_span,h,samples", [((0, 0.3), 1e-4, 3001),
                                                  ((0, 0.1), 1e-2, 11)],
                             ids=["sliver-after", "short-by-rounding"])
    def test_fixed_run_ends_exactly_at_t1(self, t_span, h, samples):
        # summed steps fall short of t1 by rounding; the last step is
        # stretched onto t1 instead of leaving a sliver step or a gap
        traj = integrate(A5, PARAMS5, 1, -1.5, t_span, h=h)
        assert traj.termination == "completed"
        assert len(traj.times) == samples
        assert traj.times[-1] == t_span[1]
        assert np.min(np.diff(traj.times)) > h / 2

    def test_zero_length_span(self):
        traj = integrate(A5, PARAMS5, 1, 0.5, (0, 0), h=1e-3)
        assert len(traj.times) == 1
        assert traj.drift == 0.0
        assert traj.termination == "completed"

    def test_determinism(self):
        t1 = integrate(A5, PARAMS5, 1, 0.3, (0, 0.1), h=1e-3)
        t2 = integrate(A5, PARAMS5, 1, 0.3, (0, 0.1), h=1e-3)
        assert np.array_equal(t1.q, t2.q)
        assert np.array_equal(t1.p, t2.p)
        assert np.array_equal(t1.H_values, t2.H_values)

    def test_adaptive_matches_reference(self):
        traj = integrate(A5, PARAMS5, 1, 0.3, (0, 0.1), method="adaptive-rk45",
                         tol=1e-10)
        assert traj.termination == "completed"
        qr, pr = scipy_reference(A5, PARAMS5, 1, 0.3, (0, 0.1))
        assert abs(traj.q[-1] - qr) < 1e-7
        assert abs(traj.p[-1] - pr) < 1e-7

    def test_adaptive_takes_fewer_steps_when_loose(self):
        tight = integrate(A5, PARAMS5, 1, 0.3, (0, 0.1),
                          method="adaptive-rk45", tol=1e-11)
        loose = integrate(A5, PARAMS5, 1, 0.3, (0, 0.1),
                          method="adaptive-rk45", tol=1e-6)
        assert len(loose.times) < len(tight.times)

    def test_fixed_rk4_against_reference(self):
        traj = integrate(A5, PARAMS5, 1, 0, (0, 1e-3), h=1e-3)
        qr, pr = scipy_reference(A5, PARAMS5, 1, 0, (0, 1e-3))
        assert abs(traj.q[-1] - qr) < 1e-10
        assert abs(traj.p[-1] - pr) < 1e-10

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            integrate(A5, PARAMS5, 1, 0, (0, 1), method="leapfrog")

    @pytest.mark.parametrize("sys, values, q0, p0, t_span, state", [
        (make_general_n(30), {"a": 1, **{f"e{i}": 1 for i in range(1, 30)}},
         3e10, 1, (0, 1e-9), "q0 = (30000000000+0j), p0 = (1+0j), t0 = 0"),
        (CAPPED, CAPPED_PARAMS.values, 1, 1, (0.9, 1.0),
         "q0 = (1+0j), p0 = (1+0j), t0 = 0.9"),
        (CAPPED, CAPPED_PARAMS.values, 1, 1, (0.9, 0.9),
         "q0 = (1+0j), p0 = (1+0j), t0 = 0.9"),
        # (1e308+1e308j)**5 is NaN in both parts, with no part infinite
        (A5, PARAMS5.values, 1e308 + 1e308j, 0, (0, 0.01),
         "q0 = (1e+308+1e+308j), p0 = 0j, t0 = 0")],
        ids=["field-too", "H-only", "zero-span", "nan-H"])
    def test_start_where_H_overflows(self, sys, values, q0, p0, t_span,
                                     state):
        params = NumericParams(sys.name, values, sys.n)
        with pytest.raises(ValueError) as raised:
            integrate(sys, params, q0, p0, t_span, h=1e-3)
        # a real start of a real field reads H in float arithmetic, and the
        # message gives it as a complex number
        field = compile_field(sys, params)
        q0, p0 = complex(q0), complex(p0)
        H = complex(field.real_H(q0.real, p0.real, t_span[0])
                    if field.real and not (q0.imag or p0.imag)
                    else field.H(q0, p0, t_span[0]))
        assert not cmath.isfinite(H)
        assert str(raised.value) == (f"H is not finite at the start state "
                                     f"{state}: H = {H}")

    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45"])
    def test_sample_where_H_overflows_ends_the_run(self, method):
        traj = integrate(CAPPED, CAPPED_PARAMS, 1, 1, (0.7, 0.9), h=1e-2,
                         method=method)
        field = compile_field(CAPPED, CAPPED_PARAMS)
        assert traj.termination == "overflow"
        assert traj.times[-1] < 0.7977 < traj.times[-1] + 0.01
        samples = [(complex(q), complex(p), float(t))
                   for q, p, t in zip(traj.q, traj.p, traj.times)]
        for (q, p, t), H in zip(samples, traj.H_values):
            assert bits(complex(H)) == bits(field.H(q, p, t))
        # the run attempted one more step, to a sample whose H is not
        # finite, which was not accepted
        assert traj.steps_attempted == len(traj.times) + traj.steps_rejected
        if method == "fixed-rk4":
            q, p, t = samples[-1]
            q, p, _ = loop_step(field, _RK4, q, p, t, 1e-2, 1e-9)
            assert not cmath.isfinite(field.H(q, p, t + 1e-2))

    def test_located_blow_up_where_H_overflows(self, monkeypatch):
        # the attempt on which the locator agrees on t* = 2 lands past
        # t = 1.999943, where H is not finite
        run = lambda: integrate(BLOWUP, BLOWUP_PARAMS, 0.5, 0, (0, 3),
                                method="adaptive-rk45", tol=1e-9)
        traj = run()
        assert_same_run(traj, ref_integrate(BLOWUP, BLOWUP_PARAMS.values,
                                            0.5, 0, (0, 3), 1e-3, 1e-9,
                                            "adaptive-rk45"))
        field = compile_field(BLOWUP, BLOWUP_PARAMS)
        H = field.H
        for name in ("H", "real_H"):
            monkeypatch.setattr(field, name, lambda q, p, t: 0.0)
        located = run()  # the same run, with an H that is always finite
        assert located.termination == "blow-up"
        assert not cmath.isfinite(H(complex(located.q[-1]),
                                    complex(located.p[-1]),
                                    float(located.times[-1])))
        # the step to that sample is not accepted: the run ends at the
        # sample before with overflow, and the same attempts
        assert traj.termination == "overflow"
        assert traj.t_star is None and traj.exponent is None
        n = len(traj.times)
        assert len(located.times) == n + 1
        for name in ("times", "q", "p", "H_values"):
            assert bits(getattr(traj, name)) \
                == bits(getattr(located, name)[:n]), name
        for name in ("steps_attempted", "steps_rejected", "field_evals"):
            assert getattr(traj, name) == getattr(located, name), name
        # the dropped step is the run's smallest: min_step is the one of the
        # steps before, which the loop reference also reads
        steps = np.diff(located.times)
        assert located.min_step < traj.min_step
        assert located.min_step == pytest.approx(steps[-1], rel=1e-9)
        assert traj.min_step == pytest.approx(steps[:-1].min(), rel=1e-9)


class TestStepAndTolValidation:
    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45"])
    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
    def test_bad_h(self, method, h):
        with pytest.raises(ValueError, match="h must be finite and positive"):
            integrate(A5, PARAMS5, 1, 0, (0, 0.01), h=h, method=method)

    # the spacing of floats at 1e6 is 2**-33 = 1.16e-10, and 1e6 has an even
    # last bit, so 1e6 + 2**-34 rounds to 1e6; past the next float up, with
    # an odd last bit, T + 2**-34 rounds up, but 1e6 + 2**-34 still does not
    @pytest.mark.parametrize("t_span, h", [
        ((1e6, 1e6 + 1e-4), 1e-11),
        ((-1e6, 0), 2.0 ** -34),
        ((1e6, 1e6 + 2.0 ** -33), 2.0 ** -34)],
        ids=["below-half-spacing", "half-spacing", "odd-last-bit"])
    def test_fixed_step_that_cannot_advance_t(self, t_span, h):
        # raised before any step: a run of such steps would append samples
        # at one time until its last-step rule caught up
        with pytest.raises(ValueError, match=f"h = {h} cannot advance t"):
            integrate(A5, PARAMS5, 1, 0, t_span, h=h)

    def test_fixed_step_just_past_half_spacing_advances_t(self):
        # 1e6 + h rounds up to the next float: each step moves t by 2**-33
        # until the last-step rule stretches one onto t1
        h = 2.0 ** -34 * (1 + 2.0 ** -52)
        traj = integrate(A5, PARAMS5, 1, 0, (1e6, 1e6 + 1e-8), h=h)
        assert traj.termination == "completed"
        assert traj.times[-1] == 1e6 + 1e-8 and len(traj.times) > 10
        assert np.all(np.diff(traj.times) > 0)

    # a complex start runs the complex binding, a real one the real binding
    @pytest.mark.parametrize("q0", [1, 1 + 0.1j], ids=["real", "complex"])
    def test_adaptive_step_moves_t(self, q0):
        # h = 1e-11 is below the spacing of floats at 1e6, 2**-33: the first
        # step is that spacing, and no sample repeats a time
        t1 = 1e6 + 1e-4
        traj = integrate(A5, PARAMS5, q0, 0, (1e6, t1), h=1e-11,
                         method="adaptive-rk45")
        assert traj.termination == "completed" and traj.times[-1] == t1
        assert traj.times[1] - traj.times[0] == 2.0 ** -33
        assert np.all(np.diff(traj.times) > 0)
        assert_same_run(traj, ref_integrate(A5, PARAMS5.values, q0, 0,
                                            (1e6, t1), 1e-11, 1e-9,
                                            "adaptive-rk45"))

    @pytest.mark.parametrize("method, samples", [("fixed-rk4", 2),
                                                 ("adaptive-rk45", 9)])
    @pytest.mark.parametrize("q0", [1, 1 + 0.1j], ids=["real", "complex"])
    def test_span_of_a_few_float_spacings(self, method, samples, q0):
        # t1 - t0 = 2**-30 is eight spacings of floats at 1e6: fixed-rk4
        # takes one step onto t1, adaptive-rk45 eight of one spacing each
        t1 = 1e6 + 2.0 ** -30
        traj = integrate(A5, PARAMS5, q0, 0, (1e6, t1), method=method)
        assert traj.termination == "completed" and traj.times[-1] == t1
        assert len(traj.times) == samples
        assert_same_run(traj, ref_integrate(A5, PARAMS5.values, q0, 0,
                                            (1e6, t1), 1e-3, 1e-9, method))

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            integrate(A5, PARAMS5, 1, 0, (0, 0.01), tol=tol,
                      method="adaptive-rk45")


class TestRichardsonOrder:
    def test_order_in_window(self):
        order = richardson_order(A5, PARAMS5, 1, 0, (0, 0.03))
        assert 3.7 <= order <= 4.3

    def test_run_that_does_not_complete_raises(self):
        # from q0 = 1 the flow blows up at t* = 0.16164, before t1
        with pytest.raises(ValueError, match="sweep run at h=0.01 ended "
                                             "with overflow"):
            richardson_order(A5, PARAMS5, 1, 0, (0, 0.2),
                             (1e-2, 5e-3, 2.5e-3))

    @pytest.mark.parametrize("hs", [(), (1e-2,), (1e-2, 5e-3)])
    def test_fewer_than_three_h_raise_before_any_run(self, monkeypatch, hs):
        # two h give one difference, and an order needs two
        monkeypatch.setattr(integrate_module, "integrate", None)
        with pytest.raises(ValueError, match="a sweep needs at least three "
                                             f"h values, got {len(hs)}"):
            richardson_order(A5, PARAMS5, 1, 0, (0, 0.03), hs)

    @pytest.mark.parametrize("pairs,message", [
        ([(1e-2, 1e-8), (5e-3, 0.0)], "finite and positive"),
        ([(1e-2, 0.0), (5e-3, 0.0)], "finite and positive"),
        ([(1e-2, 1e-8), (5e-3, -1e-9)], "finite and positive"),
        ([(1e-2, math.nan), (5e-3, 1e-9)], "finite and positive"),
        ([(1e-2, 1e-8), (5e-3, math.inf)], "finite and positive"),
        ([(1e-2, 1e-8), (-5e-3, 1e-9)], "finite and positive"),
        ([(1e-2, 1e-8), (1e-2, 1e-9)], "equal h"),
        ([(1e-2, 1e-8), (5e-3, 1e-9), (5e-3, 2e-10)], "equal h"),
        ([(1e-2, 1e-300), (5e-3, 1e300)], "ratio leaves the float range"),
        ([(1e-300, 1.0), (1e300, 2.0)], "ratio leaves the float range")],
        ids=["zero", "both-zero", "negative", "nan", "inf", "negative-h",
             "equal-h", "equal-h-later", "error-ratio-underflow",
             "h-ratio-underflow"])
    def test_bad_pairs_raise(self, pairs, message):
        bad = pairs[-2:]
        with pytest.raises(ValueError, match=message) as err:
            measure_order(pairs)
        assert f"{bad[0]} and {bad[1]}" in str(err.value)


class TestTrajectorySymmetry:
    def test_autonomous_pairing(self):
        traj = integrate(A5, PARAMS5, 1, -1.5, (0, 0.05), h=1e-3)
        res = check_symmetry_on_trajectory(traj, autonomous_map(A5), A5,
                                           PARAMS5)
        assert res <= 1e-5

    def test_autonomous_pairing_tame_start(self):
        # near-stationary start keeps the finite-difference floor far below
        params = NumericParams("autonomous5", {"a": 0.1, "e1": 0.1, "e2": 0.1}, 5)
        traj = integrate(A5, params, 1, -0.15, (0, 0.1), h=1e-3)
        res = check_symmetry_on_trajectory(traj, autonomous_map(A5), A5, params)
        assert res < 1e-6

    def test_nonautonomous_pairing(self):
        traj = integrate(NA3, PARAMS3, 1, -1.5, (0, 0.05), h=1e-3)
        res = check_symmetry_on_trajectory(traj, nonautonomous_map(1), NA3,
                                           PARAMS3)
        assert res <= 1e-5

    def test_nonautonomous_pairing_tame_start(self):
        # start at a stationary point of the t = 0 field
        q0 = 1.1
        params = NumericParams("nonautonomous3",
                               {"a1": -1 - q0 ** -4, "a2": 0, "a3": 0}, 5)
        traj = integrate(NA3, params, q0, 0, (0, 0.05), h=1e-3)
        res = check_symmetry_on_trajectory(traj, nonautonomous_map(1), NA3,
                                           params)
        assert res < 1e-6

    def test_identity_map_gives_baseline_fd_defect(self):
        traj = integrate(A5, PARAMS5, 1, -1.5, (0, 0.05), h=1e-3)
        ident = identity_map(A5.table, A5.params)
        res = check_symmetry_on_trajectory(traj, ident, A5, PARAMS5)
        assert res <= 1e-5


def scalar_symmetry_defect(traj, m, sys, params):
    """The per-sample route: the naive evaluator on each rule at every
    sample, then one scalar field call per interior sample."""
    values = params.values
    mapped = {name: naive_eval(rule, values)
              for name, rule in m.param_rules.items()}
    pts = [tuple(naive_eval(rule, {"q": complex(qk), "p": complex(pk),
                                   "t": complex(tk), **values})
                 for rule in (m.q_rule, m.p_rule, m.t_rule))
           for tk, qk, pk in zip(traj.times, traj.q, traj.p)]
    field = compile_field(sys, NumericParams(sys.name, mapped, sys.n))
    worst = 0.0
    for (Qm, Pm, Tm), (Qk, Pk, Tk), (Qp, Pp, Tp) in zip(pts, pts[1:],
                                                        pts[2:]):
        fq, fp = field(Qk, Pk, Tk)
        dT = Tp - Tm
        worst = max(worst, abs((Qp - Qm) / dT - fq), abs((Pp - Pm) / dT - fp))
    return worst


class TestSymmetryCheckMatchesScalarRoute:
    @pytest.fixture(scope="class")
    def trajs(self):
        return {sys.name: integrate(sys, params, 1, -1.5, (0, 0.3), h=1e-4)
                for sys, params in ((A5, PARAMS5), (NA3, PARAMS3))}

    @pytest.mark.parametrize("case", ["shear", "identity", "order8-branch1",
                                      "order8-branch7"])
    def test_agrees_with_per_sample_route(self, trajs, case):
        sys, params, m = {
            "shear": (A5, PARAMS5, autonomous_map(A5)),
            "identity": (A5, PARAMS5, identity_map(A5.table, A5.params)),
            "order8-branch1": (NA3, PARAMS3, nonautonomous_map(1)),
            "order8-branch7": (NA3, PARAMS3, nonautonomous_map(7)),
        }[case]
        traj = trajs[sys.name]
        assert traj.termination == "completed" and len(traj.times) == 3001
        got = check_symmetry_on_trajectory(traj, m, sys, params)
        want = scalar_symmetry_defect(traj, m, sys, params)
        assert abs(got - want) <= 1e-10
        assert got < 1e-5

    def test_constant_rule_broadcasts(self, trajs):
        # a rule without q, p or t still yields one value per sample
        tbl = A5.table
        ident = identity_map(tbl, A5.params)
        m = type(ident)("const-p", tbl, ident.q_rule,
                        LaurentPoly.const(tbl, 2), ident.t_rule,
                        ident.param_rules)
        traj = trajs[A5.name]
        got = check_symmetry_on_trajectory(traj, m, A5, PARAMS5)
        want = scalar_symmetry_defect(traj, m, A5, PARAMS5)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("samples", [1, 2])
    def test_short_trajectory_gives_zero(self, samples):
        traj = integrate(A5, PARAMS5, 1, -1.5, (0, 1e-3 * (samples - 1)),
                         h=1e-3)
        assert len(traj.times) == samples
        assert check_symmetry_on_trajectory(traj, autonomous_map(A5), A5,
                                            PARAMS5) == 0.0

    @staticmethod
    def through(q):
        """Three samples from t = 0 by 1e-3, the middle one at ``q``."""
        return Trajectory(np.array([0.0, 1e-3, 2e-3]),
                          np.array([1, q, 1], dtype=complex),
                          np.zeros(3, dtype=complex),
                          np.zeros(3, dtype=complex), "completed")

    @pytest.mark.parametrize("sys, params, q", [(A5, PARAMS5, 0),
                                                (G64, PARAMS64, 1e-5)],
                             ids=["zero", "overflow"])
    def test_sample_without_finite_image_raises(self, sys, params, q):
        # the map divides by q: the sample is named by its time, and numpy
        # does not warn on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"s-auto:\d+ has no finite image at "
                                     r"t = 0\.001$"):
                check_symmetry_on_trajectory(self.through(q),
                                             autonomous_map(sys), sys, params)

    def test_sample_next_to_zero_maps(self):
        # q = 1e-9 maps p to about 1e45: a finite image, so a finite defect
        defect = check_symmetry_on_trajectory(self.through(1e-9),
                                              autonomous_map(A5), A5, PARAMS5)
        assert math.isfinite(defect)


class TestMapRuleCache:
    def test_second_call_generates_no_code(self, monkeypatch):
        traj = integrate(NA3, PARAMS3, 1, -1.5, (0, 0.05), h=1e-3)
        m = nonautonomous_map(3)
        _map_cache.cache_clear()
        generated = []
        kernel = integrate_module._kernel
        monkeypatch.setattr(integrate_module, "_kernel",
                            lambda *polys: generated.append(polys)
                            or kernel(*polys))
        first = check_symmetry_on_trajectory(traj, m, NA3, PARAMS3)
        count = len(generated)
        second = check_symmetry_on_trajectory(traj, m, NA3, PARAMS3)
        assert count > 0 and len(generated) == count
        assert second.hex() == first.hex()


class TestStepCache:
    def test_step_generated_once_on_first_integrate(self, monkeypatch):
        # each method generates its loop on the first run with the field
        _field_cache.cache_clear()
        generated = []
        generate = integrate_module._generate
        monkeypatch.setattr(integrate_module, "_generate",
                            lambda signature, *rest: generated.append(
                                signature) or generate(signature, *rest))
        compile_field(NA3, PARAMS3)
        # the field, H and H bound to floats, no step
        assert generated == ["(q, p, t)"] * 3
        loop = "(times, qs, ps, hs, h, t1, tol)"
        for method, signatures in (("fixed-rk4", [loop]),
                                   ("adaptive-rk45", [loop, loop])):
            runs = [integrate(NA3, PARAMS3, 1, -1.5, (0, 0.05), h=1e-3,
                              method=method) for _ in range(2)]
            assert generated[3:] == signatures
            assert_same_run(*runs)

    def test_fields_with_the_same_terms_share_compiled_code(self):
        compiled = integrate_module._compile
        for method in ("fixed-rk4", "adaptive-rk45"):
            run = lambda a: integrate(A5, NumericParams("autonomous5", {
                "a": a, "e1": 1, "e2": 1}, 5), 1, 0.3, (0, 0.05),
                method=method)
            _field_cache.cache_clear()
            compiled.cache_clear()
            # compiles the field, H and the method's loop; H bound to
            # floats reuses the code of H
            run(1)
            before = compiled.cache_info()
            shared = run(2)
            after = compiled.cache_info()
            assert (after.hits - before.hits, after.misses) \
                == (4, before.misses), method
            _field_cache.cache_clear()
            compiled.cache_clear()
            assert_same_run(shared, run(2))

    @pytest.mark.parametrize("q0, t_span, method", [
        (1, (0, 0.05), "fixed-rk4"), (1, (0, 0.05), "adaptive-rk45"),
        (1, (0, 0), "fixed-rk4"), (100, (0, 1), "fixed-rk4")],
        ids=["fixed", "adaptive", "zero-span", "overflow"])
    def test_one_H_call_per_run(self, monkeypatch, q0, t_span, method):
        # each start is real: the real binding's H reads the last sample
        field = compile_field(A5, PARAMS5)
        calls = []
        for name in ("H", "real_H"):
            H = getattr(field, name)
            monkeypatch.setattr(field, name, lambda *args, H=H, name=name:
                                calls.append((name, args)) or H(*args))
        traj = integrate(A5, PARAMS5, q0, 0.3, t_span, method=method)
        assert calls == [("real_H", (traj.q[-1], traj.p[-1],
                                     traj.times[-1]))]


APPLY_CASES = {"shear-autonomous5": (A5, autonomous_map(A5)),
               **{f"shear-general:{n}": (make_general_n(n),
                                         autonomous_map(make_general_n(n)))
                  for n in range(2, 9)},
               "order8-branch1": (NA3, nonautonomous_map(1)),
               "order8-branch7": (NA3, nonautonomous_map(7))}


class TestApplyNumeric:
    @pytest.mark.parametrize("case", list(APPLY_CASES))
    def test_matches_naive_eval(self, case, rng):
        sys, m = APPLY_CASES[case]
        draw = lambda: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        for _ in range(100):
            values = {name: draw() for name in sys.params}
            q = cmath.rect(rng.uniform(0.5, 2), rng.uniform(-math.pi, math.pi))
            point = {"q": q, "p": draw(), "t": draw()}
            (Q, P, T), mapped = m.apply_numeric(point, values)
            for got, rule in zip((Q, P, T), (m.q_rule, m.p_rule, m.t_rule)):
                want = naive_eval(rule, {**point, **values})
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert list(mapped) == list(m.param_rules)
            for name, rule in m.param_rules.items():
                want = naive_eval(rule, values)
                assert abs(mapped[name] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("case", list(APPLY_CASES))
    def test_parameter_rules_have_kernel_bits(self, case):
        # a constant rule is summed as a kernel sums it, signed zeros kept
        sys, m = APPLY_CASES[case]
        for parts in ((0.7, -0.2), (-0.0, 0.0), (0.0, -0.0), (-1.5, -0.0)):
            values = dict.fromkeys(sys.params, complex(*parts))
            mapped = dict(compile_map(m, values)[0])
            for name, rule in m.param_rules.items():
                assert_same(mapped[name],
                            _kernel(_bind(rule, values))(0, 0, 0))

    @pytest.mark.parametrize("coord", ["q", "p", "t"])
    def test_parameter_rule_reading_a_coordinate_raises(self, coord):
        ident = identity_map(A5.table, A5.params)
        m = dataclasses.replace(ident, param_rules={
            **ident.param_rules,
            "e1": ident.param_rules["e1"] + LaurentPoly.var(A5.table, coord)})
        with pytest.raises(ValueError,
                           match="rule of parameter 'e1' reads q, p or t"):
            m.apply_numeric({"q": 1, "p": 0, "t": 0}, PARAMS5.values)

    def test_unknown_parameter_raises(self):
        m = autonomous_map(A5)
        with pytest.raises(ValueError, match="unknown parameter 'zz'"):
            m.apply_numeric({"q": 1, "p": 0, "t": 0},
                            {"a": 1, "e1": 1, "e2": 1, "zz": 1})

    @pytest.mark.parametrize("name", ["q", "qdot"])
    def test_coordinate_named_parameter_raises(self, name):
        m = autonomous_map(A5)
        with pytest.raises(ValueError, match=f"'{name}' is a coordinate"):
            m.apply_numeric({"q": 1, "p": 0, "t": 0},
                            {"a": 1, "e1": 1, "e2": 1, name: 5})

    @pytest.mark.parametrize("case", list(APPLY_CASES))
    def test_int_float_and_complex_points_agree(self, case):
        sys, m = APPLY_CASES[case]
        values = {name: 0.7 - 0.2j for name in sys.params}
        for q, p, t in ((3, -2, 1), (1.1, 0.3, 0.25)):
            want = m.apply_numeric({"q": complex(q), "p": complex(p),
                                    "t": complex(t)}, values)
            for point in ({"q": q, "p": p, "t": t},
                          {"q": float(q), "p": float(p), "t": float(t)}):
                got = m.apply_numeric(point, values)
                assert_same(got[0], want[0])
                assert got[1] == want[1]

    @pytest.mark.parametrize("sys, params, q", [(A5, PARAMS5, 0),
                                                (A5, PARAMS5, math.nan),
                                                (G64, PARAMS64, 1e-5)],
                             ids=["zero", "nan", "overflow"])
    def test_point_without_finite_image_raises(self, sys, params, q):
        # q = 0 raises ZeroDivisionError in ** and q = 1e-5 OverflowError on
        # general:64; NaN runs through: each is a ValueError naming the point
        point = (complex(q), 0j, 0j)
        with pytest.raises(ValueError, match=re.escape(
                f"s-auto:{sys.n} has no finite image at {point}")):
            autonomous_map(sys).apply_numeric(dict(zip("qpt", point)),
                                              params.values)

    def test_same_bits_as_trajectory_check(self):
        # the point map and the trajectory check share one compiled kernel
        m = nonautonomous_map(1)
        traj = integrate(NA3, PARAMS3, 1, -1.5, (0, 0.01), h=1e-3)
        mapped, coords = compile_map(m, PARAMS3.values)
        Q, P, T = coords(traj.q, traj.p, traj.times.astype(complex))
        for k, (tk, qk, pk) in enumerate(zip(traj.times, traj.q, traj.p)):
            got, params = m.apply_numeric(
                {"q": complex(qk), "p": complex(pk), "t": complex(tk)},
                PARAMS3.values)
            assert_same(got, (complex(Q[k]), complex(P[k]), complex(T[k])))
            assert params == dict(mapped)


class TestCsv:
    def test_format(self, tmp_path):
        traj = integrate(A5, PARAMS5, 1, 0.3, (0, 0.01), h=1e-3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        raw = path.read_bytes().decode()
        lines = raw.split("\r\n")
        assert lines[0] == "t,re_q,im_q,re_p,im_p,re_H,im_H,drift"
        assert len(lines) == len(traj.times) + 2  # header + rows + trailing
        row = lines[1].split(",")
        assert len(row) == 8
        assert float(row[1]) == 1.0
        # 17 significant digits survive a float round-trip
        assert float(lines[2].split(",")[1]) == traj.q[1].real


class TestTrajectoryInvariants:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1j]),
                       np.array([0j]), np.array([0j]), "completed")

    def test_rejects_nonincreasing_times(self):
        z = np.zeros(2, dtype=complex)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), z, z, z, "completed")

    def test_compare_by_identity(self):
        a = integrate(A5, PARAMS5, 1, 0.3, (0, 0.01), h=1e-3)
        b = integrate(A5, PARAMS5, 1, 0.3, (0, 0.01), h=1e-3)
        assert a == a
        assert (a == b) is False


# -- references: the nested evaluator written as a plain loop, and the stage
# loop that the generated steps replaced; both must agree with them bit for
# bit, signed zeros and NaN payloads included ---------------------------

def chain(z, k):
    """z^k for an int k >= 1 by binary exponentiation from z: the squares
    z^(2^i), and the product of those of k's set bits, lowest first."""
    r, square = None, z
    while True:
        if k & 1:
            r = square if r is None else r * square
        k >>= 1
        if not k:
            return r
        square = square * square


def nested_power(v, k):
    """v^k as the kernels compute it: from v, or from w = 1/v for k < 0."""
    return chain(v, k) if k > 0 else chain(1 / v, -k)


def nested_value(terms, point):
    """The nested form of the polynomial with (c, exponents) ``terms`` at
    ``point``, one value per variable: the monomial common to the terms
    factored out (the least exponent where all are >= 0, the greatest where
    all are < 0), the rest by Horner's rule in the first variable over the
    degrees present, the degrees >= 0 in v and the others in w = 1/v, added
    after, each coefficient nested alike in the remaining variables."""
    if not point:
        (c, ()), = terms
        return c
    v, rest = point[0], point[1:]
    common = []
    for column in zip(*(exps for _, exps in terms)):
        low, high = min(column), max(column)
        common.append(low if low >= 0 else high if high < 0 else 0)
    sides = ({}, {})
    for c, (k, *exps) in terms:
        k -= common[0]
        sides[k < 0].setdefault(abs(k), []).append(
            (c, tuple(e - m for e, m in zip(exps, common[1:]))))
    parts = []
    for sign, side in zip((1, -1), sides):
        if not side:
            continue
        ks = sorted(side, reverse=True)
        value = nested_value(side[ks[0]], rest)
        for k, j in zip(ks, ks[1:]):
            value = value * nested_power(v, sign * (k - j)) \
                + nested_value(side[j], rest)
        if ks[-1]:
            value = value * nested_power(v, sign * ks[-1])
        parts.append(value)
    value = parts[0] if len(parts) == 1 else parts[0] + parts[1]
    for x, k in zip(point, common):
        if k:
            value = value * nested_power(x, k)
    return value


def bound_terms(poly, params):
    """The (c, (eq, ep, et)) terms of ``poly`` with ``params`` bound, zero
    coefficients left out."""
    tbl = poly.table
    iq, ip, it = tbl.index("q"), tbl.index("p"), tbl.index("t")
    pidx = {tbl.index(k): complex(v) for k, v in params.items()}
    merged = {}
    for exps, coeff in poly.terms.items():
        c = complex(coeff)
        for i, e in enumerate(exps):
            if e and i not in (iq, ip, it):
                c *= pidx[i] ** e
        key = (exps[iq], exps[ip], exps[it])
        merged[key] = merged.get(key, 0j) + c
    return [(c, key) for key, c in merged.items() if c != 0]


class RefCompiledPoly:
    """A LaurentPoly with parameters bound, evaluated by ``nested_value``,
    or 0 where it has no term; with ``real``, in float arithmetic, from the
    real parts of the bound coefficients."""

    def __init__(self, poly, params, real=False):
        self.terms = [(c.real if real else c, key)
                      for c, key in bound_terms(poly, params)]
        self.zero = 0.0 if real else 0j

    def __call__(self, q, p, t):
        return nested_value(self.terms, (q, p, t)) if self.terms \
            else self.zero


class RefField:
    def __init__(self, sys, values, real=False):
        f_q, f_p = hamilton_equations(sys)
        self.f_q = RefCompiledPoly(f_q, values, real)
        self.f_p = RefCompiledPoly(f_p, values, real)
        self.H = RefCompiledPoly(sys.H, values, real)
        # whether every bound coefficient of the field and H is real
        self.real = not any(c.imag for poly in (self.f_q, self.f_p, self.H)
                            for c, _ in poly.terms)
        self.calls = 0

    def __call__(self, q, p, t):
        self.calls += 1
        return self.f_q(q, p, t), self.f_p(q, p, t)


def ref_guard(t, q, p):
    """The one stage failure: q not finite or above OVERFLOW_GUARD, or p
    not finite."""
    if not (abs(q) <= OVERFLOW_GUARD and cmath.isfinite(p)):
        raise OverflowError(f"|q| = {abs(q):.3e}, p = {p} at t = {t}")


def weigh(weights, ks):
    """The weighted sum of ``ks`` as the step computes it: from the first
    term, zero weights left out and a unit weight's term k, not 1*k."""
    terms = [k if w == 1 else w * k for w, k in zip(weights, ks) if w]
    return sum(terms[1:], terms[0])


def ref_rk_step(tab, q, p, t, h, field, tol=0.0, weigh=weigh):
    kq, kp = [], []
    for row, c in zip(tab.a, tab.c):
        qi, pi = q, p
        for a, dq, dp in zip(row, kq, kp):
            if a:
                qi += h * a * dq
                pi += h * a * dp
        ref_guard(t, qi, pi)
        dq, dp = field(qi, pi, t + c * h)
        kq.append(dq)
        kp.append(dp)
    w = h / tab.div
    qn = q + w * weigh(tab.b, kq)
    pn = p + w * weigh(tab.b, kp)
    if tab.b_err is None:
        return qn, pn, 0.0, kq[0]
    qe = q + w * weigh(tab.b_err, kq)
    pe = p + w * weigh(tab.b_err, kp)
    eq = abs(qe - qn) / (tol + tol * max(abs(q), abs(qn)))
    ep = abs(pe - pn) / (tol + tol * max(abs(p), abs(pn)))
    return qn, pn, math.sqrt((eq ** 2 + ep ** 2) / 2), kq[0]


def ref_step(tab, q, p, t, h, field, tol=0.0, weigh=weigh):
    """``ref_rk_step`` and H at (q, p, t), in the order the generated step
    evaluates them: the first stage's field, then H, which must be finite,
    then the later stages."""
    ref_guard(t, q, p)
    field(q, p, t + tab.c[0] * h)
    H = field.H(q, p, t)
    if not cmath.isfinite(H):
        raise OverflowError("H is not finite")
    return (*ref_rk_step(tab, q, p, t, h, field, tol, weigh), H)


class Sampled(Exception):
    """Raised by ``StopAtSample``: the loop has taken its first sample."""


class StopAtSample(list):
    """A loop's list of p samples, the last list a sample appends to, which
    stops the loop there."""

    def append(self, p):
        super().append(p)
        raise Sampled


# a tol at which the embedded pair accepts every attempt but one whose
# error estimate is not finite or whose two solutions differ by more than
# 1e300 times the scale, so that the bits of nearly every attempt are seen
ANY_TOL = 1e300


def step_tols(tab, tol):
    """The tols at which to compare an attempt of ``tab``: tol, and ANY_TOL
    for an embedded pair, whose error test tol decides."""
    return (tol, ANY_TOL) if tab.b_err is not None else (tol,)


def loop_step(field, tab, q, p, t, h, tol):
    """One attempt of ``tab`` from (q, p, t) of length h, made by the
    field's loop on a span of 100 h, stopped at its first sample: (qn, pn,
    H at (q, p, t)) where the attempt is accepted, 'raised' where the start
    or a stage fails, 'overflow' where qn or pn leaves the guard, and
    ('rejected', H) where the embedded pair rejects it, with H the value
    that a later attempt from (q, p, t) appends, or None where none does."""
    times, qs, ps, hs = [t], [q], StopAtSample([p]), []
    try:
        end, _, rejected, *_ = field.loop(tab)(times, qs, ps, hs, h,
                                               t + 100 * h, tol)
    except Sampled:
        if times[1] == t + h:
            return qs[1], ps[1], hs[0]
        return "rejected", hs[0]
    return ("rejected", None) if rejected else end


def ref_loop_step(tab, q, p, t, h, field, tol, weigh=weigh):
    """``loop_step``'s outcome from ``ref_step``."""
    try:
        qn, pn, err, _, H = ref_step(tab, q, p, t, h, field, tol, weigh)
    except OverflowError:
        return "raised"
    if not err <= 1.0:
        return "rejected", H
    if not (abs(qn) <= OVERFLOW_GUARD and abs(pn) <= OVERFLOW_GUARD):
        return "overflow"
    return qn, pn, H


def step_outcomes(got, want, read):
    """The outcomes of ``loop_step`` and ``ref_loop_step``, each with its
    values read by ``read``: a rejected attempt's H only where a later
    attempt of the loop appended it."""
    seen = not (isinstance(got, tuple) and got[1] is None)

    def key(out):
        if isinstance(out, str):
            return out
        if isinstance(out[0], str):
            return out[0], read(out[1]) if seen else None
        return tuple(map(read, out))
    return key(got), key(want)


def locates_blowup(estimates, tol, t1):
    """Whether the last three (t, alpha, t*) estimates locate a blow-up:
    with s = max(1, |Re t*|), each has Re alpha > 0, a gap Re t* - t in
    (0, sqrt(tol)*s], |Im t*| <= tol*gap and Re t* <= t1 - tol*s, and each
    agrees with the one before it to tol*s."""
    last = estimates[-3:]
    if len(last) < 3:
        return False
    for t, alpha, star in last:
        scale = max(1.0, abs(star.real))
        gap = star.real - t
        if not (alpha.real > 0 and 0 < gap <= math.sqrt(tol) * scale
                and abs(star.imag) <= tol * gap
                and star.real <= t1 - tol * scale):
            return False
    return all(abs(b[2] - a[2]) <= tol * max(1.0, abs(b[2].real))
               for a, b in zip(last, last[1:]))


def chart_ends(star, t, t1, tol):
    """Whether the chart's t* ends a run at t: with s = max(1, |Re t*|),
    the gap Re t* - t is positive and at least |Im t*|/tol, and
    Re t* <= t1 - tol*s."""
    gap = star.real - t
    return (gap > 0 and abs(star.imag) <= tol * gap
            and star.real <= t1 - tol * max(1.0, abs(star.real)))


def ref_integrate(sys, values, q0, p0, t_span, h, tol, method):
    """The stepping loop of ``integrate`` that the generated steps replaced,
    driven by ``ref_rk_step`` and ``RefField``, with its own count of the
    run statistics: the field calls of the steps that returned, and the
    smallest step whose sample was recorded.  A step to a q or p that is
    not finite or beyond OVERFLOW_GUARD, or to a sample at which H is not
    finite, is not taken: the run ends with ``overflow``.  An adaptive
    run keeps u = q/q' at each sample whose q' is nonzero; from the last two
    distinct u it estimates alpha = -(t_b - t_a)/(u_b - u_a) and
    t* = t_b + alpha*u_b, and stops once ``locates_blowup``.  Before each
    attempt from a sample at which |q| first reached ESCAPE_RADIUS, or
    doubled since the last probe, the run reads t* - t from the field's
    chart at the sample as a complex one, with H from the complex field.
    The reading counts where the step into the sample is shorter than
    Re(t* - t).  Once one counts the run makes no more estimates, and it
    ends at that sample with ``blow-up`` where ``chart_ends``.  Where the
    field and H, q0 and p0 are real, the run steps in float arithmetic."""
    tab = {"fixed-rk4": _RK4, "adaptive-rk45": _FEHLBERG45}[method]
    adaptive = tab.b_err is not None
    t0, t1 = t_span
    field = probed = RefField(sys, values)
    t, q, p = t0, complex(q0), complex(p0)
    if field.real and not (q.imag or p.imag):
        field, q, p = RefField(sys, values, real=True), q.real, p.real
    times, qs, ps, hs = [t], [q], [p], [field.H(q, p, t)]
    termination = "completed"
    attempted = rejected = evals = 0
    accepted_steps, us, estimates = [], [], []
    # each step moves t: it is at least one float spacing at |t0| and |t1|
    h_min = max(1e-12, math.ulp(max(abs(t0), abs(t1))))
    h_max = max((t1 - t0) / 10, h_min)
    step = min(max(h, h_min), h_max)
    safety, p_order = 0.9, 5.0
    err_prev = 1.0
    t_ulp = 2.0 ** -52 * max(abs(t0), abs(t1))
    chart = Chart.bind(sys, values)
    escape_at, probing, charted = ESCAPE_RADIUS, False, False

    def ended(termination, **located):
        return Trajectory(np.array(times), np.array(qs, complex),
                          np.array(ps, complex), np.array(hs, complex),
                          termination, steps_attempted=attempted,
                          steps_rejected=rejected, field_evals=evals,
                          min_step=min(accepted_steps, default=None),
                          **located)

    while t < t1:
        if probing:
            probing = False
            zq, zp = complex(q), complex(p)
            gap = chart and chart.gap(zq, zp, probed.H(zq, zp, t))
            if gap is not None and accepted_steps[-1] < gap.real:
                charted = True
                if chart_ends(t + gap, t, t1, tol):
                    return ended("blow-up", t_star=(t + gap).real,
                                 exponent=chart.exponent)
        if adaptive:
            step = min(step, t1 - t)
        else:
            step = t1 - t if t1 - t <= h + len(times) * t_ulp else h
        attempted += 1
        calls = field.calls
        try:
            qn, pn, err, dq = ref_rk_step(tab, q, p, t, step, field, tol)
        except OverflowError:
            termination = "overflow"
            break
        evals += field.calls - calls
        new_estimate = False
        if adaptive and not charted and dq != 0 \
                and not (us and us[-1][0] == t):
            us.append((t, q / dq))
            if len(us) > 1 and us[-1][1] != us[-2][1]:
                (ta, ua), (tb, ub) = us[-2:]
                alpha = -(tb - ta) / (ub - ua)
                estimates.append((tb, alpha, tb + alpha * ub))
                new_estimate = True
        if err <= 1.0:
            t += step
            q, p = qn, pn
            if not (cmath.isfinite(q) and cmath.isfinite(p)) \
                    or abs(q) > OVERFLOW_GUARD or abs(p) > OVERFLOW_GUARD:
                termination = "overflow"
                break
            H = field.H(q, p, t)
            if not cmath.isfinite(H):  # nor is a sample where H is not
                termination = "overflow"
                break
            times.append(t)
            qs.append(q)
            ps.append(p)
            hs.append(H)
            accepted_steps.append(step)
            if abs(q) >= escape_at:
                escape_at, probing = 2 * abs(q), True
            elif abs(q) < ESCAPE_RADIUS:
                escape_at = ESCAPE_RADIUS
        else:
            rejected += 1
        if not adaptive:
            continue
        if err <= 1.0:
            fac = safety * (err + 1e-16) ** (-0.7 / p_order) \
                * (err_prev + 1e-16) ** (0.4 / p_order)
            err_prev = max(err, 1e-4)
        else:
            fac = max(0.1, safety * err ** (-1 / p_order))
        step = min(max(step * min(5.0, fac), h_min), h_max)
        if new_estimate and locates_blowup(estimates, tol, t1):
            _, alpha, star = estimates[-1]
            return ended("blow-up", t_star=star.real, exponent=alpha.real)
        if step <= h_min and err > 1.0:
            termination = "step-underflow"
            break
    return ended(termination)


def bits(x):
    """Bytes of a complex scalar or array; -0.0 and 0.0 differ."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return struct.pack("<dd", x.real, x.imag)


KERNEL_SYSTEMS = [A5, *(make_general_n(n) for n in range(2, 13)), NA3]
# H = a*p: a constant field, zero when a is
DEGENERATE = HamSystem("degenerate", A5.table, A5.var("a") * A5.var("p"),
                       A5.params, True, 5)
STEP_SYSTEMS = [*KERNEL_SYSTEMS, DEGENERATE]
zeros = st.sampled_from((0.0, -0.0))
parts = st.one_of(zeros, st.floats(-1.5, 1.5))
scalars = st.builds(complex, parts, parts)
# |q| kept off 0: map rules carry negative powers of q
nonzero = scalars.filter(lambda z: abs(z) > 0.25)
real_axis = st.builds(complex, st.floats(0.25, 1.5) | st.floats(-1.5, -0.25),
                      zeros)
states = st.one_of(st.tuples(nonzero, scalars),
                   st.tuples(real_axis, st.builds(complex, zeros, zeros)))
times = st.one_of(zeros, st.floats(0, 1), scalars)
# real parameters, q0 and p0 keep a flow on the real axis, where its
# movable singularities lie in real time
real_scalars = st.builds(complex, parts, zeros)
real_states = st.tuples(real_axis, real_scalars)


def param_values(sys, values=scalars):
    return st.fixed_dictionaries(dict.fromkeys(sys.params, values))


def arrays(elements):
    return st.lists(elements, min_size=5, max_size=5).map(
        lambda zs: np.array(zs, dtype=complex))


def assert_same(got, want):
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert bits(got) == bits(want)


def map_rules(m):
    return [m.q_rule, m.p_rule, m.t_rule, *m.param_rules.values()]


# negative powers of q, parameter powers and rules free of q, p and t
LAURENT_RULES = {"shear": map_rules(autonomous_map(A5)),
                 "order8": map_rules(nonautonomous_map(3)),
                 "dHdt": [time_derivative_of_H(NA3)]}


# drawn parameters may be zero
@pytest.mark.filterwarnings("ignore:parameter e")
class TestKernelsMatchLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KERNEL_SYSTEMS), st.data(), states, times)
    def test_scalars(self, sys, data, state, t):
        values = data.draw(param_values(sys))
        ref = RefField(sys, values)
        field = compile_field(sys, NumericParams(sys.name, values, sys.n))
        q, p = state
        assert_same(field(q, p, t), ref(q, p, t))
        assert_same(field.H(q, p, t), ref.H(q, p, t))
        assert_same(compiled_poly(sys.H, values)(q, p, t), ref.H(q, p, t))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KERNEL_SYSTEMS), st.data(), arrays(nonzero),
           arrays(scalars), st.one_of(times, arrays(scalars)))
    def test_arrays(self, sys, data, q, p, t):
        values = data.draw(param_values(sys))
        ref = RefField(sys, values)
        field = compile_field(sys, NumericParams(sys.name, values, sys.n))
        assert_same(field(q, p, t), ref(q, p, t))
        assert_same(field.H(q, p, t), ref.H(q, p, t))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(LAURENT_RULES)), st.data(),
           st.one_of(states, st.tuples(arrays(nonzero), arrays(scalars))),
           times)
    def test_laurent_rules(self, which, data, state, t):
        polys = LAURENT_RULES[which]
        values = {name: data.draw(scalars) for name in polys[0].table.names
                  if name not in COORD_VARS}
        q, p = state
        for poly in polys:
            assert_same(compiled_poly(poly, values)(q, p, t),
                        RefCompiledPoly(poly, values)(q, p, t))

    def test_longer_than_one_generated_line(self):
        # 3000 terms, split over several generated statements
        tbl = A5.table
        terms = {}
        for eq in range(-20, 80):
            for ep in range(5):
                for et in range(6):
                    exps = [0] * len(tbl)
                    exps[:4] = eq, ep, 0, et
                    terms[tuple(exps)] = (eq + 2 * ep - et) or 1
        poly = LaurentPoly(tbl, terms)
        values = {"a": 1, "e1": 1, "e2": 1}
        for q, p, t in ((1.01 - 0.02j, 0.3 + 0j, 0.5), (-1 + 0j, -0.0j, 1j)):
            assert_same(compiled_poly(poly, values)(q, p, t),
                        RefCompiledPoly(poly, values)(q, p, t))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([_RK4, _FEHLBERG45]),
           st.sampled_from(STEP_SYSTEMS), st.data(),
           st.one_of(states, st.tuples(st.sampled_from((0j, 1e-9 + 0j,
                                                        5e11 + 0j)),
                                       scalars)),
           st.one_of(zeros, st.floats(0, 1)), st.floats(1e-4, 1e-1),
           st.sampled_from((1e-9, 1e-6)))
    def test_rk_step(self, tab, sys, data, state, t, h, tol):
        values = data.draw(param_values(sys))
        q, p = state
        assert_same_step(sys, values, tab, q, p, t, h, tol)

    # magnitudes at which powers in the field and in H overflow at some
    # stage, and the overflow guard fires
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([_RK4, _FEHLBERG45]),
           st.sampled_from(STEP_SYSTEMS), st.data(), st.floats(-3, 12.5),
           st.floats(-3, 170), st.floats(-math.pi, math.pi),
           st.floats(-math.pi, math.pi), st.floats(1e-4, 1e-1))
    def test_rk_step_raises_where_reference_raises(self, tab, sys, data, lq,
                                                   lp, aq, ap, h):
        values = data.draw(param_values(sys))
        q, p = cmath.rect(10 ** lq, aq), cmath.rect(10 ** lp, ap)
        assert_same_step(sys, values, tab, q, p, 0.0, h, 1e-9)

    @pytest.mark.parametrize("tab", [_RK4, _FEHLBERG45],
                             ids=["rk4", "fehlberg45"])
    def test_rk_step_raises_where_H_raises(self, tab):
        # the step tests H at its start, so it raises where H is not finite
        # even when every stage of the field is finite
        ref = RefField(CAPPED, CAPPED_PARAMS.values)
        ref_rk_step(tab, 1 + 0j, 1 + 0j, 0.9, 1e-3, ref, 1e-9)
        assert not cmath.isfinite(ref.H(1 + 0j, 1 + 0j, 0.9))
        assert_same_step(CAPPED, CAPPED_PARAMS.values, tab, 1 + 0j, 1 + 0j,
                         0.9, 1e-3, 1e-9)
        assert loop_step(compile_field(CAPPED, CAPPED_PARAMS), tab, 1 + 0j,
                         1 + 0j, 0.9, 1e-3, 1e-9) == "raised"


def assert_same_step(sys, values, tab, q, p, t, h, tol):
    """One attempt of ``tab`` in the field's loop ends as ``ref_step``'s
    does, raised, rejected or leaving the guard, or has its bits, at tol
    and, for an embedded pair, at ANY_TOL; the H it sums has the bits of
    ``field.H`` at (q, p, t)."""
    field = compile_field(sys, NumericParams(sys.name, values, sys.n))
    ref = RefField(sys, values)
    for each in step_tols(tab, tol):
        got = loop_step(field, tab, q, p, t, h, each)
        want = ref_loop_step(tab, q, p, t, h, ref, each)
        got_key, want_key = step_outcomes(got, want, bits)
        assert got_key == want_key
        if not isinstance(got, str) and got[-1] is not None:
            assert_same(got[-1], field.H(q, p, t))


def outcome(fn, *args):
    """The bits of what fn(*args) returns (each item of a tuple), or the type
    and message of the ArithmeticError it raises."""
    try:
        got = fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return "value", tuple(map(bits, got if isinstance(got, tuple) else (got,)))


def quiet_nan(sign, payload):
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | 0x7FF8 << 48
                                           | payload))[0]


# parts from the whole float range: signed zeros, subnormals, magnitudes
# from 1e-320 to 1e301 (so some power of 1..100 overflows at every
# magnitude above 1e3), infinities and NaNs, with payloads and either sign
# (a sum of two NaNs keeps the payload of one of them, so operand order
# shows)
nans = st.builds(quiet_nan, st.integers(0, 1), st.integers(0, 2 ** 51 - 1))
wide_parts = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf)),
    nans,
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10),
              st.integers(-320, 300)),
    st.floats(allow_nan=True, allow_infinity=True))
wide = st.builds(complex, wide_parts, wide_parts)


# drawn parameters may be zero
@pytest.mark.filterwarnings("ignore:parameter e")
class TestKernelsOverTheFloatRange:
    """The kernels and steps against the nested reference at points from the
    whole float range: the same bits, NaN payloads included, and the same
    exception, type and message."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([_RK4, _FEHLBERG45]),
           st.sampled_from(STEP_SYSTEMS), st.data(), wide, wide,
           st.one_of(wide_parts, wide), st.one_of(zeros, st.floats(-1e3, 1e3)),
           st.floats(1e-4, 1e-1))
    def test_kernels_and_steps(self, tab, sys, data, q, p, t, s, h):
        # a step starts where a run can: from a finite p at a finite time
        # (a q beyond the guard stops the loop before its first stage)
        values = data.draw(param_values(sys))
        field = compile_field(sys, NumericParams(sys.name, values, sys.n))
        ref = RefField(sys, values)
        for got, want in ((field, ref), (field.H, ref.H)):
            assert outcome(got, q, p, t) == outcome(want, q, p, t)
        if cmath.isfinite(p):
            for tol in step_tols(tab, 1e-9):
                got, want = step_outcomes(
                    loop_step(field, tab, q, p, s, h, tol),
                    ref_loop_step(tab, q, p, s, h, ref, tol), bits)
                assert got == want

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(LAURENT_RULES)), st.data(),
           st.one_of(wide, st.builds(complex, zeros, zeros)), wide,
           st.one_of(wide_parts, wide))
    def test_laurent_rules(self, which, data, q, p, t):
        # q = 0 raises ZeroDivisionError where a rule reads w = 1/q
        polys = LAURENT_RULES[which]
        values = {name: data.draw(scalars) for name in polys[0].table.names
                  if name not in COORD_VARS}
        for poly in polys:
            assert outcome(compiled_poly(poly, values), q, p, t) \
                == outcome(RefCompiledPoly(poly, values), q, p, t)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(LAURENT_RULES)), st.data(), arrays(wide),
           arrays(wide), st.one_of(wide_parts, arrays(wide)))
    def test_laurent_rules_on_arrays(self, which, data, q, p, t):
        # numpy arrays warn at q = 0 and go on, as the reference's
        # arithmetic does
        polys = LAURENT_RULES[which]
        values = {name: data.draw(scalars) for name in polys[0].table.names
                  if name not in COORD_VARS}
        q[0] = 0j
        with np.errstate(all="ignore"):
            for poly in polys:
                assert_same(compiled_poly(poly, values)(q, p, t),
                            RefCompiledPoly(poly, values)(q, p, t))


exponents = st.lists(st.integers(1, 100), max_size=3, unique=True)


class TestPowerChain:
    """The powers of a kernel, each computed once from v, or from w = 1/v
    for a negative exponent, by binary exponentiation."""

    @settings(max_examples=500, deadline=None)
    @given(wide, wide, exponents.filter(bool), exponents, exponents)
    def test_generated_powers_match_pow(self, z, w, qks, pks, inverse):
        # the power lines on their own: the bits of the reference chain,
        # and, for a positive exponent, the value of CPython's z**k where
        # it is finite (its chain starts from 1+0j, so zero signs differ)
        powers = [*(("q", k) for k in qks), *(("p", k) for k in pks),
                  *(("q", -k) for k in inverse)]
        lines = integrate_module._power_lines(
            [power for power in powers if power[1] != 1])
        names = [integrate_module._power_name(*power) for power in powers]
        fn = _generate("(q, p, t)", lines + [f"return ({', '.join(names)},)"],
                       {})
        point = {"q": z, "p": w}
        got = outcome(fn, z, w, 0.0)
        assert got == outcome(
            lambda: tuple(nested_power(point[v], k) for v, k in powers))
        if got[0] != "value":  # 1/q at q = 0
            return
        for (v, k), value in zip(powers, fn(z, w, 0.0)):
            if k < 0:
                continue
            try:
                want = point[v] ** k
            except OverflowError:
                continue
            if cmath.isfinite(want):
                assert value == want

    @settings(max_examples=500, deadline=None)
    @given(wide, st.integers(1, 100))
    def test_loop_reference_matches_pow(self, z, k):
        # the reference chain has the value of z**k wherever that is finite
        try:
            want = z ** k
        except OverflowError:
            return
        if cmath.isfinite(want):
            assert chain(z, k) == want


def exact(z):
    """A complex float as an exact pair of Fractions."""
    return Fraction(z.real), Fraction(z.imag)


def exact_product(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def exact_power(a, k):
    """a^k for an int k, exactly: a negative k is a power of 1/a."""
    if k < 0:
        norm = a[0] ** 2 + a[1] ** 2
        a, k = (a[0] / norm, -a[1] / norm), -k
    r = (Fraction(1), Fraction(0))
    for _ in range(k):
        r = exact_product(r, a)
    return r


# unit roundoff, and a bound on the relative error of one complex
# operation: sqrt(2)*gamma_2 for a product and sqrt(2)*gamma_4 for the
# textbook quotient (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Lemma 3.5), with room for CPython's scaled quotient
UNIT = 2.0 ** -53
NU = 8 * UNIT


def assert_within_higham_bound(terms, point, got):
    """``got`` lies within Higham's bound for Horner's rule (§5.1) of the
    exact value of the (c, exponents) ``terms`` at ``point``: gamma_{2d} *
    sum |c| |q|^eq |p|^ep |t|^et, with gamma_k = k*NU/(1 - k*NU).  A term
    passes at most one product per unit of its degree (the chains of its
    powers included) and one sum per Horner step below it, at most its
    degree plus one in each of q, p and t, and one sum of the q and w
    parts.  Each power of w = 1/q also carries the quotient's error, so a
    negative degree counts twice: 2d + 4 operations in all, with d the
    largest such degree."""
    point = tuple(map(complex, point))
    total = (Fraction(0), Fraction(0))
    size, d = 0.0, 0
    for c, exps in terms:
        term = exact(complex(c))
        for x, k in zip(point, exps):
            term = exact_product(term, exact_power(exact(x), k))
        total = (total[0] + term[0], total[1] + term[1])
        size += abs(c) * math.prod(abs(x) ** k for x, k in zip(point, exps))
        d = max(d, sum(2 * -k if k < 0 else k for k in exps))
    k = 2 * d + 4
    error = abs(complex(got) - complex(float(total[0]), float(total[1])))
    assert error <= k * NU / (1 - k * NU) * size


dyadic = st.integers(-64, 64).map(lambda k: k / 32)
dyadic_complex = st.builds(complex, dyadic, dyadic)


@pytest.mark.filterwarnings("ignore:parameter e")
class TestKernelsWithinHighamBound:
    """An oracle independent of the nesting: each bound polynomial's exact
    value in Fractions at drawn dyadic points, which floats hold exactly."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(KERNEL_SYSTEMS), st.data(), dyadic_complex,
           dyadic_complex, dyadic)
    def test_field_and_H(self, sys, data, q, p, t):
        values = data.draw(param_values(sys, dyadic_complex))
        field = compile_field(sys, NumericParams(sys.name, values, sys.n))
        f_q, f_p = hamilton_equations(sys)
        for poly, got in zip((f_q, f_p, sys.H),
                             (*field(q, p, t), field.H(q, p, t))):
            assert_within_higham_bound(bound_terms(poly, values), (q, p, t),
                                       got)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(LAURENT_RULES)), st.data(),
           dyadic_complex.filter(bool), st.integers(-8, 8), dyadic_complex,
           dyadic_complex)
    def test_laurent_rules(self, which, data, q, scale, p, t):
        polys = LAURENT_RULES[which]
        values = {name: data.draw(dyadic_complex)
                  for name in polys[0].table.names if name not in COORD_VARS}
        q *= 2.0 ** scale
        for poly in polys:
            assert_within_higham_bound(bound_terms(poly, values), (q, p, t),
                                       compiled_poly(poly, values)(q, p, t))

    @pytest.mark.parametrize("sys, m", [
        (A5, autonomous_map(A5)),
        (make_general_n(12), autonomous_map(make_general_n(12))),
        (NA3, nonautonomous_map(3))], ids=["autonomous5", "general:12",
                                           "order8"])
    def test_map_images_from_small_to_huge_q(self, sys, m):
        # the images nest their negative powers in w = 1/q, so they are
        # finite over the whole range; q**-k, which computes q**k first,
        # failed from |q| = 1e26 on general:12 and 1e62 on the others
        values = {name: 0.75 - 0.5j for name in sys.params}
        for k in range(-5, 101):
            q = cmath.rect(10.0 ** k, 0.3)
            point = (q, 0.7 - 0.2j, 0.4 + 0j)
            image, _ = m.apply_numeric(dict(zip("qpt", point)), values)
            for rule, got in zip((m.q_rule, m.p_rule, m.t_rule), image):
                assert cmath.isfinite(got)
                assert_within_higham_bound(bound_terms(rule, values), point,
                                           got)


class TestNestedForm:
    def test_general12_stage_operations(self):
        # general:12's field and H nest in 75 complex operations, where the
        # term-by-term form took 96 and its shared power chain 12 more
        sys = make_general_n(12)
        field = compile_field(sys, NumericParams(sys.name,
                                                 GENERAL12_ONES, 12))
        names = {}
        lines = integrate_module._kernel_lines(
            [(out, integrate_module._named(names, spans), "qpt")
             for out, spans in zip(("kq", "kp", "H"), field._spans)])
        assert sum(line.count(" * ") + line.count(" + ")
                   for line in lines) == 75


def assert_same_run(got, want):
    """Equal sample bytes, label and run statistics."""
    for name in ("times", "q", "p", "H_values"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert got.termination == want.termination
    for name in ("steps_attempted", "steps_rejected", "field_evals"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("min_step", "t_star", "exponent"):
        value = getattr(want, name)
        if value is None:
            assert getattr(got, name) is None, name
        else:
            assert getattr(got, name).hex() == value.hex(), name


def assert_equal_run(got, want):
    """Samples that compare equal, which leaves the sign of a zero free,
    and the same label, run statistics, t* and exponent."""
    for name in ("times", "q", "p", "H_values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("termination", "steps_attempted", "steps_rejected",
                 "field_evals", "min_step", "t_star", "exponent"):
        assert getattr(got, name) == getattr(want, name), name


def complex_binding_run(sys, params, *args, **kwargs):
    """``integrate``'s run in complex arithmetic, as for a field that is not
    real, whatever its coefficients and start."""
    field = compile_field(sys, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(field, "real", False)
        return integrate(sys, params, *args, **kwargs)


def record_loops(monkeypatch, field, tab):
    """The end of each call of the field's loops of ``tab``, and whether the
    call ran the real binding: each binding the field has is recorded."""
    ends = []
    for real in (False, True)[:1 + field.real]:
        loop = field.loop(tab, real)

        def record(*args, loop=loop, real=real):
            out = loop(*args)
            ends.append((out[0], real))
            return out
        monkeypatch.setitem(field._loops, (tab, real), record)
    return ends


@pytest.mark.filterwarnings("ignore:parameter e")
class TestIntegrateMatchesLoopReference:
    # spans are short, so a run that never ends fails fast; starts scaled
    # by 3 reach the movable singularities within the span, and real flows
    # reach them in real time, where adaptive-rk45 locates them
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KERNEL_SYSTEMS), st.data(),
           st.one_of(st.tuples(st.just(scalars), states),
                     st.tuples(st.just(real_scalars), real_states)),
           st.sampled_from((1, 3)),
           st.sampled_from(["fixed-rk4", "adaptive-rk45"]),
           st.sampled_from((0.0, -0.0, 0.25)),
           st.sampled_from((0, 0.05, 0.2)),
           st.floats(1e-3, 2e-2), st.sampled_from((1e-9, 1e-6)))
    def test_drawn_runs(self, sys, data, flow, scale, method, t0, span, h,
                        tol):
        coeffs, (q0, p0) = flow
        values = data.draw(param_values(sys, coeffs))
        params = NumericParams(sys.name, values, sys.n)
        # part by part, so a signed zero keeps its sign
        q0 = complex(q0.real * scale, q0.imag * scale)
        t_span = (t0, t0 + span)
        got = integrate(sys, params, q0, p0, t_span, h=h, tol=tol,
                        method=method)
        want = ref_integrate(sys, values, q0, p0, t_span, h, tol, method)
        assert_same_run(got, want)

    @pytest.mark.parametrize("sys,values,q0,p0,t1,method,tol,label", [
        (A5, PARAMS5.values, 1, 0.3, 0.05, "fixed-rk4", 1e-9, "completed"),
        (A5, PARAMS5.values, 1, 0.3, 0.05, "adaptive-rk45", 1e-9,
         "completed"),
        # q passes through 0, a regular point
        (A5, A5_PASS_THROUGH, 0.01, 0, 0.05, "fixed-rk4", 1e-9,
         "completed"),
        # the movable singularity at t* = 0.16164: h = 1e-3 steps past it
        # before |q| reaches 10, so the chart's readings do not count
        (A5, PARAMS5.values, 1, 0, 0.2, "fixed-rk4", 1e-9, "overflow"),
        # with a = 0, q' = q^3 + 1 blows up at t* = 0.37355, and the field
        # has no chart: A~(0) = a
        (A5, {"a": 0, "e1": 1, "e2": 1}, 1, 0, 0.6, "fixed-rk4", 1e-9,
         "overflow"),
        (A5, PARAMS5.values, 1, 0, 0.2, "adaptive-rk45", 1e-9, "blow-up"),
        # the same field without its chart: no three estimates of t* agree
        # to 1e-16, a few ulps of t*, so the step underflows first
        (A5_UNCHARTED, PARAMS5.values, 1, 0, 0.2, "adaptive-rk45", 1e-16,
         "step-underflow")],
        ids=["completed-fixed", "completed-adaptive", "pass-through",
             "overflow", "overflow-uncharted", "blow-up", "step-underflow"])
    def test_each_label(self, sys, values, q0, p0, t1, method, tol, label):
        params = NumericParams(sys.name, values, sys.n)
        got = integrate(sys, params, q0, p0, (0, t1), h=1e-3, tol=tol,
                        method=method)
        want = ref_integrate(sys, values, q0, p0, (0, t1), 1e-3, tol, method)
        assert got.termination == label
        assert (got.t_star is None) == (label != "blow-up")
        assert_same_run(got, want)

    def test_located_blowup_matches_reference(self):
        # two agreeing estimates of t* would stop this run at t = 0.087,
        # far before its blow-up at 0.26043; three do not, and the run goes
        # on into the chart.  Its reading counts once |q| > 22, where
        # |r_1|*2|w| = 4|a e1 w| falls below |a|^2: the probes at |q| = 10.4
        # and 21.3 do not count, and the one at 44.3 ends the run 7.6e-4
        # before t*
        values = {"a": 0.3067, "e1": -1.707, "e2": -0.6642, "e3": 0.3004}
        sys = make_general_n(4)
        got = integrate(sys, NumericParams(sys.name, values, 4), -0.9307,
                        -1.4827, (0, 0.5), h=1e-3, tol=1e-6,
                        method="adaptive-rk45")
        want = ref_integrate(sys, values, -0.9307, -1.4827, (0, 0.5), 1e-3,
                             1e-6, "adaptive-rk45")
        assert got.termination == "blow-up"
        assert got.times[-1] >= 0.259 and got.steps_rejected >= 1
        assert abs(got.q[-1]) >= 4 * ESCAPE_RADIUS
        assert got.t_star - got.times[-1] < 1e-3 and got.exponent == 1 / 2
        assert_same_run(got, want)

    def test_statistics_take_no_part_in_comparison(self):
        # trajectories compare by identity, so no field takes part
        assert Trajectory.__eq__ is object.__eq__
        assert Trajectory.__hash__ is object.__hash__


def sample_digest(traj):
    digest = hashlib.sha256()
    for name in ("times", "q", "p", "H_values"):
        digest.update(getattr(traj, name).tobytes())
    return digest.hexdigest()


A5_ONES = {"a": 1, "e1": 1, "e2": 1}
# H = -3p: q' = -3 and p' = 0, a polynomial without terms
DRIFT = HamSystem("drift", A5.table, LaurentPoly.var(A5.table, "p", coeff=-3),
                  A5.params, True, 5)
# p stays near 0, so q' ~ q^4 and q ~ (1 - 3t)^(-1/3) from q0 = 1
Q4_FLOW = {"a": 1, "e1": 1e-9, "e2": 1e-9}
GENERAL_ONES = {n: {"a": 1, **{f"e{i}": 1 for i in range(1, n)}}
                for n in (4, 6, 12)}


class TestBlowupLocator:
    """adaptive-rk45 stops where u = q/q' locates a blow-up
    q ~ C(t* - t)^-alpha; runs without one keep every sample."""

    def run(self, sys, values, q0, p0, t_span, h, tol):
        return integrate(sys, NumericParams(sys.name, values, sys.n), q0, p0,
                         t_span, h=h, tol=tol, method="adaptive-rk45")

    def test_autonomous5_against_exact_series(self):
        # t* = 0.161640436200 from the exact singularity series; the run
        # reads it from the chart where |q| reaches ESCAPE_RADIUS, 7.5e-13 off
        traj = self.run(A5, A5_ONES, 1, 0, (0, 0.2), 1e-4, 1e-12)
        assert traj.termination == "blow-up"
        assert abs(traj.t_star - 0.161640436200) <= 1e-11
        assert traj.exponent == 1 / 3
        assert traj.times[-1] < traj.t_star
        assert traj.steps_attempted == len(traj.times) - 1 \
            + traj.steps_rejected

    @pytest.mark.parametrize("n", sorted(GENERAL_ONES))
    def test_general_exponent(self, n):
        # q ~ C(t* - t)^(-1/(n - 2)) on the real axis
        sys = make_general_n(n)
        traj = self.run(sys, GENERAL_ONES[n], 1, 0, (0, 0.5), 1e-3, 1e-12)
        assert traj.termination == "blow-up"
        assert abs(traj.exponent * (n - 2) - 1) <= 0.05
        escape = scipy_escape_time(sys, NumericParams(sys.name,
                                                      GENERAL_ONES[n], n),
                                   1, 0, (0, 0.5))
        assert abs(traj.t_star - escape) <= 1e-9

    def test_nonautonomous3_against_dop853_escape(self):
        # the estimates of the exponent tend to 1/2: 0.605, 0.528 and 0.506
        # at tol 1e-6, 1e-9 and 1e-12.  With q ~ 1.4(t* - t)^(-1/2), DOP853
        # reaches |q| = 1e4 about 2e-8 before t*
        traj = self.run(NA3, PARAMS3.values, 1, 0, (0, 0.3), 1e-4, 1e-12)
        assert traj.termination == "blow-up"
        escape = scipy_escape_time(NA3, PARAMS3, 1, 0, (0, 0.3), cap=1e4)
        assert traj.times[-1] < escape < traj.t_star <= escape + 5e-8
        assert abs(traj.exponent - 1 / 2) <= 0.01

    def test_blowup_after_t1_does_not_stop_the_run(self):
        # q' ~ q^4 makes u = q/q' ~ 3(t* - t) linear, so the estimates of
        # t* ~ 1/3 agree from the first samples; t* lies past t1
        traj = self.run(A5, Q4_FLOW, 1, 0, (0, 0.2), 1e-3, 1e-9)
        assert traj.termination == "completed" and traj.t_star is None
        assert_same_run(traj, ref_integrate(A5, Q4_FLOW, 1, 0, (0, 0.2),
                                            1e-3, 1e-9, "adaptive-rk45"))

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_early_agreement_keeps_the_regular_stretch(self, tol):
        # the estimates of t* ~ 1/3 agree from the first samples, but the run
        # goes on until it is within sqrt(tol) of t*, or until |q| reaches
        # ESCAPE_RADIUS, 3.3e-4 before t*, where the chart ends it: at
        # tol = 1e-6 the estimates come first (|q| = 9.2), at 1e-9 the chart
        traj = self.run(A5, Q4_FLOW, 1, 0, (0, 0.4), 1e-3, tol)
        assert traj.termination == "blow-up"
        assert abs(traj.t_star - 1 / 3) <= 10 * tol
        if tol == 1e-6:
            assert traj.t_star - math.sqrt(tol) <= traj.times[-1] \
                < traj.t_star
        else:
            assert traj.times[-1] < traj.t_star - math.sqrt(tol)
            assert abs(traj.q[-1]) >= ESCAPE_RADIUS > abs(traj.q[-2])
            assert traj.exponent == 1 / 3
        assert_same_run(traj, ref_integrate(A5, Q4_FLOW, 1, 0, (0, 0.4),
                                            1e-3, tol, "adaptive-rk45"))

    def test_complex_near_miss_completes(self):
        # q0 = exp(1e-7 i) moves t* to 1/3 - 1e-7 i: the real path passes it
        # with |q| near 150, and Im t* stays above tol times the gap
        q0 = cmath.exp(1e-7j)
        traj = self.run(A5, Q4_FLOW, q0, 0, (0, 0.4), 1e-3, 1e-6)
        assert traj.termination == "completed" and traj.t_star is None
        assert 100 < abs(traj.q).max() < 200
        assert_same_run(traj, ref_integrate(A5, Q4_FLOW, q0, 0, (0, 0.4),
                                            1e-3, 1e-6, "adaptive-rk45"))

    @pytest.mark.parametrize("before", [1e-8, 1e-9])
    def test_span_ending_just_before_t_star(self, before):
        # the run reaches |q| = ESCAPE_RADIUS, where the chart reads t*
        # 6.9e-10 early: after t1 = t* - 1e-9, so both spans complete
        t1 = 0.161640436200 - before
        traj = self.run(A5, A5_ONES, 1, 0, (0, t1), 1e-3, 1e-9)
        assert traj.termination == "completed" and traj.times[-1] == t1
        assert_same_run(traj, ref_integrate(A5, A5_ONES, 1, 0, (0, t1), 1e-3,
                                            1e-9, "adaptive-rk45"))

    def test_span_ending_just_before_t_star_at_tight_tol(self):
        # at tol = 1e-12 the chart reads t* 8.1e-13 early, so a span that
        # ends 1e-9 before t* completes, as the mathematics says
        t1 = 0.161640436200 - 1e-9
        traj = self.run(A5, A5_ONES, 1, 0, (0, t1), 1e-3, 1e-12)
        assert traj.termination == "completed" and traj.times[-1] == t1
        assert abs(traj.q[-1]) > 500

    def test_zero_of_q_is_no_blowup(self):
        # q' = -3 gives u = q/q' = t - 1/3: the estimates find q's zero at
        # t = 1/3 with alpha = -1, which Re alpha > 0 rules out
        traj = self.run(DRIFT, A5_ONES, 1, 0, (0, 0.5), 1e-3, 1e-9)
        assert traj.termination == "completed" and traj.t_star is None
        assert traj.q[-1] == pytest.approx(-0.5)
        assert_same_run(traj, ref_integrate(DRIFT, A5_ONES, 1, 0, (0, 0.5),
                                            1e-3, 1e-9, "adaptive-rk45"))

    # sha256 of the sample bytes of each run, recorded when the kernels
    # became nested: a run that completes keeps every bit
    @pytest.mark.parametrize("sys,values,p0,t1,h,tol,samples,digest", [
        (A5, A5_PASS_THROUGH, 0, 0.05, 1e-3, 1e-9, 12,
         "9297c6367d01952dc630cad7f045786450498cf09cc59b5b71cfba3db67b96ba"),
        (A5, A5_ONES, -1.5, 0.3, 1e-4, 1e-12, 114,
         "047ddd20eb513c1e4acdbe2550a2b3403e86158b3ef2be141b7562da62390820"),
        (NA3, PARAMS3.values, -1.5, 0.3, 1e-4, 1e-12, 142,
         "5c5e4bdcbe6b8153336cd000652100386ec7415496de3c942e7f740171f4a963")],
        ids=["pass-through", "autonomous5-long", "nonautonomous3-long"])
    def test_completed_runs_keep_every_bit(self, sys, values, p0, t1, h, tol,
                                           samples, digest):
        q0 = 0.01 if values is A5_PASS_THROUGH else 1
        traj = self.run(sys, values, q0, p0, (0, t1), h, tol)
        assert traj.termination == "completed"
        assert traj.t_star is None and traj.exponent is None
        assert len(traj.times) == samples
        assert sample_digest(traj) == digest


class TestEscapeIntoChart:
    """A run of a field with a chart probes it where |q| first reaches
    ESCAPE_RADIUS and again each time |q| doubles, and ends at that sample
    with ``blow-up`` where the chart places t* on the path inside the
    span."""

    def probes(self, monkeypatch):
        """|q| at each sample the chart reads, and each reading."""
        seen = []
        gap = Chart.gap

        def record(chart, q, p, H):
            seen.append((abs(q), gap(chart, q, p, H)))
            return seen[-1][1]
        monkeypatch.setattr(Chart, "gap", record)
        return seen

    def test_probe_once_per_doubling(self, monkeypatch):
        # q0 = exp(1e-7 i) passes t* = 1/3 - 1e-7 i with |q| near 150: the
        # chart's t* has |Im t*| above tol times the gap at every probe, so
        # the run completes, with no estimates once the first reading counts
        seen = self.probes(monkeypatch)
        q0 = cmath.exp(1e-7j)
        traj = integrate(A5, NumericParams("autonomous5", Q4_FLOW, 5), q0, 0,
                         (0, 0.4), h=1e-3, tol=1e-6, method="adaptive-rk45")
        assert traj.termination == "completed"
        sizes = [size for size, _ in seen]
        assert len(sizes) >= 4 and all(gap is not None for _, gap in seen)
        assert all(b >= 2 * a for a, b in zip(sizes, sizes[1:]))
        # each probe reads the first sample of at least twice the last size
        size = ESCAPE_RADIUS
        expected = []
        for q in map(abs, map(complex, traj.q[1:-1])):
            if q >= size:
                expected.append(q)
                size = 2 * q
            elif q < ESCAPE_RADIUS:
                size = ESCAPE_RADIUS
        assert sizes == expected

    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45"])
    def test_escaping_run_keeps_every_sample_before(self, method):
        # the same field without a chart makes the same samples up to the
        # escape sample, and goes on past it
        h = 1e-4
        charted = integrate(A5, PARAMS5, 1, 0, (0, 0.2), h=h, tol=1e-12,
                            method=method)
        plain = integrate(A5_UNCHARTED, PARAMS5, 1, 0, (0, 0.2), h=h,
                          tol=1e-12, method=method)
        n = len(charted.times)
        assert charted.termination == "blow-up"
        assert len(plain.times) > n
        for name in ("times", "q", "p", "H_values"):
            assert bits(getattr(charted, name)) \
                == bits(getattr(plain, name)[:n]), name
        assert abs(charted.q[-1]) >= ESCAPE_RADIUS > abs(charted.q[-2])
        assert charted.steps_attempted == n - 1 + charted.steps_rejected

    def test_fixed_rk4_reads_t_star(self):
        # the benchmark's blow-up fixed-rk4 run: its sample at |q| = 10.9
        # errs by the method's h^4, and the chart reads t* 6.0e-9 late
        traj = integrate(A5, PARAMS5, 1, 0, (0, 0.2), h=1e-4,
                         method="fixed-rk4")
        assert traj.termination == "blow-up" and traj.exponent == 1 / 3
        assert abs(traj.t_star - 0.161640436200) <= 1e-8
        assert traj.times[-1] < traj.t_star
        assert_same_run(traj, ref_integrate(A5, PARAMS5.values, 1, 0,
                                            (0, 0.2), 1e-4, 1e-9,
                                            "fixed-rk4"))

    @pytest.mark.parametrize("q0,t_star", [(1, 0.161640436200),
                                           (1.5362, 0.0595638521)])
    def test_fixed_step_past_t_star_reads_nothing(self, monkeypatch, q0,
                                                  t_star):
        # at h = 1e-3 the last sample before t* has |q| < 10, and the next
        # step lands past t* on an orbit whose own t* lies just ahead.  The
        # chart reads that later t*, but the step into the sample is longer
        # than the gap it reads, so the run places no t* and overflows
        seen = self.probes(monkeypatch)
        traj = integrate(A5, PARAMS5, q0, 0, (0, 0.2), h=1e-3,
                         method="fixed-rk4")
        assert traj.termination == "overflow" and traj.t_star is None
        escape = next(i for i, q in enumerate(traj.q)
                      if abs(q) >= ESCAPE_RADIUS)
        t = traj.times[escape]
        assert t > t_star and seen[0][0] == abs(traj.q[escape])
        assert 0 < seen[0][1].real < 1e-3 and t + seen[0][1].real > t_star
        assert_same_run(traj, ref_integrate(A5, PARAMS5.values, q0, 0,
                                            (0, 0.2), 1e-3, 1e-9,
                                            "fixed-rk4"))

    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45"])
    def test_probe_where_H_is_not_finite(self, monkeypatch, method):
        # a probe raises where H at its sample is not finite, and the run
        # ends at the sample before with overflow, as one whose step lands
        # where H is not finite does.  No run was found whose H is not
        # finite at a probe but finite at every sample before, so H is
        # replaced by one that is NaN everywhere: the generated loop sums
        # its own H, and the H kernels are read only by the probe (the
        # complex one) and at the end (the one of the run's binding)
        plain = integrate(A5, PARAMS5, 1, 0, (0, 0.2), h=1e-4, tol=1e-12,
                          method=method)
        field = compile_field(A5, PARAMS5)
        ends = record_loops(monkeypatch, field,
                            integrate_module._METHODS[method])
        for name in ("H", "real_H"):
            monkeypatch.setattr(field, name, lambda q, p, t: math.nan)
        traj = integrate(A5, PARAMS5, 1, 0, (0, 0.2), h=1e-4, tol=1e-12,
                         method=method)
        assert plain.termination == "blow-up"
        assert ends == [("raised", True)]
        assert traj.termination == "overflow" and traj.t_star is None
        n = len(plain.times) - 1
        assert len(traj.times) == n
        for name in ("times", "q", "p", "H_values"):
            assert bits(getattr(traj, name)) \
                == bits(getattr(plain, name)[:n]), name
        for name in ("steps_attempted", "steps_rejected", "field_evals"):
            assert getattr(traj, name) == getattr(plain, name), name

    @pytest.mark.parametrize("sys,values,p0,t1,alpha", [
        (NA3, PARAMS3.values, 0, 0.3, 1 / 2),
        (A5, {"a": 0, "e1": 1, "e2": 1}, 0, 0.6, 1 / 2),
        (LINEAR_IN_P, PARAMS5.values, 0.1, 0.4, 1 / 3)],
        ids=["nonautonomous3", "a=0", "linear-in-p"])
    def test_no_chart_keeps_the_estimates(self, sys, values, p0, t1, alpha):
        # nonautonomous3 has no chart, with a = 0, A~(0) = 0 leaves
        # autonomous5 none, and an H linear in p has no u^2 term: their
        # runs pass |q| = 10 and end on the estimates
        params = NumericParams(sys.name, values, sys.n)
        assert compile_field(sys, params).chart() is None
        traj = integrate(sys, params, 1, p0, (0, t1), h=1e-3, tol=1e-9,
                         method="adaptive-rk45")
        assert traj.termination == "blow-up"
        assert abs(traj.q).max() > 2 * ESCAPE_RADIUS
        assert abs(traj.exponent - alpha) <= 0.03

    def test_seeded_draws_match_loop_reference(self):
        # real flows of the charted families near their blow-ups: fixed-seed
        # draws, each checked bit for bit against the loop reference, which
        # escapes by its own loop
        rng = random.Random("escapes")
        systems = [A5, *(make_general_n(n) for n in range(3, 9))]
        ends = collections.Counter()
        for i in range(24):
            sys = rng.choice(systems)
            values = {name: complex(rng.uniform(0.5, 1.5) if name == "a"
                                    else rng.uniform(-0.5, 0.5))
                      for name in sys.params}
            q0 = complex(rng.uniform(1, 2),
                         rng.choice((0, rng.uniform(-0.05, 0.05))))
            p0 = complex(rng.choice((0, rng.uniform(-0.05, 0.05))))
            method = ("fixed-rk4", "adaptive-rk45")[i % 2]
            h = 2e-4 if method == "fixed-rk4" else 1e-3
            tol = rng.choice((1e-9, 1e-12))
            got = integrate(sys, NumericParams(sys.name, values, sys.n), q0,
                            p0, (0, 1), h=h, tol=tol, method=method)
            assert_same_run(got, ref_integrate(sys, values, q0, p0, (0, 1),
                                               h, tol, method))
            charted = got.exponent == (1 / (sys.n - 2))
            ends[method, got.termination, charted] += 1
        # the draws cover the chart's ending under both methods
        assert ends["fixed-rk4", "blow-up", True] >= 3
        assert ends["adaptive-rk45", "blow-up", True] >= 3


# H = -q*p: q' = -q and p' = p, so p grows as e^t with nothing for the
# stages to guard; from p0 = 5e11 it passes OVERFLOW_GUARD at t = ln 2
GROWING_P = HamSystem("growing-p", A5.table, -A5.var("q") * A5.var("p"),
                      A5.params, True, 5)
GENERAL12 = make_general_n(12)
GENERAL12_ONES = {"a": 1, **{f"e{i}": 1 for i in range(1, 12)}}


GENERAL4 = make_general_n(4)
# the run of TestIntegrateMatchesLoopReference's located blow-up: the
# probes at |q| = 10.4 and 21.3 read nothing that counts
GENERAL4_DRAWN = {"a": 0.3067, "e1": -1.707, "e2": -0.6642, "e3": 0.3004}
GENERAL34 = make_general_n(34)
GENERAL34_ONES = {"a": 1, **{f"e{i}": 1 for i in range(1, 34)}}


class TestFixedStepLoop:
    """Each method makes a whole run in one generated loop per field, which
    ``integrate`` calls once."""

    def record(self, monkeypatch, sys, values, tab=_RK4):
        """The end of each call of the field's loops of ``tab``, and
        whether the call ran the real binding."""
        field = compile_field(sys, NumericParams(sys.name, values, sys.n))
        return record_loops(monkeypatch, field, tab)

    @pytest.mark.parametrize("sys, values, q0, p0, t1, h, real", [
        (NA3, PARAMS3.values, 1, -1.5, 0.3, 1e-4, True),
        (GENERAL12, GENERAL12_ONES, 0.9j, 0.1, 0.1, 1e-3, False)],
        ids=["nonautonomous3-long", "general:12-grid"])
    def test_run_enters_the_loop_once(self, monkeypatch, sys, values, q0, p0,
                                      t1, h, real):
        # a stage that set one of the loop's own names, as nonautonomous3's
        # ti = t + dt_i would set a loop argument ti, would change the run
        ends = self.record(monkeypatch, sys, values)
        traj = integrate(sys, NumericParams(sys.name, values, sys.n), q0, p0,
                         (0, t1), h=h)
        assert ends == [("completed", real)]
        assert traj.termination == "completed"
        assert len(traj.times) == round(t1 / h) + 1

    def test_loop_continues_a_run_from_its_lists(self):
        # fixed-rk4 counts the lists' earlier samples as steps of the run,
        # in its last-step rule and in its count: continued from the first
        # k samples, the loop takes the run's later steps onto t1
        field = compile_field(NA3, PARAMS3)
        loop = field.loop(_RK4)
        whole = [0.0], [1 + 0j], [-1.5 + 0j], []
        end, returned, *_ = loop(*whole, 1e-4, 0.3, 1e-9)
        assert (end, returned) == ("completed", 3000)
        for k in (2, 1000, 2999):
            part = [samples[:k] for samples in whole[:3]] + [whole[3][:k - 1]]
            end, returned, *_ = loop(*part, 1e-4, 0.3, 1e-9)
            assert (end, returned) == ("completed", 3000)
            for got, want in zip(part, whole):
                assert_same(tuple(got), tuple(want))

    def test_stages_may_not_assign_the_loops_names(self, monkeypatch):
        field = compile_field(NA3, PARAMS3)
        monkeypatch.setattr(integrate_module, "_LOOP_NAMES",
                            (*integrate_module._LOOP_NAMES, "ti"))
        with pytest.raises(AssertionError, match=r"\['ti'\]"):
            integrate_module._loop_source(_RK4, field)

    # each way out of the loop, under each method, against the loop
    # reference, which steps with no loop; each run calls the loop once.
    # t0 is a float: the reference's times of a run with one sample keep
    # the type of t0
    @pytest.mark.parametrize(
        "method, sys, values, q0, p0, t_span, h, tol, end, label", [
            ("fixed-rk4", A5, PARAMS5.values, 1, -1.5, (0.0, 0.3), 1e-4,
             1e-9, "completed", "completed"),
            ("fixed-rk4", A5, PARAMS5.values, 1, -1.5, (0.0, 0.1), 1e-2,
             1e-9, "completed", "completed"),
            ("fixed-rk4", A5, PARAMS5.values, 100, 1, (0.0, 1), 1e-3, 1e-9,
             "raised", "overflow"),
            # the stages after the first would pass q = 1.02e12, which falls
            # as e^-t: the start itself is tested
            ("fixed-rk4", GROWING_P, PARAMS5.values, 1.02e12, 1, (0.0, 1),
             0.1, 1e-9, "raised", "overflow"),
            ("fixed-rk4", GROWING_P, PARAMS5.values, 1, 5e11, (0.0, 1), 0.1,
             1e-9, "overflow", "overflow"),
            # the step from the first sample past t = 0.7977, where H is
            # not finite, raises
            ("fixed-rk4", CAPPED, CAPPED_PARAMS.values, 1, 1, (0.7, 0.9),
             1e-2, 1e-9, "raised", "overflow"),
            # the probe at |q| = 6.3e9 raises where general:34's H is not
            # finite
            ("fixed-rk4", GENERAL34, GENERAL34_ONES, 1, 0, (0.0, 1), 3e-3,
             1e-9, "raised", "overflow"),
            ("fixed-rk4", A5, PARAMS5.values, 1, 0, (0.0, 0.2), 1e-3, 1e-9,
             "raised", "overflow"),
            ("fixed-rk4", A5, PARAMS5.values, 1, 0, (0.0, 0.2), 1e-4, 1e-9,
             "blow-up", "blow-up"),
            ("fixed-rk4", A5, PARAMS5.values, 1, 0, (0.0, 0.1614), 1e-4,
             1e-9, "completed", "completed"),
            ("fixed-rk4", A5, PARAMS5.values, 1, 0.5, (0.0, 0), 1e-3, 1e-9,
             "completed", "completed"),
            ("fixed-rk4", A5, A5_PASS_THROUGH, 0.01, 0, (0.0, 0.05), 1e-3,
             1e-9, "completed", "completed"),
            ("adaptive-rk45", A5, PARAMS5.values, 1, -1.5, (0.0, 0.3), 1e-4,
             1e-9, "completed", "completed"),
            ("adaptive-rk45", GROWING_P, PARAMS5.values, 1.02e12, 1,
             (0.0, 1), 0.1, 1e-9, "raised", "overflow"),
            ("adaptive-rk45", A5, PARAMS5.values, 100, 1, (0.0, 1), 1e-3,
             1e-9, "raised", "overflow"),
            ("adaptive-rk45", GROWING_P, PARAMS5.values, 1, 5e11, (0.0, 1),
             0.1, 1e-9, "overflow", "overflow"),
            ("adaptive-rk45", CAPPED, CAPPED_PARAMS.values, 1, 1, (0.7, 0.9),
             1e-2, 1e-9, "raised", "overflow"),
            # ends at t1 before the probe at |q| = 44.3 that counts
            ("adaptive-rk45", GENERAL4, GENERAL4_DRAWN, -0.9307, -1.4827,
             (0.0, 0.2595), 1e-3, 1e-6, "completed", "completed"),
            ("adaptive-rk45", A5, PARAMS5.values, 1, 0, (0.0, 0.2), 1e-3,
             1e-9, "blow-up", "blow-up"),
            # the u-estimates agree at |q| = 3.2, before any probe
            ("adaptive-rk45", GENERAL12, GENERAL12_ONES, 0.9, 0, (0.0, 1),
             1e-3, 1e-9, "blow-up", "blow-up"),
            ("adaptive-rk45", A5_UNCHARTED, PARAMS5.values, 1, 0, (0.0, 0.2),
             1e-3, 1e-16, "step-underflow", "step-underflow"),
            ("adaptive-rk45", A5, PARAMS5.values, 1, 0.5, (0.0, 0), 1e-3,
             1e-9, "completed", "completed")],
        ids=["sliver-after", "short-by-rounding", "stage-overflow",
             "start-beyond-guard", "sample-overflow", "H-overflow",
             "probe-H-overflow", "reading-does-not-count", "blow-up",
             "escape-at-t1", "zero-span", "pass-through",
             "adaptive-completed", "adaptive-start-beyond-guard",
             "adaptive-stage-overflow", "adaptive-sample-overflow",
             "adaptive-H-overflow", "adaptive-reading-does-not-count",
             "adaptive-chart-blow-up", "adaptive-estimates-blow-up",
             "adaptive-step-underflow", "adaptive-zero-span"])
    def test_each_exit_matches_loop_reference(self, monkeypatch, method, sys,
                                              values, q0, p0, t_span, h, tol,
                                              end, label):
        ends = self.record(monkeypatch, sys, values,
                           integrate_module._METHODS[method])
        params = NumericParams(sys.name, values, sys.n)
        got = integrate(sys, params, q0, p0, t_span, h=h, tol=tol,
                        method=method)
        assert got.termination == label
        assert_same_run(got, ref_integrate(sys, values, q0, p0, t_span, h,
                                           tol, method))
        # each start is real: the complex binding leaves the same way
        assert_equal_run(got, complex_binding_run(sys, params, q0, p0,
                                                  t_span, h=h, tol=tol,
                                                  method=method))
        assert ends == [(end, True), (end, False)]

    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45"])
    @pytest.mark.parametrize("t1", [0, 0.05])
    def test_sample_dtypes(self, method, t1):
        traj = integrate(A5, PARAMS5, 1, 0.3, (0, t1), method=method)
        assert traj.times.dtype == np.float64
        for name in ("q", "p", "H_values"):
            assert getattr(traj, name).dtype == np.complex128, name


@pytest.mark.filterwarnings("ignore:parameter e")
class TestRealBinding:
    """A real field from a real start runs in float arithmetic: the same
    generated code, bound to the real parts of its values, makes the run
    that the complex binding makes, up to the sign of a zero."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([*KERNEL_SYSTEMS, DRIFT]), st.data(), real_states,
           st.sampled_from((1, 3)),
           st.sampled_from(["fixed-rk4", "adaptive-rk45"]),
           st.sampled_from((0, 0.05, 0.2)), st.floats(1e-3, 2e-2),
           st.sampled_from((1e-9, 1e-6)))
    def test_matches_complex_binding(self, sys, data, state, scale, method,
                                     span, h, tol):
        values = data.draw(param_values(sys, real_scalars))
        params = NumericParams(sys.name, values, sys.n)
        q0, p0 = state[0].real * scale, state[1]
        field = compile_field(sys, params)
        tab = integrate_module._METHODS[method]
        with pytest.MonkeyPatch.context() as patch:
            ends = record_loops(patch, field, tab)
            got = integrate(sys, params, q0, p0, (0, span), h=h, tol=tol,
                            method=method)
        assert [real for _, real in ends] == [True]
        assert_equal_run(got, complex_binding_run(sys, params, q0, p0,
                                                  (0, span), h=h, tol=tol,
                                                  method=method))

    @pytest.mark.parametrize("values, q0, p0, real", [
        (PARAMS5.values, complex(1, -0.0), -0.0, True),
        (PARAMS5.values, 1 + 0.1j, 0, False),
        (PARAMS5.values, 1, 0.1j, False),
        ({"a": 1, "e1": 1j, "e2": 1}, 1, 0, False)],
        ids=["real", "complex-q0", "complex-p0", "complex-parameter"])
    def test_binding_of_each_start(self, monkeypatch, values, q0, p0, real):
        params = NumericParams("autonomous5", values, 5)
        field = compile_field(A5, params)
        assert (field.real_H is None) == (field.real is False) \
            == (values["e1"] == 1j)
        ends = record_loops(monkeypatch, field, _RK4)
        traj = integrate(A5, params, q0, p0, (0, 0.05))
        assert traj.termination == "completed"
        assert ends == [("completed", real)]

    def test_real_binding_compiles_nothing(self):
        # a real run reuses the code that complex runs compiled
        compiled = integrate_module._compile
        _field_cache.cache_clear()
        compiled.cache_clear()
        methods = integrate_module._METHODS
        for method in methods:
            integrate(A5, PARAMS5, 1 + 0.1j, 0, (0, 0.05), method=method)
        misses = compiled.cache_info().misses
        for method in methods:
            integrate(A5, PARAMS5, 1, 0.3, (0, 0.05), method=method)
        assert compiled.cache_info().misses == misses
        field = compile_field(A5, PARAMS5)
        assert set(field._loops) == {(tab, real) for tab in methods.values()
                                     for real in (False, True)}
