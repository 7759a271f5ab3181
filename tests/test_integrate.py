import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hamfam.hamiltonian import (HamSystem, hamilton_equations,
                                make_autonomous5, make_nonautonomous3)
from hamfam.integrate import (_FEHLBERG45, _RK4, NumericParams,
                              SingularityError, Trajectory,
                              check_symmetry_on_trajectory, compile_field,
                              integrate, measure_order, richardson_order,
                              step_rk4, write_trajectory_csv)
from hamfam.poly import LaurentPoly
from hamfam.symmetry import autonomous_map, identity_map, nonautonomous_map

A5 = make_autonomous5()
NA3 = make_nonautonomous3()
PARAMS5 = NumericParams("autonomous5", {"a": 1, "e1": 1, "e2": 1}, 5)
PARAMS3 = NumericParams("nonautonomous3", {"a1": 1, "a2": 1, "a3": 1}, 5)


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
            eq = f_q.eval_numeric(pt)
            ep = f_p.eval_numeric(pt)
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


class TestStepRK4:
    def test_zero_step(self):
        field = compile_field(A5, PARAMS5)
        state = (1.3 - 0.2j, 0.4 + 0.1j)
        assert step_rk4(state, 0.0, 0.0, field) == state

    def test_constant_field_is_exact(self):
        # degenerate H = c*p gives qdot = c, pdot = 0; RK4 is exact
        tbl = A5.table
        H = LaurentPoly.var(tbl, "p")
        sys = HamSystem("degenerate", tbl, H, A5.params, True, 5)
        field = compile_field(sys, PARAMS5)
        q, p = step_rk4((1 + 0j, 0j), 0.0, 0.25, field)
        assert q == 1 + 0.25  # unit constant field
        assert p == 0j
        # scaled variant through the compiled path
        sys2 = HamSystem("degenerate2", tbl,
                         LaurentPoly.var(tbl, "p", coeff=3), A5.params, True, 5)
        q2, _ = step_rk4((1 + 0j, 0j), 0.0, 0.25, compile_field(sys2, PARAMS5))
        assert q2 == 1 + 3 * 0.25

    def test_against_reference_solve(self):
        h = 1e-3
        field = compile_field(A5, PARAMS5)
        q1, p1 = step_rk4((1 + 0j, 0j), 0.0, h, field)
        qr, pr = scipy_reference(A5, PARAMS5, 1, 0, (0.0, h))
        assert abs(q1 - qr) < 1e-10
        assert abs(p1 - pr) < 1e-10

    def test_singularity_guard(self):
        field = compile_field(A5, PARAMS5)
        with pytest.raises(SingularityError):
            step_rk4((1e-10 + 0j, 0j), 0.0, 1e-3, field)

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
            assert step_rk4((q, p), t, h, field) == expected


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
        dHdt_sym = compile_field(NA3, PARAMS3)  # reuse compiled H pieces
        from hamfam.hamiltonian import time_derivative_of_H
        from hamfam.integrate import CompiledPoly
        dH = CompiledPoly(time_derivative_of_H(NA3), PARAMS3.values)
        ts, qs, ps, Hs = traj.times, traj.q, traj.p, traj.H_values
        worst = 0.0
        for k in range(1, len(ts) - 1):
            fd = (Hs[k + 1] - Hs[k - 1]) / (ts[k + 1] - ts[k - 1])
            sym = dH(qs[k], ps[k], ts[k])
            worst = max(worst, abs(fd - sym) / abs(sym))
        assert worst < 1e-6

    def test_blowup_terminates_cleanly(self):
        traj = integrate(A5, PARAMS5, 100, 1, (0, 1), h=1e-3)
        assert traj.termination in ("singularity", "overflow")
        assert np.all(np.isfinite(traj.q.view(float)))

    def test_immediate_singularity(self):
        with pytest.raises(SingularityError):
            integrate(A5, PARAMS5, 1e-12, 0, (0, 1))

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


class TestStepAndTolValidation:
    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45"])
    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
    def test_bad_h(self, method, h):
        with pytest.raises(ValueError, match="h must be finite and positive"):
            integrate(A5, PARAMS5, 1, 0, (0, 0.01), h=h, method=method)

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            integrate(A5, PARAMS5, 1, 0, (0, 0.01), tol=tol,
                      method="adaptive-rk45")


class TestRichardsonOrder:
    def test_order_in_window(self):
        order = richardson_order(A5, PARAMS5, 1, 0, (0, 0.03))
        assert 3.7 <= order <= 4.3


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
    """The per-sample route: apply_numeric on every sample, then one scalar
    field call per interior sample."""
    pts, mapped = [], None
    for tk, qk, pk in zip(traj.times, traj.q, traj.p):
        coords, mapped = m.apply_numeric({"q": qk, "p": pk, "t": complex(tk)},
                                         params.values)
        pts.append(coords)
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

    def test_sample_inside_floor_raises(self):
        q = np.array([1, 1e-9, 1], dtype=complex)
        traj = Trajectory(np.array([0.0, 1e-3, 2e-3]), q,
                          np.zeros(3, dtype=complex),
                          np.zeros(3, dtype=complex), "completed")
        with pytest.raises(SingularityError):
            check_symmetry_on_trajectory(traj, autonomous_map(A5), A5,
                                         PARAMS5)


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
