"""The regularising chart (w, u) = (1/q, p q^(n-1)) of the autonomous
families: its exact identities, and the t* that a run reads from it, checked
against an independent quadrature on the energy curve."""

import random

import mpmath
import pytest

from hamfam.hamiltonian import (make_autonomous5, make_general_n,
                                make_nonautonomous3, regularising_chart)
from hamfam.integrate import (ESCAPE_RADIUS, NumericParams, compile_field,
                              integrate)
from hamfam.poly import LaurentPoly

A5 = make_autonomous5()
CHART_SYSTEMS = [A5, *(make_general_n(n) for n in range(3, 65))]


def inversion(sys):
    """q -> 1/q, p -> p q^(n-1): the change into the chart, and out of it."""
    return {"q": sys.var("q", -1), "p": sys.var("p") * sys.var("q", sys.n - 1)}


def chart_residuals(sys, chart):
    """H~(1/q, p q^(n-1)) - H, and H(1/w, u w^(n-1)) - H~."""
    swap = inversion(sys)
    return chart.substitute(swap) - sys.H, sys.H.substitute(swap) - chart


def displayed_chart(sys):
    """u^2 w^(n-2) + u A~(w), written out from the family's coefficients:
    A~ = a + e1 w + ... + e(n-1) w^(n-1), and a + e1 w + e2 w^4 for
    autonomous5."""
    w, u = sys.var("q"), sys.var("p")
    powers = {"a": 0, "e1": 1, "e2": 4} if sys.name == "autonomous5" \
        else {name: k for k, name in enumerate(sys.params)}
    tilde = LaurentPoly.zero(sys.table)
    for name, k in powers.items():
        tilde = tilde + sys.var(name) * sys.var("q", k)
    return u * u * sys.var("q", sys.n - 2) + u * tilde


def flip_first_term(poly):
    exps = sorted(poly.terms)[0]
    terms = dict(poly.terms)
    terms[exps] = -terms[exps]
    return LaurentPoly(poly.table, terms)


class TestExactChart:
    @pytest.mark.parametrize("sys", CHART_SYSTEMS, ids=lambda s: s.name)
    def test_identities_are_zero_residuals(self, sys):
        chart = regularising_chart(sys)
        assert chart.min_exponent("q") >= 0
        assert all(r.is_zero() for r in chart_residuals(sys, chart))
        assert (chart - displayed_chart(sys)).is_zero()

    @pytest.mark.parametrize("sys", CHART_SYSTEMS, ids=lambda s: s.name)
    def test_flipped_coefficient_leaves_both_nonzero(self, sys):
        flipped = flip_first_term(regularising_chart(sys))
        assert not any(r.is_zero() for r in chart_residuals(sys, flipped))

    def test_nonautonomous3_has_no_chart(self):
        # a3 q^3 + a2 t q^2 becomes a3 w^-3 + a2 t w^-2
        assert regularising_chart(make_nonautonomous3()) is None


def t_star_by_quadrature(sys, values, q0, p0, dps=25):
    """t* - t0 for the real flow of an autonomous family from the real
    start (q0, p0), by quadrature on its energy curve in mpmath at ``dps``
    digits.

    H = c2(q) p^2 + c1(q) p + c0(q) = h is conserved, so
    q' = dH/dp = 2 c2 p + c1 = s sqrt(P(q)) with P = c1^2 + 4 c2 (h - c0)
    and s the sign of q' at the start.  q runs from q0 to s*infinity, and
    t* - t0 is the integral of 1/sqrt(P) along that ray.  P must stay
    positive on the ray: a zero q' at the start, or a real root of P on the
    ray, where the orbit turns, is a ValueError.  This reads the exact terms
    of H and shares no code with the chart."""
    names = sys.H.table.names
    iq, ip = names.index("q"), names.index("p")
    with mpmath.workdps(dps):
        by_p = {0: {}, 1: {}, 2: {}}  # {power of p: {power of q: coeff}}
        for exps, c in sys.H.terms.items():
            r = c.rational
            coeff = mpmath.mpf(r.numerator) / r.denominator
            for name, e in zip(names, exps):
                if e and name not in ("q", "p", "t"):
                    coeff *= mpmath.mpf(values[name]) ** e
            column = by_p[exps[ip]]
            column[exps[iq]] = column.get(exps[iq], 0) + coeff

        def times(f, g):
            out = {}
            for i, a in f.items():
                for j, b in g.items():
                    out[i + j] = out.get(i + j, 0) + a * b
            return out

        q0, p0 = mpmath.mpf(q0), mpmath.mpf(p0)
        at = lambda poly, q: sum((c * q ** k for k, c in poly.items()),
                                 mpmath.mpf(0))
        c0, c1, c2 = by_p[0], by_p[1], by_p[2]
        h = at(c2, q0) * p0 ** 2 + at(c1, q0) * p0 + at(c0, q0)
        shifted = {k: -c for k, c in c0.items()}
        shifted[0] = shifted.get(0, 0) + h
        P = times(c1, c1)
        for k, c in times(c2, shifted).items():
            P[k] = P.get(k, 0) + 4 * c
        dq0 = 2 * at(c2, q0) * p0 + at(c1, q0)
        if not dq0:
            raise ValueError("q' = 0 at the start: no ray to follow")
        s = 1 if dq0 > 0 else -1
        top = max(k for k, c in P.items() if c)
        # at h = 0, P = c1^2 has double roots, which need the extra precision
        roots = mpmath.polyroots([P.get(k, 0) for k in range(top, -1, -1)],
                                 maxsteps=200, extraprec=8 * dps)
        for r in roots:
            r = mpmath.mpc(r)
            if abs(r.imag) <= mpmath.mpf(10) ** (5 - dps) * (1 + abs(r)) \
                    and (r.real - q0) * s >= 0:
                raise ValueError(f"the radicand vanishes at q = {r.real} on "
                                 f"the ray from q0 = {q0}")
        ray = [q0, mpmath.inf] if s > 0 else [-mpmath.inf, q0]
        return float(mpmath.quad(lambda q: 1 / mpmath.sqrt(at(P, q)), ray))


ORACLE_SYSTEMS = [A5, *(make_general_n(n) for n in range(3, 9))]


def oracle_draws(count, seed):
    """``count`` (system, values, q0, p0, t*) from a fixed seed: real
    parameters (a in [0.5, 1.5], the others in [-1, 1]) and starts
    (q0 in [0.5, 2], p0 in [-0.2, 0.2]).  A draw whose orbit turns before
    infinity (the oracle's ValueError) or whose t* lies past 1 is drawn
    again."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        sys = rng.choice(ORACLE_SYSTEMS)
        values = {name: rng.uniform(0.5, 1.5) if name == "a"
                  else rng.uniform(-1, 1) for name in sys.params}
        q0, p0 = rng.uniform(0.5, 2), rng.uniform(-0.2, 0.2)
        try:
            star = t_star_by_quadrature(sys, values, q0, p0)
        except ValueError:
            continue
        if star < 1:
            draws.append((sys, values, q0, p0, star))
    return draws


class TestTStarOracle:
    @pytest.mark.parametrize("p0,star", [(0, 0.161640436200),
                                         (0.1, 0.15392779222963)])
    def test_autonomous5_values(self, p0, star):
        # p0 = 0: the exact singularity series; p0 = 0.1: a DOP853 run
        # through the chart, which agreed with this quadrature to 2.6e-15
        got = t_star_by_quadrature(A5, {"a": 1, "e1": 1, "e2": 1}, 1, p0)
        assert abs(got - star) <= 1e-11

    def test_orbit_that_turns_is_refused(self):
        # general:3 with a = e1 = e2 = 1 from q0 = 1, p0 = -1: h = -2 and
        # P = (q^2 + q + 1)^2 - 8 q^3 has a root in (1, 2)
        sys = make_general_n(3)
        with pytest.raises(ValueError, match="radicand vanishes"):
            t_star_by_quadrature(sys, {"a": 1, "e1": 1, "e2": 1}, 1, -1)


class TestChartTStar:
    def test_gap_at_a_sample_matches_quadrature(self):
        # the chart's reading at one point, against the oracle started
        # there: on 40 fixed-seed points whose reading counts and whose
        # flow heads out to infinity, the largest relative difference was
        # 1.3e-15, a few rounding errors of the inputs; the 16-node rule
        # adds nothing visible
        rng = random.Random("chart gap")
        compared = 0
        while compared < 40:
            sys = rng.choice(ORACLE_SYSTEMS)
            values = {name: rng.uniform(0.5, 1.5) if name == "a"
                      else rng.uniform(-1, 1) for name in sys.params}
            q = rng.choice((-1, 1)) * rng.uniform(ESCAPE_RADIUS, 40)
            p = rng.uniform(-3, 3) * q ** (1 - sys.n)  # u of order 1
            field = compile_field(sys, NumericParams(sys.name, values,
                                                     sys.n))
            q, p = complex(q), complex(p)
            gap = field.chart().gap(q, p, field.H(q, p, 0.0))
            if gap is None:
                continue
            if (field(q, p, 0.0)[0] * q).real < 0:
                # heading in: w = 0 lies behind the sample
                assert gap.real < 0
                continue
            star = t_star_by_quadrature(sys, values, q.real, p.real)
            assert gap.imag == 0
            assert abs(gap.real - star) <= 1e-14 * star
            compared += 1

    def test_runs_against_quadrature(self):
        # each run, at tol = 1e-12, ends where |q| reaches ESCAPE_RADIUS and
        # reads t* there.  The reading itself is exact to rounding (above),
        # so its error is the run's own error at that sample, which the
        # local error control does not bound and which grows with the run's
        # length.  Measured over these draws and 100 others: median 6.6e-12,
        # largest 1.75e-10 (general:5, t* = 0.954); the bound is 3x that.
        for sys, values, q0, p0, star in oracle_draws(30, "chart t*"):
            traj = integrate(sys, NumericParams(sys.name, values, sys.n), q0,
                             p0, (0, 1), h=1e-3, tol=1e-12,
                             method="adaptive-rk45")
            assert traj.termination == "blow-up", (sys.name, values, q0, p0)
            assert abs(traj.q[-1]) >= ESCAPE_RADIUS > abs(traj.q[-2])
            assert traj.exponent == 1 / (sys.n - 2)
            assert abs(traj.t_star - star) <= 5e-10
