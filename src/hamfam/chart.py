"""Reading the time of a movable singularity from one sample, in the
regularising chart of an autonomous family.

For autonomous5 and general:n the chart (w, u) = (1/q, p q^(n-1)) carries H
to H~ = u^2 w^(n-2) + u A~(w) (``hamiltonian.regularising_chart``), a
polynomial regular at w = 0, where q is infinite.  ``integrate`` imports
this module on a run's first probe, so neither set-up nor a process that
integrates nothing compiles it.
"""

from __future__ import annotations

import cmath
import functools
import math

from .hamiltonian import HamSystem, regularising_chart
from .integrate import _bind

# Gauss-Legendre nodes of the chart's quadrature
NODES = 16


@functools.cache
def gauss_legendre() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The nodes and weights of the Gauss-Legendre rule of NODES points on
    [0, 1]: Newton's method on the Legendre polynomial P_m, from the roots'
    asymptotic estimates, by its three-term recurrence."""
    m, nodes, weights = NODES, [], []
    for i in range(1, m + 1):
        x = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(8):  # quadratic convergence: 3 steps reach rounding
            before, value = 1.0, x
            for k in range(2, m + 1):
                before, value = value, ((2 * k - 1) * x * value
                                        - (k - 1) * before) / k
            slope = m * (x * value - before) / (x * x - 1)
            x -= value / slope
        nodes.append((1 - x) / 2)
        weights.append(1 / ((1 - x * x) * slope * slope))
    return tuple(nodes), tuple(weights)


def _horner(coeffs: list[complex], x: complex) -> complex:
    """The polynomial with ``coeffs`` (lowest power first) at x."""
    total = 0j
    for c in reversed(coeffs):
        total = total * x + c
    return total


class Chart:
    """The regularising chart H~ = u^2 w^(n-2) + u A~(w), n >= 3 and
    A~(0) != 0, of a field at its parameter values: one call to ``gap``
    reads t* from one sample.

    H = h is conserved, so from a sample (q, p) the time to w = 0, where q
    is infinite, is

        t* - t = integral from 0 to w of sigma^(n-3) / D(sigma) dsigma,
        D^2 = R(sigma) = A~(sigma)^2 + 4 h sigma^(n-2),

    on the branch with D(w) = A~(w) + 2 u w^(n-2) = A~(w) + 2 p q.  The
    estimate counts only where the coefficients r_k of R bound
    sum_{k>=1} |r_k| (2|w|)^k below |r_0| = |A~(0)|^2.  Then R/r_0 stays
    within 1 of 1 on |sigma| <= 2|w|, so D = +-A~(0) sqrt(R/r_0) with the
    principal root is analytic on twice the path's radius, and a
    Gauss-Legendre rule in sigma = theta*w converges fast.  Near w = 0,
    t* - t ~ w^(n-2) / ((n-2) A~(0)), so q ~ C(t* - t)^-alpha with alpha
    exactly 1/(n-2).  Probes are rare, so this is plain Python: numpy's
    first calls would cost the process more memory than the arithmetic."""

    def __init__(self, n: int, tilde: list[complex]):
        self.n = n
        self.exponent = 1 / (n - 2)
        self._tilde = tilde  # lowest power first
        # R at h = 0, long enough to hold the h term
        self._square = [0j] * max(2 * len(tilde) - 1, n - 1)
        for i, a in enumerate(tilde):
            for j, b in enumerate(tilde):
                self._square[i + j] += a * b
        self._rule = [(theta, weight * theta ** (n - 3))
                      for theta, weight in zip(*gauss_legendre())]

    @classmethod
    def bind(cls, sys: HamSystem, values: dict[str, complex]) -> Chart | None:
        """The chart of ``sys`` at ``values``, or None where it has no chart
        of that form: no n >= 3, a negative power of w or a t in H~, no
        term u^2 w^(n-2) or another term in u^2, another power of u, or
        A~(0) = 0."""
        if sys.n is None or sys.n < 3:
            return None
        chart = regularising_chart(sys)
        if chart is None:
            return None
        terms = _bind(chart, values)
        if (1, sys.n - 2, 2, 0) not in terms:
            return None
        tilde = {}
        for c, ew, eu, et in terms:
            if eu == 1 and not et:
                tilde[ew] = c
            elif (c, ew, eu, et) != (1, sys.n - 2, 2, 0):
                return None
        if not tilde.get(0):
            return None
        return cls(sys.n, [tilde.get(k, 0j) for k in range(max(tilde) + 1)])

    def gap(self, q: complex, p: complex, H: complex) -> complex | None:
        """t* - t from the sample (q, p), q nonzero, at which the
        Hamiltonian is H, or None where the estimate does not count."""
        w = 1 / q
        r = list(self._square)
        r[self.n - 2] += 4 * H
        r0, radius = r[0], 2 * abs(w)
        if not sum(abs(c) * radius ** k
                   for k, c in enumerate(r) if k) < abs(r0):
            return None
        a0 = self._tilde[0]
        # the sample fixes the sign of D = +-a0 sqrt(R/r0)
        d_w = a0 * cmath.sqrt(_horner(r, w) / r0)
        at_w = _horner(self._tilde, w) + 2 * p * q
        if abs(at_w + d_w) < abs(at_w - d_w):
            a0 = -a0
        total = sum(weight / cmath.sqrt(_horner(r, theta * w) / r0)
                    for theta, weight in self._rule)
        return w ** (self.n - 2) * total / a0
