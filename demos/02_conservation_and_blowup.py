"""Numerical side: integrate the autonomous 5-family with RK4, watch the
Hamiltonian drift stay at rounding level, confirm fourth-order convergence,
and see the movable singularity end a longer run cleanly, its time read from
the regularising chart by either method.

Run:  python3 demos/02_conservation_and_blowup.py
"""

from hamfam import NumericParams, integrate, make_system, richardson_order

sys5 = make_system("autonomous5")
params = NumericParams("autonomous5", {"a": 1, "e1": 1, "e2": 1}, 5)

print("== short run: conservation ==")
traj = integrate(sys5, params, 1, 0.3, (0, 0.05), h=1e-3)
print(f"  steps = {len(traj.times) - 1}, termination = {traj.termination}")
print(f"  max |H(t) - H(0)| = {traj.drift:.3e}")

print()
print("== convergence order (Richardson, h = 1e-2 / 5e-3 / 2.5e-3) ==")
order = richardson_order(sys5, params, 1, 0, (0, 0.03), (1e-2, 5e-3, 2.5e-3))
print(f"  measured order = {order:.3f}  (classical RK4 is 4)")

print()
print("== long run: movable singularity ==")
traj = integrate(sys5, params, 1, 0, (0, 1), h=1e-4)
print(f"  requested t in [0, 1]; stopped at t = {traj.times[-1]:.6f} "
      f"({traj.termination}), |q| = {abs(traj.q[-1]):.3e}")
# past |q| = 10 the chart (1/q, p q^4) reads t* from the sample in hand
print(f"  t* from the regularising chart = {traj.t_star:.9f}")
print(f"  drift over the computed samples = {traj.drift:.3e}")

print()
print("== adaptive stepping near the blow-up ==")
traj = integrate(sys5, params, 1, 0, (0, 1), method="adaptive-rk45", tol=1e-10)
print(f"  adaptive steps = {len(traj.times) - 1}, stopped at "
      f"t = {traj.times[-1]:.6f} ({traj.termination})")
# the adaptive run reads t* from the chart too, with alpha = 1/(n - 2) exactly
print(f"  located t* = {traj.t_star:.9f}, q ~ C(t* - t)^-alpha with "
      f"alpha = {traj.exponent:.4f}  (1/3 for autonomous5)")
