"""Exact verification and numerical integration of polynomial Hamiltonian
ODE families with birational symplectic symmetries."""

from .cyclo import CycloRat, ZETA, fourth_root_of_minus_one
from .poly import LaurentError, LaurentPoly, VarTable
from .hamiltonian import (HamSystem, SecondOrderODE, eliminate_momentum,
                          hamilton_equations, make_autonomous5,
                          make_general_n, make_nonautonomous3, make_system,
                          reference_ode, second_order_form,
                          time_derivative_of_H, verify_equivalence)
from .symmetry import (BirationalMap, autonomous_map, certificate_battery,
                       compose, identity_map, iterate_map,
                       jacobian_determinant, make_map, map_order,
                       nonautonomous_map, pushforward_H, resolve_inverse,
                       verify_invariance)
from .integrate import (NumericParams, Trajectory, compile_field, compile_map,
                        check_symmetry_on_trajectory, integrate, measure_order,
                        richardson_order, write_trajectory_csv)

__version__ = "0.1.0"
