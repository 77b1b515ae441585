"""Variational integrators for second-order Lagrangian systems.

Discrete Lagrangians on pairs of tangent-space points, exact one-step
actions via spectral and shooting boundary solvers, momentum maps and
structure diagnostics, order measurement, and boundary-value optimal
control of fully actuated mechanical systems.
"""

from .errors import (ConfigError, NoConvergence, SingularHessian, SingularKKT,
                     SingularWd, UnsettledSubsteps, VarintError)
from .jets import (DiscretePath, Grid, JetPoint, PairState, pack, uniform_grid,
                   unpack)
from .lagrangian import (LagrangianModel, MechanicalModel, controlled_forces,
                         el_residual, fourth_order_rhs, hessian_W, legendre,
                         named_lagrangian, spline_lagrangian)
from .discretization import (DiscreteLagrangian, make_scheme,
                             midpoint_difference, spline_exact, taylor_average,
                             trapezoid_velocity)
from .bvp import (endpoints_to_w, exact_Ld, integrate_el, shooting_bvp,
                  solve_regularized)
from .flow import (del_residual, initial_pair, phi_values, run,
                   solve_boundary_path, step)
from .momentum import (MomentaState, Wd_matrix, fminus, fminus_inverse, fplus,
                       fplus_inverse, hamiltonian_step, legendre_match_errors,
                       symplectic_defect)
from .order import OrderReport, cubic_trajectory, estimate_order, local_error
from .control import (CostFunction, JointLimitPenalty, OCPResult, OCProblem,
                      TwoLinkParams, control_effort_cost, fd_accelerations,
                      free_particle_model, joint_limit_penalty, lift_cost,
                      solution_table, solve_ocp, two_link_forces,
                      two_link_model, two_link_problem)

__version__ = "0.1.0"
