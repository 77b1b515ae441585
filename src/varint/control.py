"""Optimal control of fully actuated mechanical systems.

For a first-order mechanical Lagrangian with one independent torque per
degree of freedom, the torques can be eliminated through the equations of
motion, turning a running cost C(q, qdot, u) into a second-order Lagrangian
on jets.  Discretizing that Lagrangian and solving the whole-path two-point
problem yields the optimal trajectory; boundary states enter exactly, never
through a discretization of their own.

Includes the planar two-link manipulator with torque-effort cost and an
optional elbow-style joint-limit penalty.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .discretization import DiscreteLagrangian, make_scheme
from .flow import solve_boundary_path
from .jets import DiscretePath, JetPoint, uniform_grid
from .lagrangian import LagrangianModel, MechanicalModel, controlled_forces


# -- costs ---------------------------------------------------------------------

@dataclass(frozen=True)
class CostFunction:
    """Running cost C(q, qdot, u); ``symbolic`` builds a sympy expression
    from symbol lists so lifted models keep analytic derivatives."""

    fn: "callable"
    symbolic: "callable" = None


def control_effort_cost() -> CostFunction:
    """C = |u|^2 / 2, the squared-torque effort."""
    return CostFunction(
        fn=lambda q, v, u: 0.5 * float(np.dot(u, u)),
        symbolic=lambda q, dq, u: sum(ui**2 for ui in u) / 2,
    )


# -- joint-limit penalty ---------------------------------------------------------

def joint_limit_penalty(theta: float, lo: float = 0.0,
                        hi: float = math.radians(170.0),
                        slope: float = 1000.0) -> float:
    """Continuous piecewise-linear barrier: slope -``slope`` below ``lo``,
    zero on [lo, hi], +``slope`` above ``hi``."""
    return slope * max(0.0, lo - theta) + slope * max(0.0, theta - hi)


def _hinge(y, d):
    if y <= -d:
        return 0.0
    if y >= d:
        return y
    return (y + d) ** 2 / (4.0 * d)


def _hinge_d1(y, d):
    if y <= -d:
        return 0.0
    if y >= d:
        return 1.0
    return (y + d) / (2.0 * d)


def _hinge_d2(y, d):
    return 1.0 / (2.0 * d) if -d < y < d else 0.0


@dataclass(frozen=True)
class JointLimitPenalty:
    """Smoothed joint-limit barrier on one configuration component.

    The kinks are replaced by quadratic blends of half-width ``width`` so the
    Newton Jacobian stays defined; at width 1e-6 rad the blended value differs
    from the exact barrier by at most slope*width/4.
    """

    n: int
    index: int = 1
    lo: float = 0.0
    hi: float = math.radians(170.0)
    slope: float = 1000.0
    width: float = 1e-6

    def __post_init__(self):
        if not (self.slope > 0 and self.width > 0 and self.lo < self.hi):
            raise ValueError("penalty needs slope > 0, width > 0 and lo < hi")

    def exact(self, theta: float) -> float:
        return joint_limit_penalty(theta, self.lo, self.hi, self.slope)

    def value(self, q) -> float:
        t = float(q[self.index])
        return self.slope * (_hinge(self.lo - t, self.width)
                             + _hinge(t - self.hi, self.width))

    def grad(self, q) -> np.ndarray:
        t = float(q[self.index])
        g = np.zeros(self.n)
        g[self.index] = self.slope * (-_hinge_d1(self.lo - t, self.width)
                                      + _hinge_d1(t - self.hi, self.width))
        return g

    def hess(self, q) -> np.ndarray:
        t = float(q[self.index])
        H = np.zeros((self.n, self.n))
        H[self.index, self.index] = self.slope * (_hinge_d2(self.lo - t, self.width)
                                                  + _hinge_d2(t - self.hi, self.width))
        return H


# -- problem description ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OCProblem:
    """Boundary-value optimal control problem for a fully actuated system."""

    model: MechanicalModel
    cost: CostFunction
    qa: np.ndarray
    va: np.ndarray
    qb: np.ndarray
    vb: np.ndarray
    T: float
    N: int
    penalty: JointLimitPenalty = None

    def __post_init__(self):
        for name in ("qa", "va", "qb", "vb"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if v.size != self.model.n:
                raise ValueError(f"{name} must have dimension {self.model.n}")
            object.__setattr__(self, name, v)
        if not self.T > 0:
            raise ValueError("T must be positive")
        if self.N < 2:
            raise ValueError("N must be at least 2")


def lift_cost(P: OCProblem) -> LagrangianModel:
    """Second-order Lagrangian obtained by eliminating the controls.

    The torques u = d/dt dL/dqdot - dL/dq are substituted into the running
    cost.  When both the mechanical model and the cost carry symbolic forms
    the composition stays fully analytic; otherwise the lifted model is
    value-only with finite-difference derivatives.  A state penalty enters as
    an additive configuration-only term.
    """
    M = P.model
    n = M.n
    if M.sympy_data is not None and P.cost.symbolic is not None:
        expr, qs, dqs = M.sympy_data
        ddqs = list(sp.symbols(f"__lift_ddq0:{n}", real=True))

        def dt(e):
            return sum(sp.diff(e, qs[i]) * dqs[i] + sp.diff(e, dqs[i]) * ddqs[i]
                       for i in range(n))

        u_exprs = [dt(sp.diff(expr, dqs[i])) - sp.diff(expr, qs[i]) for i in range(n)]
        lifted_expr = P.cost.symbolic(qs, dqs, u_exprs)
        base = LagrangianModel.from_sympy(n, lifted_expr, qs, dqs, ddqs,
                                          name=f"lifted-{M.name}")
    else:
        def value(q, dq, ddq):
            u = controlled_forces(M, JetPoint(q, (dq, ddq)))
            return P.cost.fn(q, dq, u)

        base = LagrangianModel(n, value, name=f"lifted-{M.name}-fd")
    return _penalized(base, P.penalty)


def _penalized(base: LagrangianModel, penalty: JointLimitPenalty) -> LagrangianModel:
    """``base`` plus the configuration term of ``penalty``, if there is one."""
    if penalty is None:
        return base
    return base.with_position_term(penalty.value, penalty.grad, penalty.hess,
                                   name=f"{base.name}+limit")


@dataclass(frozen=True, eq=False)
class OCPResult:
    """Solved path, its discrete action, the models used to produce it, and
    the Newton iterations of each continuation level, one list per penalty
    stage."""

    path: DiscretePath
    cost: float
    lifted: LagrangianModel
    scheme: DiscreteLagrangian
    newton_iterations: list


def _width_ladder(width: float):
    """Penalty widths from 0.5 down to ``width`` by factors of 8."""
    if width >= 0.5:
        return [width]
    ladder = [0.5]
    while ladder[-1] / 8.0 > width:
        ladder.append(ladder[-1] / 8.0)
    ladder.append(width)
    return ladder


def solve_ocp(P: OCProblem, scheme: str = "taylor-midpoint") -> OCPResult:
    """Solve the discrete boundary-value optimality system over the path.

    All interior states are unknowns of one damped Newton iteration with a
    block-tridiagonal Jacobian; the endpoints are pinned to the boundary data
    exactly.  A joint-limit penalty is continued from a widely smoothed
    barrier down to its target kink width, warm-starting every stage, so the
    iterates never have to cross the stiff barrier blindly.  Returns the path
    together with the discrete action value.  The path tolerance is 1e-10
    (1e-6 for the intermediate penalty stages), within 200 Newton iterations.
    """
    grid = uniform_grid(0.0, P.T, P.N)
    x0 = JetPoint(P.qa, (P.va,))
    xN = JetPoint(P.qb, (P.vb,))

    base = lift_cost(dataclasses.replace(P, penalty=None))
    # a problem without a penalty is a one-stage ladder
    penalties = ([None] if P.penalty is None else
                 [dataclasses.replace(P.penalty, width=w)
                  for w in _width_ladder(P.penalty.width)])
    guess, stages = None, []
    for i, pen in enumerate(penalties):
        lifted = _penalized(base, pen)
        Ld = make_scheme(scheme, lifted)
        stage_tol = 1e-10 if i == len(penalties) - 1 else 1e-6
        path = solve_boundary_path(Ld, x0, xN, grid, guess=guess,
                                   tol=stage_tol, max_iter=200)
        stages.append(path.diagnostics["newton_iterations"])
        guess = path.nodes[1:-1]

    return OCPResult(path, path.diagnostics["action"], lifted, Ld, stages)


def fd_accelerations(path: DiscretePath) -> np.ndarray:
    """Accelerations completed from the velocity samples by differences:
    central at interior nodes, one-sided second order at the ends."""
    v = path.velocities()
    h = path.grid.h
    a = np.empty_like(v)
    a[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    a[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    a[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return a


def solution_table(P: OCProblem, result: OCPResult, forces=None):
    """(header, rows) for trajectory output: t, q, v, and the recovered controls u.

    Controls are re-evaluated from the path with difference-completed
    accelerations; ``forces(jet) -> u`` overrides the generic evaluation.
    """
    path = result.path
    n = path.n
    q = path.positions()
    v = path.velocities()
    a = fd_accelerations(path)
    t = path.grid.times
    if forces is None:
        forces = lambda jet: controlled_forces(P.model, jet)
    u = np.array([forces(JetPoint(q[k], (v[k], a[k]))) for k in range(len(t))])
    header = (["t"] + [f"q{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
              + [f"u{i}" for i in range(n)])
    rows = np.column_stack([t, q, v, u])
    return header, rows


# -- two-link manipulator -----------------------------------------------------------

@dataclass(frozen=True)
class TwoLinkParams:
    """Masses, lengths, joint inertias, and gravity for the planar arm.

    Inertias default to the thin-rod value m l^2 / 3 about the joint.
    """

    m1: float = 0.375
    m2: float = 0.25
    l1: float = 1.5
    l2: float = 1.0
    J1: float = None
    J2: float = None
    g: float = 9.8

    def __post_init__(self):
        if self.J1 is None:
            object.__setattr__(self, "J1", self.m1 * self.l1**2 / 3.0)
        if self.J2 is None:
            object.__setattr__(self, "J2", self.m2 * self.l2**2 / 3.0)
        for name in ("m1", "m2", "l1", "l2", "J1", "J2", "g"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def two_link_forces(P: TwoLinkParams, jet: JetPoint) -> np.ndarray:
    """Joint torques of the controlled arm, written out termwise.

    Transcribed directly from the equations of motion; an independent route
    to the same values is ``controlled_forces`` on :func:`two_link_model`.
    """
    th1, th2 = jet.q
    w1, w2 = jet.deriv(1)
    al1, al2 = jet.deriv(2)
    m1, m2, l1, l2, J1, J2, g = (P.m1, P.m2, P.l1, P.l2, P.J1, P.J2, P.g)
    s2, c2 = math.sin(th2), math.cos(th2)
    c12 = math.cos(th1 + th2)
    u1 = (-s2 * l1 * l2 * m2 * w2 * w1
          - 0.5 * s2 * w2**2 * l1 * l2 * m2
          + 0.5 * m2 * l2 * c12 * g
          + (m2 * g * math.cos(th1) + 0.5 * g * math.cos(th1) * m1) * l1
          + (0.25 * m2 * l2**2 + J2 + 0.5 * c2 * l1 * l2 * m2) * al2
          + (c2 * l1 * l2 * m2 + (m1 / 4.0 + m2) * l1**2 + m2 * l2**2 / 4.0
             + J1 + J2) * al1)
    u2 = (0.5 * s2 * l1 * l2 * m2 * w1**2
          + (0.25 * m2 * l2**2 + J2 + 0.5 * c2 * l1 * l2 * m2) * al1
          + 0.5 * m2 * l2 * c12 * g
          + (0.25 * m2 * l2**2 + J2) * al2)
    return np.array([u1, u2])


def two_link_model(P: TwoLinkParams = None) -> MechanicalModel:
    """Kinetic-minus-potential Lagrangian of the arm, symbolically backed.

    Angles are measured from the horizontal on the universal cover, so the
    downward rest configuration is theta = (-pi/2, 0).
    """
    P = P or TwoLinkParams()
    th = list(sp.symbols("th0:2", real=True))
    w = list(sp.symbols("w0:2", real=True))
    m1, m2, l1, l2, J1, J2, g = (P.m1, P.m2, P.l1, P.l2, P.J1, P.J2, P.g)
    kinetic = (sp.Rational(1, 8) * (m1 + 4 * m2) * l1**2 * w[0]**2
               + sp.Rational(1, 8) * m2 * l2**2 * (w[0] + w[1])**2
               + sp.Rational(1, 2) * m2 * l1 * l2 * sp.cos(th[1]) * w[0] * (w[0] + w[1])
               + sp.Rational(1, 2) * J1 * w[0]**2
               + sp.Rational(1, 2) * J2 * (w[0] + w[1])**2)
    potential = g * ((sp.Rational(1, 2) * m1 + m2) * l1 * sp.sin(th[0])
                     + sp.Rational(1, 2) * m2 * l2 * sp.sin(th[0] + th[1]))
    return MechanicalModel.from_sympy(2, kinetic - potential, th, w, name="two-link")


def free_particle_model(n: int = 1) -> MechanicalModel:
    """L = |qdot|^2 / 2; its lifted effort cost is the cubic-spline Lagrangian."""
    q = sp.symbols(f"q0:{n}", real=True)
    dq = sp.symbols(f"dq0:{n}", real=True)
    expr = sum(v**2 for v in dq) / 2
    return MechanicalModel.from_sympy(n, expr, q, dq, name="free-particle")


def two_link_problem(params: TwoLinkParams = None, T: float = 10.0, N: int = 200,
                     penalty: JointLimitPenalty = None) -> OCProblem:
    """Swing-up problem: downward rest to upright rest over [0, T]."""
    params = params or TwoLinkParams()
    return OCProblem(two_link_model(params), control_effort_cost(),
                     qa=[-math.pi / 2.0, 0.0], va=[0.0, 0.0],
                     qb=[math.pi / 2.0, 0.0], vb=[0.0, 0.0],
                     T=T, N=N, penalty=penalty)
