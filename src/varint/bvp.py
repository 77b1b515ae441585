"""Two-point boundary solvers for the one-step action of second-order systems.

Two independent routes compute the action along the trajectory connecting two
tangent-space endpoints over a step h:

* a regularized spectral solver: the acceleration curve is expanded in an
  orthonormal polynomial basis on [0, 1], the endpoint data pin its first two
  coefficients, and Newton drives the remaining action gradient to zero;
* a shooting solver: Newton on the unknown initial acceleration and jerk,
  integrating the explicit fourth-order equation of motion with classical
  Runge-Kutta substeps.

Each serves as an oracle for the other.  The reparameterized curves live on
u in [0, 1]; velocity and position are recovered from the acceleration by
integrating the basis once and twice from u = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as leg

from .errors import SingularHessian
from .jets import JetPoint
from .lagrangian import FD_STEP, LagrangianModel, fourth_order_rhs_raw
from .newton import newton


# -- the spectral solver ------------------------------------------------------------

#: Change matrix from the orthonormal pair b = (sqrt(3)(1 - 2s), 1) to the
#: constraint polynomials a = (1 - s, 1): a_j = sum_i GAMMA[j, i] b_i.
GAMMA = np.array([[1.0 / (2.0 * math.sqrt(3.0)), 0.5], [0.0, 1.0]])
GAMMA.setflags(write=False)


def endpoints_to_w(q1jet: JetPoint, q2jet: JetPoint, h: float) -> np.ndarray:
    """Coefficients ``w`` (shape (2, n)) of the acceleration curve along b
    that the endpoint data pin: GAMMA @ w = z with
    z = ((q2 - q1 - h v1) / h^2, (v2 - v1) / h).

    The limit h = 0 degenerates (every z would need the same constant curve)
    and is rejected.
    """
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if q1jet.order != q2jet.order or q1jet.dim != q2jet.dim:
        raise ValueError("endpoint jets must share order and dimension")
    v1 = q1jet.deriv(1)
    z = np.array([(q2jet.q - (q1jet.q + h * v1)) / h**2,
                  (q2jet.deriv(1) - v1) / h])
    return np.linalg.solve(GAMMA, z)


@lru_cache(maxsize=None)
def _basis_tables(degree: int, count: int):
    """``count`` Gauss nodes ``u`` and weights ``wq`` on [0, 1] with the
    values ``B0`` and the first two antiderivatives from 0, ``B1`` and
    ``B2``, of the basis at the nodes (rows: nodes, columns: functions).

    The basis is sqrt(3)(1 - 2s), 1, then the shifted Legendre polynomials
    of degree 2..``degree`` scaled to unit norm; it is orthonormal on [0, 1].
    """
    x, w = leg.leggauss(count)
    u, wq = (x + 1.0) / 2.0, w / 2.0
    # one column of Legendre coefficients in x = 2s - 1 per basis function
    C = np.zeros((degree + 1, degree + 1))
    C[1, 0] = -math.sqrt(3.0)
    C[0, 1] = 1.0
    for d in range(2, degree + 1):
        C[d, d] = math.sqrt(2 * d + 1)
    B0, B1, B2 = (leg.legval(x, leg.legint(C, m, lbnd=-1.0, scl=0.5)).T
                  for m in (0, 1, 2))
    for arr in (u, wq, B0, B1, B2):
        arr.setflags(write=False)
    return u, wq, B0, B1, B2


class _ActionAssembler:
    """Action, gradient, and Hessian of the reparameterized one-step action
    as functions of the acceleration coefficients (rows: basis functions)."""

    def __init__(self, L: LagrangianModel, degree: int, q1jet: JetPoint, h: float):
        self.L = L
        self.h = float(h)
        self.q1 = q1jet.q
        self.v1 = q1jet.deriv(1)
        pdeg = L.poly_degree if L.poly_degree is not None else 4
        count = math.ceil((2 * degree + pdeg) / 2) + 4
        self.u, self.wq, self.B0, self.B1, self.B2 = _basis_tables(degree, count)

    def curves(self, coeffs):
        h = self.h
        Q2 = self.B0 @ coeffs
        Q1 = self.v1[None, :] + h * (self.B1 @ coeffs)
        Q0 = self.q1[None, :] + h * self.u[:, None] * self.v1[None, :] + h * h * (self.B2 @ coeffs)
        return Q0, Q1, Q2

    def action(self, coeffs) -> float:
        Q0, Q1, Q2 = self.curves(coeffs)
        return float(sum(w * self.L.value_at(Q0[g], Q1[g], Q2[g])
                         for g, w in enumerate(self.wq)))

    def gradient(self, coeffs) -> np.ndarray:
        h = self.h
        Q0, Q1, Q2 = self.curves(coeffs)
        n = self.L.n
        G0 = np.empty((self.u.size, n)); G1 = np.empty_like(G0); G2 = np.empty_like(G0)
        for g in range(self.u.size):
            Lq, Ldq, Lddq = self.L.grad_at(Q0[g], Q1[g], Q2[g])
            G0[g], G1[g], G2[g] = Lq, Ldq, Lddq
        W = self.wq[:, None]
        return (h * h * self.B2.T @ (W * G0) + h * self.B1.T @ (W * G1)
                + self.B0.T @ (W * G2))

    def hessian(self, coeffs) -> np.ndarray:
        h = self.h
        Q0, Q1, Q2 = self.curves(coeffs)
        n = self.L.n
        m1 = self.B0.shape[1]
        H = np.zeros((m1 * n, m1 * n))
        I = np.eye(n)
        for g, w in enumerate(self.wq):
            Hf = self.L.hess_at(Q0[g], Q1[g], Q2[g])
            Bg = np.vstack([h * h * np.kron(self.B2[g], I),
                            h * np.kron(self.B1[g], I),
                            np.kron(self.B0[g], I)])
            H += w * (Bg.T @ Hf @ Bg)
        return H


def _hermite_coeffs(a: JetPoint, b: JetPoint, T: float):
    """(c2, c3) of the cubic q(t) = q_a + t v_a + t^2 c2 + t^3 c3 that meets
    the jet ``b`` at t = T."""
    q0, v0 = a.q, a.deriv(1)
    q1, v1 = b.q, b.deriv(1)
    c2 = (3.0 * (q1 - q0) - T * (2.0 * v0 + v1)) / T**2
    c3 = (-2.0 * (q1 - q0) + T * (v0 + v1)) / T**3
    return c2, c3


#: Largest step accepted by the connecting-trajectory solvers.  Local
#: uniqueness only holds for small enough steps and no a-priori bound is
#: available; observed convergence in the test problems (cubic-spline family,
#: added potentials, the lifted arm cost) extends to h of order one, and the
#: shipped experiments use h <= 0.5.
H_MAX = 4.0


def _check_h(h):
    if not 0.0 < h <= H_MAX:
        raise ValueError(f"step h={h} outside (0, {H_MAX}]")


def solve_regularized(L: LagrangianModel, q1jet: JetPoint, q2jet: JetPoint, h: float,
                      degree: int = 8, max_iter: int = 50) -> np.ndarray:
    """Acceleration coefficients of the connecting trajectory by projected Newton.

    Returns the ``(degree + 1, n)`` coefficients along the basis of
    :func:`_basis_tables`.  The first two rows are pinned to the endpoint
    data w; Newton (damped by a halving line search, warm-started from the
    connecting cubic, i.e. zero free rows) drives the remaining rows of the
    action gradient below 1e-12.
    """
    _check_h(h)
    if q1jet.order != 1:
        raise ValueError("the regularized solver handles second-order models (order-1 jets)")
    if degree < 2:
        raise ValueError("degree must be >= 2")
    w = endpoints_to_w(q1jet, q2jet, h)
    n = L.n
    asm = _ActionAssembler(L, degree, q1jet, h)

    def coeffs_of(z):
        return np.vstack([w, z.reshape(degree - 1, n)])

    def residual(z):
        return asm.gradient(coeffs_of(z))[2:].reshape(-1)

    def jacobian(z, r):
        return asm.hessian(coeffs_of(z))[2 * n:, 2 * n:]

    z, _ = newton(residual, jacobian, np.zeros((degree - 1) * n), 1e-12,
                  1e-12, max_iter, SingularHessian, "regularized Newton")
    return coeffs_of(z)


# -- shooting ---------------------------------------------------------------------

def integrate_el(L: LagrangianModel, jet3: JetPoint, h: float, substeps: int,
                 with_action: bool = False):
    """Integrate the explicit fourth-order equation of motion over [0, h].

    Classical fourth-order Runge-Kutta with fixed substeps on the stacked
    state (q, qdot, qddot, q3) and optionally the running action.
    Returns the order-3 jet at t = h (and the action when requested).
    """
    n = L.n
    y = jet3.as_array()
    action = 0.0
    dt = h / substeps

    def rhs(yv):
        q, dq, ddq, d3q = yv[:n], yv[n:2 * n], yv[2 * n:3 * n], yv[3 * n:]
        return np.concatenate([dq, ddq, d3q, fourth_order_rhs_raw(L, q, dq, ddq, d3q)])

    def lag(yv):
        return L.value_at(yv[:n], yv[n:2 * n], yv[2 * n:3 * n])

    for _ in range(substeps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        if with_action:
            a1 = lag(y)
            a2 = lag(y + 0.5 * dt * k1)
            a3 = lag(y + 0.5 * dt * k2)
            a4 = lag(y + dt * k3)
            action += dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    out = JetPoint.from_array(y, 3, n)
    return (out, action) if with_action else out


def _shoot_once(L, q1jet, q2jet, h, substeps, x0, tol, max_iter):
    """Newton on the initial (qddot, q3) so the flow hits the right endpoint."""
    n = L.n
    target = np.concatenate([q2jet.q, q2jet.deriv(1)])
    scale = 1.0 + np.max(np.abs(target))

    def endpoint(x):
        jet = JetPoint(q1jet.q, (q1jet.deriv(1), x[:n], x[n:]))
        out = integrate_el(L, jet, h, substeps)
        return np.concatenate([out.q, out.deriv(1)]) - target

    def jacobian(x, r):
        J = np.empty((2 * n, 2 * n))
        for i in range(2 * n):
            d = FD_STEP * (1.0 + abs(x[i]))
            xp = x.copy(); xp[i] += d
            J[:, i] = (endpoint(xp) - r) / d
        return J

    def polish(x, r):
        # one extra undamped update after convergence contracts the iterate
        # from the stopping ball onto the root, so the solve is a smooth
        # function of its data (fit for outer differencing)
        try:
            xt = x + np.linalg.solve(jacobian(x, r), -r)
        except np.linalg.LinAlgError:
            return x
        return xt if np.max(np.abs(endpoint(xt))) <= np.max(np.abs(r)) else x

    # the endpoint map carries integration roundoff; accept a stall there
    floor = 64.0 * np.finfo(float).eps * scale * math.sqrt(substeps)
    x, r = newton(endpoint, jacobian, x0, tol * scale, max(tol * scale, floor),
                  max_iter, SingularHessian, "shooting Newton")
    return polish(x, r)


def shooting_bvp(L: LagrangianModel, q1jet: JetPoint, q2jet: JetPoint, h: float,
                 return_substeps: bool = False):
    """Initial order-3 jet whose forward flow meets the right endpoint.

    Each solve drives the endpoint miss below 1e-11 (relative to the endpoint
    scale) in at most 50 Newton steps.  The substep count starts at 16 and
    doubles until a solve with twice the resolution moves the answer by at
    most 1e-11 (relative to the jet scale), capped at 1024.
    """
    _check_h(h)
    c2, c3 = _hermite_coeffs(q1jet, q2jet, h)
    x = _shoot_once(L, q1jet, q2jet, h, 16, np.concatenate([2.0 * c2, 6.0 * c3]),
                    1e-11, 50)
    S = 16
    while True:
        x2 = _shoot_once(L, q1jet, q2jet, h, 2 * S, x, 1e-11, 50)
        close = np.max(np.abs(x2 - x)) <= 1e-11 * (1.0 + np.max(np.abs(x2)))
        x, S = x2, 2 * S
        if close or S >= 1024:
            break
    n = L.n
    jet = JetPoint(q1jet.q, (q1jet.deriv(1), x[:n], x[n:]))
    return (jet, S) if return_substeps else jet


def exact_Ld(L: LagrangianModel, q1jet: JetPoint, q2jet: JetPoint, h: float,
             method: str = "regularized", degree: int = 8) -> float:
    """Action integral along the connecting trajectory.

    ``method="regularized"`` reports h times the quadrature action of the
    solved spectral curve; ``method="shooting"`` integrates the Lagrangian
    along the flow of the solved initial jet.  The two agree to solver
    tolerance and cross-validate each other.
    """
    if method == "regularized":
        coeffs = solve_regularized(L, q1jet, q2jet, h, degree)
        return h * _ActionAssembler(L, degree, q1jet, h).action(coeffs)
    if method == "shooting":
        jet, S = shooting_bvp(L, q1jet, q2jet, h, return_substeps=True)
        _, action = integrate_el(L, jet, h, S, with_action=True)
        return action
    raise ValueError(f"unknown method {method!r}")
