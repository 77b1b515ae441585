"""Two-point boundary solvers for the one-step action of second-order systems.

Two independent routes compute the action along the trajectory connecting two
tangent-space endpoints over a step h:

* a regularized spectral solver: the acceleration curve is expanded in an
  orthonormal polynomial basis on [0, 1], the endpoint data pin its first two
  coefficients, and Newton drives the remaining action gradient to zero;
* a shooting solver: Newton on the unknown initial acceleration and jerk,
  integrating the explicit fourth-order equation of motion with classical
  Runge-Kutta substeps.  The integration advances a stack of states, one
  member per row, so the finite-difference Jacobian columns of a solve, and
  independent solves posed together, each take one stacked integration.

Each serves as an oracle for the other.  The reparameterized curves live on
u in [0, 1]; velocity and position are recovered from the acceleration by
integrating the basis once and twice from u = 0.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import legendre as leg

from .errors import SingularHessian, UnsettledSubsteps
from .jets import JetPoint
from .lagrangian import FD_STEP, LagrangianModel, fourth_order_rhs_raw
from .newton import floors, newton, newton_one, solve_rows


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

    def jets(self, coeffs):
        """The flat jets (q, qdot, qddot) at the nodes, one per row."""
        return np.hstack(self.curves(coeffs))

    def action(self, coeffs) -> float:
        V = self.L.value_stack(self.jets(coeffs))
        return float(sum(w * v for w, v in zip(self.wq, V)))

    def gradient(self, coeffs) -> np.ndarray:
        h = self.h
        n = self.L.n
        G = self.L.grad_stack(self.jets(coeffs))
        W = self.wq[:, None]
        return (h * h * self.B2.T @ (W * G[:, :n]) + h * self.B1.T @ (W * G[:, n:2 * n])
                + self.B0.T @ (W * G[:, 2 * n:]))

    @cached_property
    def _node_maps(self):
        # per Gauss node, the map from the coefficients to the node's jet,
        # built for all nodes at once and copied apart, so each product
        # runs on a contiguous (3n, (degree + 1) n) array of its own
        h, I = self.h, np.eye(self.L.n)
        maps = np.concatenate([h * h * np.kron(self.B2[:, None], I),
                               h * np.kron(self.B1[:, None], I),
                               np.kron(self.B0[:, None], I)], axis=1)
        return [m.copy() for m in maps]

    def hessian(self, coeffs) -> np.ndarray:
        m = self.B0.shape[1] * self.L.n
        H = np.zeros((m, m))
        for w, Hf, Bg in zip(self.wq, self.L.hess_stack(self.jets(coeffs)), self._node_maps):
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


def _check_ends(L: LagrangianModel, jets, order: int, h=None):
    """Raise :class:`ValueError` unless every jet has ``order`` and the
    model's dimension, and ``h``, where given, lies in (0, H_MAX]."""
    if h is not None and not 0.0 < h <= H_MAX:
        raise ValueError(f"step h={h} outside (0, {H_MAX}]")
    for jet in jets:
        if jet.order != order or jet.dim != L.n:
            raise ValueError(f"expected jets of order {order} and dimension {L.n}, "
                             f"got order {jet.order} and dimension {jet.dim}")


def solve_regularized(L: LagrangianModel, q1jet: JetPoint, q2jet: JetPoint, h: float,
                      degree: int = 8, max_iter: int = 50) -> np.ndarray:
    """Acceleration coefficients of the connecting trajectory by projected Newton.

    Returns the ``(degree + 1, n)`` coefficients along the basis of
    :func:`_basis_tables`.  The first two rows are pinned to the endpoint
    data w; Newton (damped by a halving line search, warm-started from the
    connecting cubic, i.e. zero free rows) drives the remaining rows of the
    action gradient to the :func:`floors` of 1e-12 at the roundoff scale
    ||H0||_inf max(1, max |w|), H0 being the start's Hessian, where that
    scale is finite.
    """
    _check_ends(L, (q1jet, q2jet), 1, h)
    if degree < 2:
        raise ValueError("degree must be >= 2")
    w = endpoints_to_w(q1jet, q2jet, h)
    n = L.n
    asm = _ActionAssembler(L, degree, q1jet, h)

    def coeffs_of(z):
        return np.vstack([w, z.reshape(degree - 1, n)])

    def residual(z):
        return asm.gradient(coeffs_of(z))[2:].reshape(-1)

    def hessian(z):
        return asm.hessian(coeffs_of(z))[2 * n:, 2 * n:]

    # Newton's first residual and step are at the start: its gradient, and
    # its Hessian unless it meets every floor already, are handed to them
    z0 = np.zeros((degree - 1) * n)
    r0 = [residual(z0)]
    H0 = [] if np.abs(r0[0]).max() <= 1e-12 else [hessian(z0)]
    scale = np.linalg.norm(H0[0], np.inf) * max(1.0, np.max(np.abs(w))) if H0 else 0.0
    z, _ = newton_one(lambda z: r0.pop() if r0 else residual(z),
                      lambda z, r: H0.pop() if H0 else hessian(z), z0,
                      *floors(1e-12, scale if np.isfinite(scale) else 0.0), max_iter,
                      SingularHessian, "regularized Newton")
    return coeffs_of(z)


# -- shooting ---------------------------------------------------------------------

#: Largest stack that :func:`_rk4` advances on Python floats.  Least cost
#: per substep in us over 15 interleaved repeats, Python floats / numpy
#: columns, through the generated q4 code (2-core x86-64, CPython 3.11.7,
#: numpy 2.4.6, one BLAS thread):
#:
#:     rows            1        2        4        5        6        8
#:     spline n=1     6/26    11/26    21/26    28/25    33/26    43/26
#:     spline n=2     7/28    15/30    28/29    35/28    43/30    58/29
#:     spline n=3     9/33    18/33    34/32    44/33    52/33    71/33
#:
#: The crossover is about 4 to 5 rows whatever n, as the float cost of a
#: row and the column cost both grow slowly with n.  A shooting solve
#: stacks 1 or 2n rows, the momentum-map check 8n to 16n.
_FLOAT_ROWS = 4


def _rk4_floats(q4, value, y, h: float, substeps: int):
    """One member of :func:`_rk4` on Python floats: the state list ``y``
    after ``substeps`` steps over [0, h] of the float form ``q4`` of a
    model's generated q4 code (its nested rows flattened), and its running
    action on the generated ``value`` code (0.0 when ``value`` is None).
    The stages and sums are those of the stacked form, in its order."""
    n = len(y) // 4
    dt = float(h) / substeps
    half, sixth, action = 0.5 * dt, dt / 6.0, 0.0

    def rhs(z):
        return z[n:] + [e for e, in q4(*z)]

    for _ in range(substeps):
        k1 = rhs(y)
        y2 = [a + half * b for a, b in zip(y, k1)]
        k2 = rhs(y2)
        y3 = [a + half * b for a, b in zip(y, k2)]
        k3 = rhs(y3)
        y4 = [a + dt * b for a, b in zip(y, k3)]
        k4 = rhs(y4)
        if value is not None:
            a1, a2, a3, a4 = (value(*z[:3 * n]) for z in (y, y2, y3, y4))
            action += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return y, action


def _rk4(L: LagrangianModel, Y, h: float, substeps: int, with_action: bool = False):
    """Classical fourth-order Runge-Kutta with fixed substeps over [0, h] on
    an (M, 4n) stack of states (q, qdot, qddot, q3), one member per row.

    Every member sees the same elementwise arithmetic as it would alone, so
    its end state and action do not depend on the rest of the stack.
    Returns the end states and the (M,) running actions (None without).

    A stack of at most ``_FLOAT_ROWS`` members of a model with a generated
    ``q4`` (whose value code is generated too) runs member by member on
    the Python-float form of that code, which skips numpy's fixed cost
    per operation; other stacks run on numpy columns.  Both paths give the
    same bits, as each generated call does pointwise and stacked.  Where
    Python floats raise, or end in a non-finite number, the whole stack
    runs again on columns, so its nan, inf and warnings are numpy's.
    """
    n = L.n
    if L.q4 is not None and len(Y) <= _FLOAT_ROWS:
        value = L.value.generated.floats if with_action else None
        try:
            runs = [_rk4_floats(L.q4.generated.floats, value, y, h, substeps)
                    for y in Y.tolist()]
        except (ArithmeticError, ValueError):
            pass
        else:
            end = np.array([y for y, _ in runs]).reshape(Y.shape)
            action = np.array([a for _, a in runs])
            if np.isfinite(end).all() and np.isfinite(action).all():
                return end, action if with_action else None
    dt = h / substeps
    action = np.zeros(len(Y)) if with_action else None

    def rhs(Yv):
        return np.concatenate([Yv[:, n:], fourth_order_rhs_raw(L, Yv)], axis=1)

    for _ in range(substeps):
        k1 = rhs(Y)
        Y2 = Y + 0.5 * dt * k1
        k2 = rhs(Y2)
        Y3 = Y + 0.5 * dt * k2
        k3 = rhs(Y3)
        Y4 = Y + dt * k3
        k4 = rhs(Y4)
        if with_action:
            a1, a2, a3, a4 = L.value_stack(
                np.concatenate([Y, Y2, Y3, Y4])[:, :3 * n]).reshape(4, -1)
            action += dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        Y = Y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Y, action


def integrate_el(L: LagrangianModel, jet3: JetPoint, h: float, substeps: int,
                 with_action: bool = False):
    """Integrate the explicit fourth-order equation of motion over [0, h].

    The one-member stack of :func:`_rk4`: classical fourth-order Runge-Kutta
    with fixed substeps on the state (q, qdot, qddot, q3) and optionally the
    running action.  Returns the order-3 jet at t = h (and the action when
    requested).
    """
    _check_ends(L, (jet3,), 3)
    if not int(substeps) == substeps >= 1:
        raise ValueError(f"substeps must be a positive integer, got {substeps}")
    Y, action = _rk4(L, jet3.as_array()[None], h, int(substeps), with_action)
    out = JetPoint.from_array(Y[0], 3, L.n)
    return (out, float(action[0])) if with_action else out


def _shoot(L, left, target, h, substeps, X0, tol, max_iter):
    """Newton on the initial (qddot, q3) of each member of a stack so that
    its flow from ``left`` hits ``target`` at t = h.

    ``left`` and ``target`` hold one member's (q, qdot) per row and ``X0``
    its start; one stacked RK4 serves every endpoint evaluation, and one
    more the 2n finite-difference Jacobian columns of every active member.
    Returns the (M, 2n) solutions; a failed member raises its error (the
    first such member's).
    """
    k = left.shape[1]
    scale = 1.0 + np.max(np.abs(target), axis=1)

    def endpoint(X, rows):
        Y, _ = _rk4(L, np.hstack([left[rows], X]), h, substeps)
        return Y[:, :k] - target[rows]

    def jacobian(X, R, rows):
        # column i of member j: (endpoint(x_j + d_ji e_i) - r_j) / d_ji
        d = FD_STEP * (1.0 + np.abs(X))
        XP = np.repeat(X[:, None, :], k, axis=1)
        XP[:, np.arange(k), np.arange(k)] += d
        F = endpoint(XP.reshape(-1, k), np.repeat(rows, k)).reshape(len(rows), k, k)
        return ((F - R[:, None, :]) / d[:, :, None]).transpose(0, 2, 1)

    def polish(X, R):
        # one extra undamped update after convergence contracts each iterate
        # from the stopping ball onto the root, so the solve is a smooth
        # function of its data (fit for outer differencing)
        rows = np.arange(len(X))
        delta, errors = solve_rows(jacobian(X, R, rows), -R)
        ok = rows if errors is None else rows[[e is None for e in errors]]
        if ok.size == 0:
            return X
        XT = X[ok] + delta[ok]
        better = (np.max(np.abs(endpoint(XT, ok)), axis=1)
                  <= np.max(np.abs(R[ok]), axis=1))
        X[ok[better]] = XT[better]
        return X

    # the endpoint map carries integration roundoff, which grows with the
    # substep count; accept a stall at its floor
    X, R, failures = newton(endpoint, jacobian, X0,
                            *floors(tol * scale, scale * math.sqrt(substeps)),
                            max_iter, SingularHessian, "shooting Newton")
    for exc in failures:
        if exc is not None:
            raise exc
    return polish(X, R)


def shooting_bvp(L: LagrangianModel, q1jet: JetPoint, q2jet: JetPoint, h: float,
                 return_substeps: bool = False):
    """Initial order-3 jet whose forward flow meets the right endpoint.

    Each solve drives the endpoint miss below 1e-11 (relative to the endpoint
    scale) in at most 50 Newton steps.  The substep count starts at 16 and
    doubles until a solve with twice the resolution moves the answer by at
    most 1e-11 (relative to the jet scale), or by at most 1e-9 after less
    than a 4-fold shrink from the doubling before: that is the solves' own
    stopping noise, as RK4's error shrinks 16-fold.  It also stops where
    the move shrank at least 12-fold from the doubling before and RK4's
    prediction of the next move, a 16th of this one, is at most 1e-11
    (Richardson's error estimate).  At the cap of 1024 a move still
    shrinking issues :class:`UnsettledSubsteps`.
    """
    _check_ends(L, (q1jet, q2jet), 1, h)
    c2, c3 = _hermite_coeffs(q1jet, q2jet, h)
    left = np.concatenate([q1jet.q, q1jet.deriv(1)])[None]
    target = np.concatenate([q2jet.q, q2jet.deriv(1)])[None]
    x = _shoot(L, left, target, h, 16, np.concatenate([2.0 * c2, 6.0 * c3])[None],
               1e-11, 50)
    S, last = 16, np.inf
    while True:
        x2 = _shoot(L, left, target, h, 2 * S, x, 1e-11, 50)
        moved, size = np.max(np.abs(x2 - x)), 1.0 + np.max(np.abs(x2))
        x, S = x2, 2 * S
        if moved <= 1e-11 * size or moved <= 1e-9 * size and 4.0 * moved / size > last:
            break
        if last < np.inf and 12.0 * moved / size <= last and moved / size / 16.0 <= 1e-11:
            break
        last = moved / size
        if S >= 1024:
            warnings.warn(f"shooting accepted at the cap of S = {S} substeps, where the "
                          f"last doubling moved the answer by {moved / size:.2e} "
                          "(relative), above 1e-11", UnsettledSubsteps)
            break
    n = L.n
    jet = JetPoint(q1jet.q, (q1jet.deriv(1), x[0, :n], x[0, n:]))
    return (jet, S) if return_substeps else jet


def exact_Ld(L: LagrangianModel, q1jet: JetPoint, q2jet: JetPoint, h: float,
             method: str = "regularized", degree: int = 8) -> float:
    """Action integral along the connecting trajectory.

    ``method="regularized"`` reports h times the quadrature action of the
    solved spectral curve; ``method="shooting"`` integrates the Lagrangian
    along the flow of the solved initial jet.  The two agree to solver
    tolerance and cross-validate each other.  A non-finite action raises
    :class:`OverflowError`.
    """
    if method == "regularized":
        coeffs = solve_regularized(L, q1jet, q2jet, h, degree)
        action = h * _ActionAssembler(L, degree, q1jet, h).action(coeffs)
    elif method == "shooting":
        jet, S = shooting_bvp(L, q1jet, q2jet, h, return_substeps=True)
        _, action = integrate_el(L, jet, h, S, with_action=True)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not math.isfinite(action):
        raise OverflowError(f"{method} action is not finite: {action}")
    return action
