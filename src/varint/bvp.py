"""Two-point boundary solvers for the one-step action of second-order systems.

Two independent routes compute the action along the trajectory connecting two
tangent-space endpoints over a step h:

* a regularized spectral solver: the top derivative curve is expanded in an
  orthonormal polynomial basis on [0, 1], the endpoint data pin its first k
  coefficients, and Newton drives the projected action gradient to zero;
* a shooting solver: Newton on the unknown initial acceleration and jerk,
  integrating the explicit fourth-order equation of motion with classical
  Runge-Kutta substeps.

Each serves as an oracle for the other.  The reparameterized curves live on
u in [0, 1]; lower-order curves are recovered from the top derivative by the
iterated-integral formula implemented in :func:`reconstruct`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Legendre, Polynomial

from .errors import SingularHessian
from .jets import JetPoint
from .lagrangian import FD_STEP, LagrangianModel, fourth_order_rhs_raw
from .newton import newton


# -- orthonormal bases on [0, 1] ------------------------------------------------

def gauss_legendre_01(count: int):
    """``count`` Gauss nodes and weights for integrals over [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(count))
    return (x + 1.0) / 2.0, w / 2.0


def _monomial01(deg: int) -> Legendre:
    c = np.zeros(deg + 1)
    c[deg] = 1.0
    return Legendre.cast(Polynomial(c), domain=[0.0, 1.0])


def _inner(p: Legendre, q: Legendre) -> float:
    return float((p * q).integ(lbnd=0.0)(1.0))


def shifted_legendre_orthonormal(deg: int) -> Legendre:
    """Degree-``deg`` shifted Legendre polynomial, unit norm on [0, 1]."""
    c = np.zeros(deg + 1)
    c[deg] = math.sqrt(2 * deg + 1)
    return Legendre(c, domain=[0.0, 1.0])


@dataclass(frozen=True, eq=False)
class BasisPack:
    """Constraint polynomials a_j, an orthonormal b-basis, and the change matrix.

    a_j(s) = (1-s)^(k-j-1)/(k-j-1)! span polynomials of degree < k; the b_j
    are orthonormal for the L2 inner product on [0, 1], ordered by descending
    degree and signed positive at s = 0, so that for k = 2 they are
    b_0 = sqrt(3)(1-2s), b_1 = 1.  ``gamma[j, i]`` expands a_j = sum_i
    gamma[j, i] b_i.
    """

    k: int
    a: tuple
    b: tuple
    gamma: np.ndarray

    def extended(self, degree: int):
        """Basis list (b_0..b_{k-1}, then orthonormal shifted Legendre up to
        ``degree``); orthonormal as a whole since the b's span degree < k."""
        if degree < self.k - 1:
            raise ValueError(f"degree must be at least {self.k - 1}")
        return list(self.b) + [shifted_legendre_orthonormal(d)
                               for d in range(self.k, degree + 1)]


@lru_cache(maxsize=None)
def basis_gamma(k: int) -> BasisPack:
    """Build the order-k basis pack; Gram-Schmidt on monomials, then the
    degree-descending, positive-at-zero ordering used throughout."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gs = []
    for d in range(k):
        p = _monomial01(d)
        for b in gs:
            p = p - _inner(p, b) * b
        gs.append(p / math.sqrt(_inner(p, p)))
    b = tuple((1.0 if (k - 1 - j) % 2 == 0 else -1.0) * gs[k - 1 - j] for j in range(k))
    a = tuple(Legendre.cast(
        Polynomial([math.comb(k - j - 1, i) * (-1.0) ** i / math.factorial(k - j - 1)
                    for i in range(k - j)]), domain=[0.0, 1.0])
        for j in range(k))
    gamma = np.array([[_inner(a[j], b[i]) for i in range(k)] for j in range(k)])
    return BasisPack(k, a, b, gamma)


# -- endpoint data ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EndpointData:
    """Endpoint jets plus their scaled-difference form.

    ``z[j]`` is the integral constraint value forced on the top-derivative
    curve by the right endpoint; ``w`` is the same data expressed against the
    orthonormal basis, z = gamma @ w.
    """

    q1jet: JetPoint
    q2jet: JetPoint
    h: float
    z: np.ndarray
    w: np.ndarray


def endpoints_to_w(q1jet: JetPoint, q2jet: JetPoint, h: float) -> EndpointData:
    """Scaled endpoint-difference data for the regularized principle.

    z[j] = (q2^(j) - sum_{i<k-j} h^i/i! q1^(j+i)) / h^(k-j); the limit h = 0
    degenerates (every z would need the same constant curve) and is rejected.
    """
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if q1jet.order != q2jet.order or q1jet.dim != q2jet.dim:
        raise ValueError("endpoint jets must share order and dimension")
    k = q1jet.order + 1
    pack = basis_gamma(k)
    z = np.empty((k, q1jet.dim))
    for j in range(k):
        acc = np.zeros(q1jet.dim)
        for i in range(k - j):
            acc += h**i / math.factorial(i) * q1jet.deriv(j + i)
        z[j] = (q2jet.deriv(j) - acc) / h ** (k - j)
    w = np.linalg.solve(pack.gamma, z)
    return EndpointData(q1jet, q2jet, float(h), z, w)


def endpoint_from_w(q1jet: JetPoint, w, h: float) -> JetPoint:
    """Inverse of :func:`endpoints_to_w`: recover the right endpoint jet."""
    k = q1jet.order + 1
    pack = basis_gamma(k)
    z = pack.gamma @ np.asarray(w, dtype=float)
    out = []
    for j in range(k):
        acc = np.zeros(q1jet.dim)
        for i in range(k - j):
            acc += h**i / math.factorial(i) * q1jet.deriv(j + i)
        out.append(acc + h ** (k - j) * z[j])
    return JetPoint(out[0], tuple(out[1:]))


# -- polynomial curves -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VectorPolynomial:
    """An n-vector of polynomials on [0, 1]."""

    comps: tuple

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        vals = np.stack([np.asarray(c(u), dtype=float) for c in self.comps], axis=-1)
        return vals

    def deriv(self, m: int = 1) -> "VectorPolynomial":
        return VectorPolynomial(tuple(c.deriv(m) for c in self.comps))

    @property
    def n(self) -> int:
        return len(self.comps)


@dataclass(frozen=True, eq=False)
class PolyCurve:
    """Top-derivative curve in coefficient form against the extended basis.

    ``coeffs[i]`` is the n-vector coefficient of basis element i; the first k
    elements are the constraint basis, the rest orthonormal shifted Legendre
    polynomials, so the whole family is orthonormal on [0, 1].
    """

    coeffs: np.ndarray
    funcs: tuple
    k: int

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        if c.shape[0] != len(self.funcs):
            raise ValueError("coefficient rows must match the basis size")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "funcs", tuple(self.funcs))

    @property
    def degree(self) -> int:
        return len(self.funcs) - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        B = np.stack([np.asarray(f(u), dtype=float) for f in self.funcs], axis=-1)
        return B @ self.coeffs

    def component(self, a: int) -> Legendre:
        out = self.coeffs[0, a] * self.funcs[0]
        for i in range(1, len(self.funcs)):
            out = out + self.coeffs[i, a] * self.funcs[i]
        return out


def reconstruct(Qk: PolyCurve, q1jet: JetPoint, h: float, j: int) -> VectorPolynomial:
    """Order-j curve recovered from the top derivative by iterated integration.

    Q^(j)(u) = sum_{i<k-j} h^i u^i / i! q1^(j+i) + h^(k-j) * (k-j)-fold
    antiderivative of Q^(k) from 0, evaluated exactly on polynomials.
    """
    k = q1jet.order + 1
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must lie in [0, {k - 1}]")
    comps = []
    for a in range(q1jet.dim):
        taylor = Polynomial([h**i / math.factorial(i) * q1jet.deriv(j + i)[a]
                             for i in range(k - j)])
        poly = Legendre.cast(taylor, domain=[0.0, 1.0])
        poly = poly + h ** (k - j) * Qk.component(a).integ(k - j, lbnd=0.0)
        comps.append(poly)
    return VectorPolynomial(tuple(comps))


def project_tangent(gvec: np.ndarray, k: int = 2) -> np.ndarray:
    """Orthogonal projection onto the constraint tangent space.

    In orthonormal coefficients this zeroes the components along the first k
    basis elements; it is idempotent and leaves higher rows untouched.
    """
    out = np.array(gvec, dtype=float)
    out[:k] = 0.0
    return out


# -- quadrature-discretized action -------------------------------------------------

_TABLES = {}


def _basis_tables(funcs, count):
    """Gauss nodes and weights on [0, 1] with the basis values and first two
    antiderivatives from 0 at the nodes; memoized per basis and node count."""
    key = (tuple((f.coef.tobytes(), f.domain.tobytes(), f.window.tobytes())
                 for f in funcs), count)
    if key not in _TABLES:
        u, wq = gauss_legendre_01(count)
        B0 = np.array([[f(x) for f in funcs] for x in u])
        B1 = np.array([[f.integ(1, lbnd=0.0)(x) for f in funcs] for x in u])
        B2 = np.array([[f.integ(2, lbnd=0.0)(x) for f in funcs] for x in u])
        for arr in (u, wq, B0, B1, B2):
            arr.setflags(write=False)
        _TABLES[key] = (u, wq, B0, B1, B2)
    return _TABLES[key]


class _ActionAssembler:
    """Action, gradient, and Hessian of the reparameterized one-step action
    as functions of the top-derivative coefficients (second-order case)."""

    def __init__(self, L: LagrangianModel, funcs, q1jet: JetPoint, h: float):
        self.L = L
        self.h = float(h)
        self.q1 = q1jet.q
        self.v1 = q1jet.deriv(1)
        m = len(funcs) - 1
        pdeg = L.poly_degree if L.poly_degree is not None else 4
        count = math.ceil((2 * m + pdeg) / 2) + 4
        self.u, self.wq, self.B0, self.B1, self.B2 = _basis_tables(funcs, count)

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


def action_gradient(L: LagrangianModel, Qk: PolyCurve, q1jet: JetPoint,
                    h: float) -> np.ndarray:
    """Coefficient-space gradient of the reparameterized action at Qk.

    Returns one n-vector per basis element, matching the layout of
    ``Qk.coeffs``; it equals the finite-difference gradient of the quadrature
    action to quadrature accuracy.
    """
    asm = _ActionAssembler(L, Qk.funcs, q1jet, h)
    return asm.gradient(Qk.coeffs)


def _hermite_coeffs(a: JetPoint, b: JetPoint, T: float):
    """(c2, c3) of the cubic q(t) = q_a + t v_a + t^2 c2 + t^3 c3 that meets
    the jet ``b`` at t = T."""
    q0, v0 = a.q, a.deriv(1)
    q1, v1 = b.q, b.deriv(1)
    c2 = (3.0 * (q1 - q0) - T * (2.0 * v0 + v1)) / T**2
    c3 = (-2.0 * (q1 - q0) + T * (v0 + v1)) / T**3
    return c2, c3


def _solve_regularized(L, q1jet, q2jet, h, degree, max_iter):
    if q1jet.order != 1:
        raise ValueError("the regularized solver handles second-order models (order-1 jets)")
    k = 2
    if degree < k:
        raise ValueError(f"degree must be >= {k}")
    funcs = tuple(basis_gamma(k).extended(degree))
    ed = endpoints_to_w(q1jet, q2jet, h)
    n = L.n
    asm = _ActionAssembler(L, funcs, q1jet, h)

    def coeffs_of(z):
        # the first k coefficients are pinned to the endpoint data
        return np.vstack([ed.w, z.reshape(degree + 1 - k, n)])

    def residual(z):
        return asm.gradient(coeffs_of(z))[k:].reshape(-1)

    def jacobian(z, r):
        return asm.hessian(coeffs_of(z))[k * n:, k * n:]

    z, _ = newton(residual, jacobian, np.zeros((degree + 1 - k) * n), 1e-12,
                  1e-12, max_iter, SingularHessian, "regularized Newton")
    return PolyCurve(coeffs_of(z), funcs, k), asm


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
                      degree: int = 8, max_iter: int = 50) -> PolyCurve:
    """Top-derivative curve of the connecting trajectory by projected Newton.

    The first k coefficients are pinned to the endpoint data w; Newton (damped
    by a halving line search, warm-started from the connecting cubic, i.e.
    zero free coefficients) drives the remaining gradient components below
    1e-12.
    """
    _check_h(h)
    curve, _ = _solve_regularized(L, q1jet, q2jet, h, degree, max_iter)
    return curve


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
    _check_h(h)
    if method == "regularized":
        curve, asm = _solve_regularized(L, q1jet, q2jet, h, degree, 50)
        return h * asm.action(curve.coeffs)
    if method == "shooting":
        jet, S = shooting_bvp(L, q1jet, q2jet, h, return_substeps=True)
        _, action = integrate_el(L, jet, h, S, with_action=True)
        return action
    raise ValueError(f"unknown method {method!r}")
