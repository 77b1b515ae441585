"""Discrete Lagrangians on pairs of tangent-space points.

Every scheme here approximates the one-step action of a second-order
Lagrangian by evaluating it at jets that are affine images of the pair state
(q0, v0, q1, v1).  That structure makes the four block partials D1..D4 and
all second-derivative blocks exact chain-rule images of the continuous
gradient and Hessian.  The closed-form cubic-spline action is also provided
with hand-written partials.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .jets import PairState, pack, unpack
from .lagrangian import FD_STEP, LagrangianModel, _central_diff


class DiscreteLagrangian:
    """Scalar one-step action approximation with block partials.

    ``value`` maps a :class:`PairState` to a float.  ``partials`` returns the
    four covectors (D1, D2, D3, D4) with respect to (q0, v0, q1, v1), and
    ``second_partials`` the full symmetric (4n, 4n) second-derivative matrix.
    Subclasses either supply analytic derivatives or inherit the central
    finite-difference fallbacks on ``value``.
    """

    def __init__(self, name="discrete-lagrangian"):
        self.name = name

    def value(self, s: PairState) -> float:
        raise NotImplementedError

    def partials(self, s: PairState):
        n = s.n
        g = _central_diff(lambda X: [self.value(unpack(x, 2, n, s.h)) for x in X],
                          pack(s))
        return g[:n], g[n:2 * n], g[2 * n:3 * n], g[3 * n:]

    def second_partials(self, s: PairState) -> np.ndarray:
        n = s.n
        J = _central_diff(lambda X: [np.concatenate(self.partials(unpack(x, 2, n, s.h)))
                                     for x in X], pack(s))
        return 0.5 * (J + J.T)

    def residual_scale(self, s: PairState) -> float:
        """Sensitivity of stationarity residuals to last-place state error.

        The residuals cancel partials against each other, so they cannot be
        driven below roundoff at this scale: the second-derivative norm times
        the state magnitude, plus difference noise when the partials
        themselves come from finite differences.
        """
        x = max(1.0, float(np.max(np.abs(pack(s)))))
        dd = float(np.linalg.norm(self.second_partials(s), np.inf))
        return dd * x + self._fd_noise_scale(s)

    def _fd_noise_scale(self, s: PairState) -> float:
        return max(1.0, abs(self.value(s))) / FD_STEP


class _AffineJetScheme(DiscreteLagrangian):
    """Weighted sum of L evaluated at affine images of the pair state.

    ``terms(h)`` yields (weight, C) with C a (3, 4) coefficient matrix; the
    evaluation jet is kron(C, I_n) @ (q0, v0, q1, v1), passed to the model's
    flat-jet calls as it is.
    """

    def __init__(self, L: LagrangianModel, terms, name):
        super().__init__(name)
        self.L = L
        self._terms = terms
        self._calls = {"value": (L.value, L.value_stack), "partials": (L.grad, L.grad_stack),
                       "second_partials": (L.hess, L.hess_stack)}
        self._cache_h = None
        self._cache = None

    def _maps(self, h, n):
        if self._cache_h != (h, n):
            self._cache = [(w, np.kron(C, np.eye(n))) for w, C in self._terms(h)]
            self._cache_h = (h, n)
        return self._cache

    # A pair of a path sweep is answered from one evaluation of all the
    # sweep's pairs, kept in the sweep's memo until as many calls as pairs
    # have taken their rows, so it is not held through the solves between
    # sweeps; a second sweep over the same pairs evaluates again.  Any other
    # pair is evaluated on its own, by the same sum with the same bits:
    # np.matvec maps each row of a stack as it maps one vector (X @ P.T and
    # einsum differ in the last bit), and the model's stacks equal its
    # pointwise calls.

    def _swept(self, s: PairState, kind):
        if s._sweep is None:
            return None
        X, i, memo = s._sweep
        entry = memo.get((self, kind))
        if entry is None:
            entry = memo[self, kind] = [self._sum(kind, X, s.h, s.n), len(X)]
            entry[0].setflags(write=False)
        entry[1] -= 1
        if not entry[1]:
            del memo[self, kind]
        return entry[0][i]

    def _sum(self, kind, x, h, n):
        """The terms of ``kind`` at one packed pair ``x`` (4n,), by the
        model's pointwise call, or at each row of a sweep's pair array
        (N, 4n), by its stack, added up from 0 in term order."""
        f = self._calls[kind][x.ndim - 1]
        out = 0
        for w, P in self._maps(h, n):
            F = f(np.matvec(P, x))
            if kind == "partials":
                F = np.matvec(P.T, F)
            elif kind == "second_partials":
                F = P.T @ F @ P
            out += w * F
        return out

    def value(self, s: PairState) -> float:
        v = self._swept(s, "value")
        return float(self._sum("value", pack(s), s.h, s.n) if v is None else v)

    def partials(self, s: PairState):
        n, g = s.n, self._swept(s, "partials")
        if g is None:
            g = self._sum("partials", pack(s), s.h, n)
        return g[:n], g[n:2 * n], g[2 * n:3 * n], g[3 * n:]

    def second_partials(self, s: PairState) -> np.ndarray:
        """The (4n, 4n) matrix; read-only for a pair of a path sweep."""
        H = self._swept(s, "second_partials")
        return self._sum("second_partials", pack(s), s.h, s.n) if H is None else H

    def _fd_noise_scale(self, s: PairState) -> float:
        return 0.0 if self.L.analytic_grad else super()._fd_noise_scale(s)


def taylor_average(L: LagrangianModel, midpoint_averages: bool = False) -> DiscreteLagrangian:
    """Average of L at the two endpoints with Taylor-recovered accelerations.

    Accelerations a0 = (2/h^2)(q1 - q0 - h v0) and a1 = (2/h^2)(q0 - q1 + h v1)
    come from truncated expansions of the connecting trajectory.  With
    ``midpoint_averages`` the position and velocity arguments become the
    midpoint averages instead of the endpoint values.
    """

    def terms(h):
        r = 2.0 / h**2
        if midpoint_averages:
            pos0 = pos1 = [0.5, 0.0, 0.5, 0.0]
            vel0 = vel1 = [0.0, 0.5, 0.0, 0.5]
        else:
            pos0, vel0 = [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]
            pos1, vel1 = [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]
        a0 = [-r, -r * h, r, 0.0]
        a1 = [r, 0.0, -r, r * h]
        yield h / 2.0, np.array([pos0, vel0, a0])
        yield h / 2.0, np.array([pos1, vel1, a1])

    name = "taylor-midpoint" if midpoint_averages else "taylor"
    return _AffineJetScheme(L, terms, name)


def midpoint_difference(L: LagrangianModel) -> DiscreteLagrangian:
    """h * L at the midpoint with difference-quotient velocity and acceleration."""

    def terms(h):
        yield h, np.array([[0.5, 0.0, 0.5, 0.0],
                           [-1.0 / h, 0.0, 1.0 / h, 0.0],
                           [0.0, -1.0 / h, 0.0, 1.0 / h]])

    return _AffineJetScheme(L, terms, "midpoint-difference")


def trapezoid_velocity(L: LagrangianModel, include_h_factor: bool = True) -> DiscreteLagrangian:
    """Equal-weight endpoint average with difference-quotient acceleration.

    The acceleration argument is (v1 - v0)/h at both evaluation points.  The
    plain 1/2, 1/2 weighting does not scale like a quadrature of the action,
    so a factor h is included by default; pass ``include_h_factor=False`` for
    the literal unscaled average.
    """

    def terms(h):
        w = h / 2.0 if include_h_factor else 0.5
        acc = [0.0, -1.0 / h, 0.0, 1.0 / h]
        yield w, np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], acc])
        yield w, np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], acc])

    return _AffineJetScheme(L, terms, "trapezoid-velocity")


class _SplineExact(DiscreteLagrangian):
    """Closed-form one-step action of L = 1/2 |qddot|^2 along the connecting cubic.

    Componentwise: 6/h^3 (q0-q1)^2 + 6/h^2 (q0-q1)(v0+v1) + 2/h (v0^2+v0 v1+v1^2),
    summed over dimensions.  Partials and second partials are hand-written.
    """

    def __init__(self):
        super().__init__("spline-exact")
        self._cache_h = None
        self._cache = None

    def value(self, s: PairState) -> float:
        h = s.h
        q0, v0, q1, v1 = pack(s).reshape(4, s.n)
        d = q0 - q1
        return float(np.sum(6.0 / h**3 * d * d + 6.0 / h**2 * d * (v0 + v1)
                            + 2.0 / h * (v0 * v0 + v0 * v1 + v1 * v1)))

    def partials(self, s: PairState):
        h = s.h
        q0, v0, q1, v1 = pack(s).reshape(4, s.n)
        d = q0 - q1
        sv = v0 + v1
        D1 = 12.0 / h**3 * d + 6.0 / h**2 * sv
        D2 = 6.0 / h**2 * d + 2.0 / h * (2.0 * v0 + v1)
        D3 = -D1
        D4 = 6.0 / h**2 * d + 2.0 / h * (v0 + 2.0 * v1)
        return D1, D2, D3, D4

    def second_partials(self, s: PairState) -> np.ndarray:
        """The constant matrix of step h, read-only (it is shared)."""
        h, n = s.h, s.n
        if self._cache_h != (h, n):
            qq, qv, vv2, vv1 = 12.0 / h**3, 6.0 / h**2, 4.0 / h, 2.0 / h
            C = np.array([[qq, qv, -qq, qv],
                          [qv, vv2, -qv, vv1],
                          [-qq, -qv, qq, -qv],
                          [qv, vv1, -qv, vv2]])
            self._cache = np.kron(C, np.eye(n))
            self._cache.setflags(write=False)
            self._cache_h = (h, n)
        return self._cache

    def _fd_noise_scale(self, s: PairState) -> float:
        return 0.0


def spline_exact() -> DiscreteLagrangian:
    """Exact discrete action for the cubic-spline Lagrangian, any dimension."""
    return _SplineExact()


def _spline_exact_of(L: LagrangianModel) -> DiscreteLagrangian:
    """spline-exact is the exact action of L = 1/2 |qddot|^2 whatever L it
    gets, so it refuses a model whose sympy expression is not that one."""
    data = L.sympy_data if L.order == 2 else None
    if data is None or sp.expand(data[0] - sum(a**2 for a in data[3]) / 2) != 0:
        raise ValueError(f"spline-exact discretizes only L = 1/2 |qddot|^2, not {L.name}")
    return spline_exact()


#: Scheme constructors by the names :func:`make_scheme` and the CLI accept.
SCHEMES = {
    "taylor": taylor_average,
    "taylor-midpoint": lambda L: taylor_average(L, midpoint_averages=True),
    "midpoint-difference": midpoint_difference,
    "trapezoid-velocity": trapezoid_velocity,
    "spline-exact": _spline_exact_of,
}


def make_scheme(name: str, L: LagrangianModel) -> DiscreteLagrangian:
    """Scheme registry used by the solvers and the CLI: KeyError for an
    unknown name, ValueError for a scheme that cannot discretize ``L``."""
    if name not in SCHEMES:
        raise KeyError(f"unknown scheme {name!r}; known: {sorted(SCHEMES)}")
    return SCHEMES[name](L)
