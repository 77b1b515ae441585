"""The implicit two-point recursion of a discrete Lagrangian and its solvers.

``step`` advances one node through the momentum maps, (F-)^{-1} o F+, so its
solve is the minus-map inversion of :mod:`varint.momentum`; ``run`` iterates
it along a grid.  ``solve_boundary_path`` solves the whole-path two-point
problem (both endpoint states pinned) with a damped Newton on the stacked
residual and a sparse block-tridiagonal Jacobian, which stays well-behaved
where the step recursion would amplify errors exponentially.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .bvp import _hermite_coeffs, integrate_el
from .discretization import DiscreteLagrangian
from .errors import NoConvergence, SingularKKT
from .jets import DiscretePath, Grid, JetPoint, PairState
from .lagrangian import LagrangianModel
from .momentum import fminus_inverse, fplus


def _state(q, v) -> JetPoint:
    return JetPoint(q, (v,))


def del_residual(Ld: DiscreteLagrangian, prev: JetPoint, cur: JetPoint,
                 nxt: JetPoint, h: float) -> np.ndarray:
    """Stacked stationarity residual at the middle node.

    Zero iff (D3 + D1, D4 + D2) vanish across the two adjacent pairs, which
    is the condition for the summed action to be stationary at ``cur``.
    """
    return _path_residual(Ld, [prev, cur, nxt], h)[0]


def step(Ld: DiscreteLagrangian, prev: JetPoint, cur: JetPoint, h: float) -> JetPoint:
    """Next node of the recursion: the discrete flow (F-)^{-1} o F+.

    The plus map of the pair (prev, cur) gives the momenta at ``cur``; the
    minus map is inverted from them, starting from the linear extrapolation
    of (prev, cur).  Solvability is the regularity of the cross-derivative
    block matrix of the forward pair.
    """
    guess = _state(2.0 * cur.q - prev.q, 2.0 * cur.deriv(1) - prev.deriv(1))
    return fminus_inverse(Ld, fplus(Ld, PairState(prev, cur, h)), h,
                          guess=guess).right


def phi_values(path: DiscretePath) -> np.ndarray:
    """Per-step values of (q_{k+1} - q_k)/h - (v_k + v_{k+1})/2.

    Both cubic-spline schemes conserve this quantity exactly; it is recorded
    for every path as a structure diagnostic.
    """
    h = path.grid.h
    q = path.positions()
    v = path.velocities()
    return (q[1:] - q[:-1]) / h - 0.5 * (v[:-1] + v[1:])


def run(Ld: DiscreteLagrangian, x0: JetPoint, x1: JetPoint,
        grid: Grid) -> DiscretePath:
    """Iterate the one-step solve from two seed states along the grid.

    Initial guesses extrapolate linearly.  Failures carry the step index.
    Diagnostics record every interior residual norm and the per-step
    conserved-quantity samples.
    """
    h = grid.h
    states = [x0, x1]
    for k in range(1, grid.N):
        try:
            states.append(step(Ld, states[k - 1], states[k], h))
        except NoConvergence as exc:
            exc.step_index = k
            raise
    return _with_diagnostics(Ld, grid, states)


def initial_pair(L: LagrangianModel, jet3: JetPoint, h: float):
    """Seed states (x0, x1) for :func:`run` from one initial order-3 jet.

    x1 comes from one step of the continuous flow, so seeded runs start on
    the trajectory the scheme approximates.
    """
    out = integrate_el(L, jet3, h, 16)
    x0 = _state(jet3.q, jet3.deriv(1))
    x1 = _state(out.q, out.deriv(1))
    return x0, x1


def _hermite_path(x0: JetPoint, xN: JetPoint, grid: Grid) -> np.ndarray:
    """Cubic interpolant of the boundary data sampled at interior nodes."""
    T = grid.h * grid.N
    q0, v0 = x0.q, x0.deriv(1)
    c2, c3 = _hermite_coeffs(x0, xN, T)
    out = np.empty((grid.N - 1, 2 * x0.dim))
    for k in range(1, grid.N):
        t = k * grid.h
        out[k - 1, :x0.dim] = q0 + t * v0 + t * t * c2 + t**3 * c3
        out[k - 1, x0.dim:] = v0 + 2.0 * t * c2 + 3.0 * t * t * c3
    return out


def _path_residual(Ld, states, h):
    n = states[0].dim
    N = len(states) - 1
    parts = [Ld.partials(PairState(states[k], states[k + 1], h)) for k in range(N)]
    R = np.empty((N - 1, 2 * n))
    for k in range(1, N):
        D1b, D2b, _, _ = parts[k]
        _, _, D3a, D4a = parts[k - 1]
        R[k - 1] = np.concatenate([D3a + D1b, D4a + D2b])
    return R


def _path_scale(Ld, states, h):
    return max(Ld.residual_scale(PairState(states[k], states[k + 1], h))
               for k in range(len(states) - 1))


def _path_jacobian(Ld, states, h):
    n = states[0].dim
    N = len(states) - 1
    DD = [Ld.second_partials(PairState(states[k], states[k + 1], h)) for k in range(N)]
    rows, cols, vals = [], [], []

    def put(i, j, block):
        r0, c0 = i * 2 * n, j * 2 * n
        br, bc = np.nonzero(np.ones_like(block))
        rows.append(r0 + br)
        cols.append(c0 + bc)
        vals.append(block.reshape(-1))

    for k in range(1, N):
        A, B = DD[k - 1], DD[k]
        diag = A[2 * n:, 2 * n:] + B[:2 * n, :2 * n]
        put(k - 1, k - 1, diag)
        if k > 1:
            put(k - 1, k - 2, A[2 * n:, :2 * n])
        if k < N - 1:
            put(k - 1, k, B[:2 * n, 2 * n:])
    size = (N - 1) * 2 * n
    return sps.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(size, size))


def _path_action(Ld, states, h):
    return float(sum(Ld.value(PairState(states[k], states[k + 1], h))
                     for k in range(len(states) - 1)))


def _newton_path(Ld, x0, xN, grid, interior, tol, max_iter):
    """Damped Newton on the stacked stationarity residual.

    The residual is the gradient of the summed discrete action in the
    interior states, so globalization works on the action itself: full Newton
    steps when they halve the residual without raising the action, otherwise
    an Armijo search on the action along the Newton direction, Levenberg-
    regularized when the plain direction is not a descent direction.  A
    failed search ends the solve, accepted only at the loose floor.
    """
    n = x0.dim
    N = grid.N
    h = grid.h
    eps = np.finfo(float).eps

    def to_states(U):
        states = [x0]
        for k in range(N - 1):
            states.append(_state(U[k, :n], U[k, n:]))
        states.append(xN)
        return states

    U = interior.copy()
    st = to_states(U)
    scale0 = _path_scale(Ld, st, h)
    tight = max(tol, 2.0 * eps * scale0)
    loose = max(tol, 64.0 * eps * scale0)
    R = _path_residual(Ld, st, h).reshape(-1)
    rnorm = np.max(np.abs(R))
    A = _path_action(Ld, st, h)
    lam = 0.0
    eye = sps.identity((N - 1) * 2 * n, format="csr")
    for it in range(max_iter):
        if rnorm <= tight:
            return U, rnorm, it
        J = _path_jacobian(Ld, to_states(U), h)
        # fast path: an undamped step that halves the residual is always taken,
        # restoring quadratic convergence near the solution
        try:
            newton = spla.spsolve(J, -R)
        except RuntimeError:
            newton = None
        if newton is not None and np.all(np.isfinite(newton)):
            Ut = U + newton.reshape(N - 1, 2 * n)
            stt = to_states(Ut)
            Rt = _path_residual(Ld, stt, h).reshape(-1)
            At = _path_action(Ld, stt, h)
            # residual must halve and the action must not climb, so the fast
            # path cannot hop to a worse stationary branch mid-globalization
            if (np.linalg.norm(Rt) <= 0.5 * np.linalg.norm(R)
                    and At <= A + 1e-10 * (1.0 + abs(A))):
                U, R, A = Ut, Rt, At
                rnorm = np.max(np.abs(R))
                lam = lam / 4.0
                continue
        delta, lam_try = None, lam
        for _ in range(60):
            M = J + lam_try * eye if lam_try > 0.0 else J
            try:
                cand = newton if lam_try == 0.0 else spla.spsolve(M, -R)
            except RuntimeError:
                cand = None
            if cand is not None and np.all(np.isfinite(cand)) and cand @ R < 0.0:
                delta = cand
                break
            lam_try = 1e-6 if lam_try == 0.0 else 4.0 * lam_try
        if delta is None:
            raise SingularKKT("stacked Newton system is singular")
        slope = float(delta @ R)
        alpha = 1.0
        for _ in range(50):
            Ut = U + alpha * delta.reshape(N - 1, 2 * n)
            stt = to_states(Ut)
            At = _path_action(Ld, stt, h)
            if At <= A + 1e-4 * alpha * slope:
                Rt = _path_residual(Ld, stt, h).reshape(-1)
                U, R, A = Ut, Rt, At
                rnorm = np.max(np.abs(R))
                break
            alpha *= 0.5
        else:
            # the sensitivity scale moves with the iterate (penalty bands in
            # particular), so refresh the floor before giving up
            loose = max(loose, 64.0 * eps * _path_scale(Ld, to_states(U), h))
            if rnorm <= loose:
                return U, rnorm, it
            raise NoConvergence("path Newton stalled", iterations=it,
                                residual_norm=rnorm)
        lam = lam_try / 3.0 if alpha >= 0.5 else min(max(lam_try, 1e-6) * 2.0, 1e8)
    loose = max(loose, 64.0 * eps * _path_scale(Ld, to_states(U), h))
    if rnorm <= loose:
        return U, rnorm, max_iter
    raise NoConvergence("path Newton did not reach tolerance",
                        iterations=max_iter, residual_norm=rnorm)


def _refine_interior(U, x0, xN, coarse_grid, fine_grid):
    n = x0.dim
    told = coarse_grid.times
    tnew = fine_grid.times[1:-1]
    full = np.vstack([np.concatenate([x0.q, x0.deriv(1)]), U,
                      np.concatenate([xN.q, xN.deriv(1)])])
    return np.column_stack([np.interp(tnew, told, full[:, j])
                            for j in range(2 * n)])


def _continuation_levels(N):
    levels = [N]
    while levels[0] > 32 and levels[0] % 2 == 0:
        levels.insert(0, levels[0] // 2)
    return levels


def solve_boundary_path(Ld: DiscreteLagrangian, x0: JetPoint, xN: JetPoint,
                        grid: Grid, guess: np.ndarray = None, tol: float = 1e-10,
                        max_iter: int = 80) -> DiscretePath:
    """Two-point solve with both endpoint states pinned.

    Unknowns are the N-1 interior states; the residual stacks the node
    stationarity conditions and the Jacobian is block tridiagonal (assembled
    sparse).  The initial guess is the cubic interpolant of the boundary
    data.  Fine grids are reached by solving a coarsened grid first and
    refining by interpolation, which keeps the expensive levels warm-started.
    """
    N = grid.N
    if N < 2:
        raise ValueError("boundary solve needs at least N = 2 steps")
    if guess is not None:
        U, _, _ = _newton_path(Ld, x0, xN, grid, np.asarray(guess, dtype=float),
                               tol, max_iter)
    else:
        U, prev = None, None
        for Nc in _continuation_levels(N):
            g = grid if Nc == N else Grid(grid.t0, grid.h * N / Nc, Nc)
            start = (_hermite_path(x0, xN, g) if U is None
                     else _refine_interior(U, x0, xN, prev, g))
            U, _, _ = _newton_path(Ld, x0, xN, g, start, tol, max_iter)
            prev = g

    states = [x0] + [_state(u[:x0.dim], u[x0.dim:]) for u in U] + [xN]
    return _with_diagnostics(Ld, grid, states)


def _with_diagnostics(Ld, grid, states):
    """The path with its per-node DEL residual norms and phi samples."""
    path = DiscretePath(grid, tuple(states))
    per_node = np.max(np.abs(_path_residual(Ld, states, grid.h)), axis=1)
    diags = {"del_residual": per_node, "phi": phi_values(path)}
    return DiscretePath(grid, tuple(states), diags)
