"""The implicit two-point recursion of a discrete Lagrangian and its solvers.

``step`` advances one node through the momentum-space step map of
:mod:`varint.momentum`, F+ o (F-)^{-1}; ``run`` iterates that map along a
grid, filling the path's (N+1, 2n) node array row by row.
``solve_boundary_path`` solves the whole-path two-point problem (both endpoint
states pinned) with a damped Newton on the stacked residual and a sparse
block-tridiagonal Jacobian, which stays well-behaved where the step recursion
would amplify errors exponentially.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .bvp import _hermite_coeffs, integrate_el
from .discretization import DiscreteLagrangian
from .errors import NoConvergence, SingularKKT
from .jets import DiscretePath, Grid, JetPoint, PairState, unpack
from .lagrangian import LagrangianModel
from .momentum import _step_map, fminus, fplus
from .newton import floors


def del_residual(Ld: DiscreteLagrangian, prev: JetPoint, cur: JetPoint,
                 nxt: JetPoint, h: float) -> np.ndarray:
    """Stationarity residual at the middle node: the momenta of the plus map
    of (prev, cur) less those of the minus map of (cur, nxt).

    Zero iff (D3 + D1, D4 + D2) vanish across the two adjacent pairs, which
    is the condition for the summed action to be stationary at ``cur``.
    """
    a = fplus(Ld, PairState(prev, cur, h)).as_array()
    b = fminus(Ld, PairState(cur, nxt, h)).as_array()
    return a[a.size // 2:] - b[b.size // 2:]


def step(Ld: DiscreteLagrangian, prev: JetPoint, cur: JetPoint, h: float) -> JetPoint:
    """Next node of the recursion: the discrete flow (F-)^{-1} o F+.

    The plus map of the pair (prev, cur) gives the momenta at ``cur``; the
    momentum-space step map inverts the minus map from them, starting from
    the linear extrapolation of (prev, cur).  Solvability is the regularity
    of the cross-derivative block matrix of the forward pair.
    """
    x = fplus(Ld, PairState(prev, cur, h)).as_array()
    y = _step_map(Ld, x, h, 2.0 * cur.as_array() - prev.as_array())[0]
    return JetPoint.from_array(y[:2 * cur.dim], 1, cur.dim)


def phi_values(path: DiscretePath) -> np.ndarray:
    """Per-step values of (q_{k+1} - q_k)/h - (v_k + v_{k+1})/2.

    Both cubic-spline schemes conserve this quantity exactly; it is recorded
    for every path as a structure diagnostic.
    """
    q, v = path.positions(), path.velocities()
    return (q[1:] - q[:-1]) / path.grid.h - 0.5 * (v[:-1] + v[1:])


def run(Ld: DiscreteLagrangian, x0: JetPoint, x1: JetPoint,
        grid: Grid) -> DiscretePath:
    """Iterate the momentum-space step map on the flat (q, v, p, pt) state
    from two seed states along the grid.

    Initial guesses extrapolate linearly.  Failures carry the step index.
    Diagnostics record every interior residual norm (the carried plus map
    plus the (D1, D2) of the solved pair) and the per-step conserved-quantity
    samples.
    """
    x = fplus(Ld, PairState(x0, x1, grid.h)).as_array()
    m = 2 * x0.dim
    X, R = np.empty((grid.N + 1, m)), np.empty((grid.N - 1, m))
    X[0], X[1] = x0.as_array(), x1.as_array()
    for k in range(1, grid.N):
        try:
            y, D = _step_map(Ld, x, grid.h, 2.0 * X[k] - X[k - 1])
        except NoConvergence as exc:
            exc.step_index = k
            raise
        R[k - 1], X[k + 1], x = x[m:] + D[:m], y[:m], y
    return _with_diagnostics(grid, X, R)


def initial_pair(L: LagrangianModel, jet3: JetPoint, h: float):
    """Seed states (x0, x1) for :func:`run` from one initial order-3 jet.

    x1 comes from one step of the continuous flow, so seeded runs start on
    the trajectory the scheme approximates.
    """
    out = integrate_el(L, jet3, h, 16)
    return JetPoint(jet3.q, (jet3.deriv(1),)), JetPoint(out.q, (out.deriv(1),))


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


def _pairs_of(nodes, h):
    """The pair states of consecutive rows of the (N+1, 2n) ``nodes``, one
    at a time; pair i is row i of one read-only packed array, and knows it,
    so a scheme can evaluate each sweep over the pairs once, on the array."""
    n = nodes.shape[1] // 2
    X = np.hstack([nodes[:-1], nodes[1:]])
    X.setflags(write=False)
    memo = {}
    for i, x in enumerate(X):
        s = unpack(x, 2, n, h)
        object.__setattr__(s, "_sweep", (X, i, memo))
        yield s


def _path_residual(Ld, pairs):
    D = np.array([Ld.partials(p) for p in pairs])
    m = D.shape[1] // 2
    return D[:-1, m:] + D[1:, :m]


def _path_scale(Ld, pairs):
    return max(Ld.residual_scale(p) for p in pairs)


def _path_jacobian(Ld, pairs):
    """Block-tridiagonal Hessian of the summed action in the interior states.

    Block row r stores its (2n, 2n) blocks r - 1, r and r + 1 that exist,
    zeros included; ``blocks`` holds every row's (lower, diagonal, upper)
    entries in CSR order.
    """
    N, m = len(pairs), 2 * pairs[0].n
    DD = np.array([Ld.second_partials(p) for p in pairs])
    blocks = np.zeros((N - 1, m, 3, m))
    blocks[1:, :, 0] = DD[1:-1, m:, :m]
    blocks[:, :, 1] = DD[:-1, m:, m:] + DD[1:, :m, :m]
    blocks[:-1, :, 2] = DD[1:-1, :m, m:]
    bcol = np.arange(N - 1)[:, None, None, None] + np.arange(-1, 2)[:, None]
    stored = np.broadcast_to((bcol >= 0) & (bcol < N - 1), blocks.shape)
    cols = np.broadcast_to(bcol * m + np.arange(m), blocks.shape)[stored]
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=(2, 3)).reshape(-1))])
    size = (N - 1) * m
    return sps.csr_matrix((blocks[stored], cols, indptr), shape=(size, size))


def _linear_solve(J, R, lam):
    """The solution d of (J + lam I) d = -R, or None where it is not finite.

    SuperLU answers a singular matrix with a MatrixRankWarning and NaN: the
    warning stays here and the NaN decides, since warning filters are shared
    by every thread.  An internal SuperLU abort raises RuntimeError.
    """
    if lam > 0.0:
        J = J + lam * sps.identity(J.shape[0], format="csr")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            d = spla.spsolve(J, -R)
    except RuntimeError:
        return None
    return d if np.all(np.isfinite(d)) else None


def _path_action(Ld, pairs):
    return float(sum(Ld.value(p) for p in pairs))


def _newton_path(Ld, x0, xN, grid, interior, tol, max_iter):
    """Damped Newton on the stacked stationarity residual.

    The residual is the gradient of the summed discrete action in the
    interior states, so globalization works on the action itself: full Newton
    steps when they halve the residual without raising the action, otherwise
    an Armijo search on the action along the Newton direction, Levenberg-
    regularized when the plain direction is not a descent direction.  A
    failed search, or a step that leaves every node where it was, ends the
    solve, accepted only at the loose floor.  Every point's pair states are
    built once, as the rows of one packed array, and serve all its sweeps,
    and a trial point's residual is evaluated only once its action has
    passed.  Returns the (N+1, 2n) nodes, the residual (one
    row per interior node) and the action there, and the iteration count.
    """
    n = x0.dim
    N = grid.N
    h = grid.h

    def moved(X, d):
        # the nodes X with their interior rows moved by the flat step d
        Xt = X.copy()
        Xt[1:-1] += d.reshape(N - 1, 2 * n)
        return Xt, list(_pairs_of(Xt, h))

    X = np.vstack([x0.as_array(), interior, xN.as_array()])
    P = list(_pairs_of(X, h))
    tight, loose = floors(tol, _path_scale(Ld, P))
    R = _path_residual(Ld, P).reshape(-1)
    A = _path_action(Ld, P)
    lam = 0.0
    message = "path Newton did not reach tolerance"
    for it in range(max_iter):
        rnorm = np.max(np.abs(R))
        if rnorm <= tight:
            return X, R.reshape(N - 1, 2 * n), A, it
        # drop the last iterate's Jacobian first: two would set the memory peak
        J = None
        J = _path_jacobian(Ld, P)
        trial = None
        # fast path: an undamped step that halves the residual is always taken,
        # restoring quadratic convergence near the solution
        newton = _linear_solve(J, R, 0.0)
        if newton is not None:
            Xt, Pt = moved(X, newton)
            At = _path_action(Ld, Pt)
            Rt = None
            # the action must not climb and the residual must halve, so the
            # fast path cannot hop to a worse stationary branch
            # mid-globalization
            if At <= A + 1e-10 * (1.0 + abs(A)):
                Rt = _path_residual(Ld, Pt).reshape(-1)
                if np.linalg.norm(Rt) <= 0.5 * np.linalg.norm(R):
                    X, P, R, A = Xt, Pt, Rt, At
                    lam = lam / 4.0
                    continue
            # the line search's first point when its direction is this step
            trial = Xt, Pt, At, Rt
        delta, lam_try = None, lam
        for _ in range(60):
            cand = newton if lam_try == 0.0 else _linear_solve(J, R, lam_try)
            if cand is not None and cand @ R < 0.0:
                delta = cand
                break
            lam_try = 1e-6 if lam_try == 0.0 else 4.0 * lam_try
        if delta is None:
            raise SingularKKT("stacked Newton system is singular")
        slope = float(delta @ R)
        alpha = 1.0
        if delta is not newton:
            trial = None
        for _ in range(50):
            if trial is not None:
                Xt, Pt, At, Rt = trial
                trial = None
            else:
                Xt, Pt = moved(X, alpha * delta)
                At, Rt = _path_action(Ld, Pt), None
            if At <= A + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            Xt = X
        # a failed search, or an accepted step too small to change any node
        # (the damping may still change), has stopped the level
        if np.array_equal(Xt, X):
            message = "path Newton stalled"
            break
        if Rt is None:
            Rt = _path_residual(Ld, Pt).reshape(-1)
        X, P, R, A = Xt, Pt, Rt, At
        lam = lam_try / 3.0 if alpha >= 0.5 else min(max(lam_try, 1e-6) * 2.0, 1e8)
    else:
        it = max_iter
    # the sensitivity scale moves with the iterate (penalty bands in
    # particular), so refresh the loose floor before giving up
    loose = max(loose, floors(tol, _path_scale(Ld, P))[1])
    rnorm = np.max(np.abs(R))
    if rnorm <= loose:
        return X, R.reshape(N - 1, 2 * n), A, it
    raise NoConvergence(message, iterations=it, residual_norm=rnorm)


def _refine_interior(nodes, coarse_grid, fine_grid):
    """Fine-grid interior nodes, interpolated linearly from the coarse nodes."""
    tnew = fine_grid.times[1:-1]
    return np.column_stack([np.interp(tnew, coarse_grid.times, c) for c in nodes.T])


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
    sparse).  Fine grids are reached by solving a coarsened grid first, from
    the cubic interpolant of the boundary data, and refining by
    interpolation, which keeps the expensive levels warm-started; a caller's
    ``guess`` for the interior nodes, a finite (N - 1, 2n) array, is the
    one level of its own continuation.  The path's diagnostics list the
    Newton iterations of each level (``newton_iterations``), coarsest
    first, and hold the summed discrete action of the solved path
    (``action``).
    """
    N = grid.N
    if N < 2:
        raise ValueError("boundary solve needs at least N = 2 steps")
    if x0.order != 1 or xN.order != 1 or x0.dim != xN.dim:
        raise ValueError(f"expected endpoint jets of order 1 and one dimension, got orders "
                         f"{x0.order} and {xN.order}, dimensions {x0.dim} and {xN.dim}")
    if guess is not None:
        guess, shape = np.asarray(guess, dtype=float), (N - 1, 2 * x0.dim)
        if guess.shape != shape:
            raise ValueError(f"guess must have shape (N - 1, 2n) = {shape}, got {guess.shape}")
        if not np.isfinite(guess).all():
            raise ValueError(f"guess of shape (N - 1, 2n) = {shape} must be finite")
    X, prev, iterations = None, None, []
    for Nc in _continuation_levels(N) if guess is None else [N]:
        g = grid if Nc == N else Grid(grid.t0, grid.h * N / Nc, Nc)
        start = (guess if guess is not None
                 else _hermite_path(x0, xN, g) if X is None
                 else _refine_interior(X, prev, g))
        X, R, A, it = _newton_path(Ld, x0, xN, g, start, tol, max_iter)
        iterations.append(it)
        prev = g
    return _with_diagnostics(grid, X, R, newton_iterations=iterations, action=A)


def _with_diagnostics(grid, nodes, residual, **extra):
    """The path that takes over ``nodes``, with per-node DEL residual norms
    (of the (N - 1, 2n) ``residual``), phi samples and ``extra`` diagnostics."""
    nodes.setflags(write=False)
    path = DiscretePath(grid, nodes)
    path.diagnostics.update(del_residual=np.max(np.abs(residual), axis=1),
                            phi=phi_values(path), **extra)
    return path
