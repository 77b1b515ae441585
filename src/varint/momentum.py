"""Momentum maps of discrete Lagrangians and structure diagnostics.

The two momentum maps send a pair state to the cotangent bundle over
velocity phase space: the minus map attaches (-D1, -D2) at the earlier
point, the plus map (D3, D4) at the later one, so that along the recursion
``fplus(s) == fminus(next pair)``; ``flow.del_residual`` is their
difference.  F+ o (F-)^{-1} is the momentum-space step map, implemented by
Newton inversion.
"""

from __future__ import annotations

import numpy as np

from .bvp import _rk4, _shoot, integrate_el, shooting_bvp
from .discretization import DiscreteLagrangian
from .errors import SingularWd
from .jets import JetPoint, PairState, pack, unpack
from .lagrangian import LagrangianModel, MomentaState, _central_diff, legendre
from .newton import floors, newton_one


def fplus(Ld: DiscreteLagrangian, s: PairState) -> MomentaState:
    """Momenta (D3, D4) attached at the later point (q1, v1) of the pair:
    the second halves of the covector and of the packed pair."""
    k = 2 * s.n
    return MomentaState.from_array(np.concatenate([pack(s)[k:], Ld.partials(s)[k:]]), s.n)


def fminus(Ld: DiscreteLagrangian, s: PairState) -> MomentaState:
    """Momenta (-D1, -D2) attached at the earlier point (q0, v0) of the
    pair: the first halves of the covector, negated, and of the packed pair."""
    k = 2 * s.n
    return MomentaState.from_array(np.concatenate([pack(s)[:k], -Ld.partials(s)[:k]]), s.n)


def Wd_matrix(Ld: DiscreteLagrangian, s: PairState) -> np.ndarray:
    """Cross-derivative block matrix [[D13, D14], [D23, D24]] at the pair."""
    n = s.n
    return Ld.second_partials(s)[:2 * n, 2 * n:]


def fminus_inverse(Ld: DiscreteLagrangian, m: MomentaState, h: float) -> PairState:
    """Pair state whose minus map equals ``m`` (left point is fixed by m).

    Newton (at most 50 steps) starts from the straight-line right point
    (q + h v, v).
    """
    return _invert(Ld, *np.split(m.as_array(), 2), h, None, plus=False)[0]


def fplus_inverse(Ld: DiscreteLagrangian, m: MomentaState, h: float) -> PairState:
    """Pair state whose plus map equals ``m`` (right point is fixed by m).

    Newton (at most 50 steps) starts from the straight-line left point
    (q - h v, v).
    """
    return _invert(Ld, *np.split(m.as_array(), 2), h, None, plus=True)[0]


def _invert(Ld, node, target, h, z0, plus):
    """Pair state with the (q, v) ``node`` on its right (``plus``) or left
    whose plus map (D3, D4) or minus map (-D1, -D2) equals ``target``, and
    the (4n,) partials (D1, D2, D3, D4) there.

    Newton (at most 50 steps) runs on the other node from ``z0``, or from
    the straight-line one.  The residual differences cancelling partials, so
    its stop levels are the :func:`floors` of 1e-12 at the larger of the
    scheme's sensitivity scale at the start and the size of the target.
    The start's second partials serve both that scale (unless the scheme
    has its own ``residual_scale``) and the first step, which is at the
    start; the partials of the last residual are the root's unless it stalled.
    A singular cross block raises :class:`SingularWd`, also where the start
    already meets the floor.
    """
    k = node.size
    n = k // 2
    if z0 is None:
        q, v = node[:n], node[n:]
        z0 = np.concatenate([q - h * v if plus else q + h * v, v])

    def pair(z):
        return unpack(np.concatenate([z, node] if plus else [node, z]), 2, n, h)

    last = None

    def residual(z):
        nonlocal last
        s = pair(z)
        D = Ld.partials(s)
        last = z, s, D
        return (D[k:] if plus else -D[:k]) - target

    start = pair(z0)
    first = [Ld.second_partials(start)]

    def jacobian(z, r):
        DD = first.pop() if first else Ld.second_partials(pair(z))
        return DD[k:, :k] if plus else -DD[:k, k:]

    what = f"{'plus' if plus else 'minus'}-map inversion"
    if getattr(Ld.residual_scale, "__func__", None) is DiscreteLagrangian.residual_scale:
        scale = Ld._residual_scale(start, first[0])
    else:
        scale = Ld.residual_scale(start)
    scale = max(scale, float(np.max(np.abs(target))))
    z, r = newton_one(residual, jacobian, z0, *floors(1e-12, scale), 50, SingularWd, what)
    if first:
        # a start that meets the floor leaves the Newton without factoring
        # the block, so factor it here
        try:
            np.linalg.solve(jacobian(z, r), r)
        except np.linalg.LinAlgError as exc:
            raise SingularWd(f"{what}: Jacobian is singular") from exc
    if last[0] is z:
        return last[1], last[2]
    s = pair(z)
    return s, Ld.partials(s)


def hamiltonian_step(Ld: DiscreteLagrangian, m: MomentaState, h: float) -> MomentaState:
    """Momentum-space step: plus map after inverting the minus map.

    In coordinates this sends (q0, v0, -D1, -D2) of the solved pair to
    (q1, v1, D3, D4) of the same pair.  The inversion starts from the
    straight-line node (q0 + h v0, v0).
    """
    return MomentaState.from_array(_step_map(Ld, m.as_array(), h, None)[0], m.n)


def _step_map(Ld, x, h, z0):
    """:func:`hamiltonian_step` on the flat vector (q, v, p, pt), with its
    inversion started from the node ``z0`` (None: the straight-line one):
    the image and the (4n,) partials (D1, D2, D3, D4) of the solved pair."""
    k = x.size // 2
    s, D = _invert(Ld, x[:k], x[k:], h, z0, plus=False)
    return np.concatenate([pack(s)[k:], D[k:]]), D


def symplectic_defect(Ld: DiscreteLagrangian, m: MomentaState, h: float) -> float:
    """Max-norm deviation of the step map's Jacobian from preserving the
    canonical two-form in (q, v | p, pt) coordinates.

    The Jacobian comes from central differences with per-coordinate steps
    1e-6 * (1 + |coordinate|), warm-started from the base solve, so the value
    is limited by second-order difference noise.
    """
    n = m.n
    x = m.as_array()
    warm = _step_map(Ld, x, h, None)[0][:2 * n]
    J = _central_diff(lambda X: [_step_map(Ld, y, h, warm)[0] for y in X], x, 1e-6).T
    I = np.eye(2 * n)
    Z = np.zeros((2 * n, 2 * n))
    Omega = np.block([[Z, I], [-I, Z]])
    return float(np.max(np.abs(J.T @ Omega @ J - Omega)))


def legendre_match_errors(L: LagrangianModel, q1jet: JetPoint, q2jet: JetPoint,
                          h: float):
    """Errors of the two momentum-map identities for the exact one-step action.

    The minus map of the exact action should equal the continuous momentum
    map at the initial jet of the connecting flow, and the plus map should
    equal it at the final jet.  This differentiates the shooting-computed
    action in its four endpoint arguments by central differences and
    compares both sides.  Returns (left_err, right_err) in max norm.

    The 8n differenced actions are one stack: one stacked shooting solve
    (substep count frozen at the base solve, warm-started from it, Newton
    tolerance near machine level so that each action is a smooth function
    of its endpoint data) and one stacked integration of the actions.  The
    difference step (2e-5) sits well above the jitter of those solves.
    """
    n = L.n
    jet0, S = shooting_bvp(L, q1jet, q2jet, h, return_substeps=True)
    jeth = integrate_el(L, jet0, h, S)
    cont0 = legendre(L, jet0)
    conth = legendre(L, jeth)
    warm = np.concatenate([jet0.deriv(2), jet0.deriv(3)])

    def actions(E):
        # one row of endpoint data (q1, v1, q2, v2) per differenced action
        left = E[:, :2 * n]
        X = _shoot(L, left, E[:, 2 * n:], h, S, np.tile(warm, (len(E), 1)), 5e-14, 60)
        return _rk4(L, np.hstack([left, X]), h, S, with_action=True)[1]

    base = np.concatenate([q1jet.q, q1jet.deriv(1), q2jet.q, q2jet.deriv(1)])
    D = _central_diff(actions, base, 2e-5)
    left_err = np.max(np.abs(-D[:2 * n] - cont0.as_array()[2 * n:]))
    right_err = np.max(np.abs(D[2 * n:] - conth.as_array()[2 * n:]))
    return float(left_err), float(right_err)
