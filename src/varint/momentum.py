"""Momentum maps of discrete Lagrangians and structure diagnostics.

The two momentum maps send a pair state to the cotangent bundle over
velocity phase space: the minus map attaches (-D1, -D2) at the earlier
point, the plus map (D3, D4) at the later one, so that along the recursion
``fplus(s) == fminus(next pair)``.  Their composition F+ o (F-)^{-1} is the
momentum-space step map, implemented by Newton inversion.
"""

from __future__ import annotations

import numpy as np

from .bvp import _shoot_once, integrate_el, shooting_bvp
from .discretization import DiscreteLagrangian
from .errors import SingularWd
from .jets import JetPoint, PairState
from .lagrangian import LagrangianModel, MomentaState, _central_diff, legendre
from .newton import newton


def fplus(Ld: DiscreteLagrangian, s: PairState) -> MomentaState:
    """Momenta (D3, D4) attached at the later point of the pair."""
    _, _, D3, D4 = Ld.partials(s)
    return MomentaState(s.right.q, s.right.deriv(1), D3, D4)


def fminus(Ld: DiscreteLagrangian, s: PairState) -> MomentaState:
    """Momenta (-D1, -D2) attached at the earlier point of the pair."""
    D1, D2, _, _ = Ld.partials(s)
    return MomentaState(s.left.q, s.left.deriv(1), -D1, -D2)


def Wd_matrix(Ld: DiscreteLagrangian, s: PairState) -> np.ndarray:
    """Cross-derivative block matrix [[D13, D14], [D23, D24]] at the pair."""
    n = s.n
    return Ld.second_partials(s)[:2 * n, 2 * n:]


def _floors(Ld, s0, target):
    """Tight and loose stop levels of a momentum-matching solve.

    Both are 1e-12 unless roundoff forbids: the residual differences
    cancelling partials, so the levels allow for roundoff at the larger of
    the scheme's sensitivity scale at the initial guess ``s0`` and the size
    of the target momenta.
    """
    eps = np.finfo(float).eps
    scale0 = max(Ld.residual_scale(s0), float(np.max(np.abs(target))))
    return max(1e-12, 2.0 * eps * scale0), max(1e-12, 64.0 * eps * scale0)


def fminus_inverse(Ld: DiscreteLagrangian, m: MomentaState, h: float,
                   guess: JetPoint = None) -> PairState:
    """Pair state whose minus map equals ``m`` (left point is fixed by m).

    Newton (at most 50 steps) starts from ``guess`` for the right point, or
    from the straight-line one (q + h v, v).
    """
    n = m.n
    left = JetPoint(m.q, (m.v,))
    target = np.concatenate([m.p, m.pt])
    if guess is None:
        z0 = np.concatenate([m.q + h * m.v, m.v])
    else:
        z0 = np.concatenate([guess.q, guess.deriv(1)])

    def pair(z):
        return PairState(left, JetPoint(z[:n], (z[n:],)), h)

    def residual(z):
        D1, D2, _, _ = Ld.partials(pair(z))
        return np.concatenate([-D1, -D2]) - target

    def jacobian(z, r):
        return -Wd_matrix(Ld, pair(z))

    z, _ = newton(residual, jacobian, z0, *_floors(Ld, pair(z0), target),
                  50, SingularWd, "minus-map inversion")
    return pair(z)


def fplus_inverse(Ld: DiscreteLagrangian, m: MomentaState, h: float) -> PairState:
    """Pair state whose plus map equals ``m`` (right point is fixed by m).

    Newton (at most 50 steps) starts from the straight-line left point
    (q - h v, v).
    """
    n = m.n
    right = JetPoint(m.q, (m.v,))
    target = np.concatenate([m.p, m.pt])
    z0 = np.concatenate([m.q - h * m.v, m.v])

    def pair(z):
        return PairState(JetPoint(z[:n], (z[n:],)), right, h)

    def residual(z):
        _, _, D3, D4 = Ld.partials(pair(z))
        return np.concatenate([D3, D4]) - target

    def jacobian(z, r):
        DD = Ld.second_partials(pair(z))
        return DD[2 * n:, :2 * n]

    z, _ = newton(residual, jacobian, z0, *_floors(Ld, pair(z0), target),
                  50, SingularWd, "plus-map inversion")
    return pair(z)


def hamiltonian_step(Ld: DiscreteLagrangian, m: MomentaState, h: float,
                     guess: JetPoint = None) -> MomentaState:
    """Momentum-space step: plus map after inverting the minus map.

    In coordinates this sends (q0, v0, -D1, -D2) of the solved pair to
    (q1, v1, D3, D4) of the same pair.
    """
    s = fminus_inverse(Ld, m, h, guess=guess)
    return fplus(Ld, s)


def symplectic_defect(Ld: DiscreteLagrangian, m: MomentaState, h: float) -> float:
    """Max-norm deviation of the step map's Jacobian from preserving the
    canonical two-form in (q, v | p, pt) coordinates.

    The Jacobian comes from central differences with per-coordinate steps
    1e-6 * (1 + |coordinate|), warm-started from the base solve, so the value
    is limited by second-order difference noise.
    """
    n = m.n
    base_pair = fminus_inverse(Ld, m, h)
    J = _central_diff(lambda x: hamiltonian_step(
        Ld, MomentaState.from_array(x, n), h, guess=base_pair.right).as_array(),
        m.as_array(), 1e-6).T
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
    action in its four endpoint arguments by central differences (substep
    count frozen at the base solve, warm-started) and compares both sides.
    Returns (left_err, right_err) in max norm.

    The difference step (2e-5) sits well above the jitter of the inner
    solves, which are themselves driven to near machine accuracy.
    """
    n = L.n
    jet0, S = shooting_bvp(L, q1jet, q2jet, h, return_substeps=True)
    jeth = integrate_el(L, jet0, h, S)
    cont0 = legendre(L, jet0)
    conth = legendre(L, jeth)

    x0 = np.concatenate([jet0.q, jet0.deriv(1), jet0.deriv(2), jet0.deriv(3)])

    def action(args):
        q1 = JetPoint(args[:n], (args[n:2 * n],))
        q2 = JetPoint(args[2 * n:3 * n], (args[3 * n:],))
        return _shoot_action(L, q1, q2, h, S, x0[2 * n:])

    base = np.concatenate([q1jet.q, q1jet.deriv(1), q2jet.q, q2jet.deriv(1)])
    D = _central_diff(action, base, 2e-5)
    D1, D2, D3, D4 = D[:n], D[n:2 * n], D[2 * n:3 * n], D[3 * n:]
    left_err = max(np.max(np.abs(-D1 - cont0.p)), np.max(np.abs(-D2 - cont0.pt)))
    right_err = max(np.max(np.abs(D3 - conth.p)), np.max(np.abs(D4 - conth.pt)))
    return float(left_err), float(right_err)


def _shoot_action(L, q1jet, q2jet, h, substeps, x_warm):
    """One fixed-resolution shooting solve returning the action.

    The Newton tolerance is near machine level so that the returned action is
    a smooth function of the endpoint data, fit for outer differencing.
    """
    x = _shoot_once(L, q1jet, q2jet, h, substeps, x_warm.copy(), 5e-14, 60)
    n = L.n
    jet = JetPoint(q1jet.q, (q1jet.deriv(1), x[:n], x[n:]))
    _, action = integrate_el(L, jet, h, substeps, with_action=True)
    return action
