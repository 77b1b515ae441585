"""Slower cross-module invariants: cost refinement consistency and penalty
strength behavior for the arm problem."""

import dataclasses
import math

import numpy as np

import varint as vi
from varint.discretization import make_scheme
from varint.flow import solve_boundary_path
from varint.jets import JetPoint, PairState, uniform_grid


def restrict(path, factor=2):
    """Take every ``factor``-th interior node as a coarse warm start."""
    q = path.positions()
    v = path.velocities()
    return np.column_stack([q[factor:-1:factor], v[factor:-1:factor]])


def path_cost(Ld, path):
    h = path.grid.h
    return float(sum(Ld.value(PairState(path.states[k], path.states[k + 1], h))
                     for k in range(path.grid.N)))


def refine(path):
    """Interpolated interior guess for doubling the node count."""
    t_old = path.grid.times
    N2 = 2 * path.grid.N
    t_new = np.linspace(t_old[0], t_old[-1], N2 + 1)[1:-1]
    q = path.positions()
    v = path.velocities()
    cols = [np.interp(t_new, t_old, q[:, j]) for j in range(q.shape[1])]
    cols += [np.interp(t_new, t_old, v[:, j]) for j in range(v.shape[1])]
    return np.column_stack(cols)


def test_halving_cost_ratio_matches_order():
    # solve once at N=200, then move along the same solution branch by
    # warm-started restriction (N=100) and refinement (N=400); the scheme's
    # action error is O(h^2), so the halving cost difference around N=200
    # shrinks by about 4 per refinement
    P = vi.two_link_problem(N=200)
    res = vi.solve_ocp(P)
    lifted = res.lifted
    Ld = make_scheme("taylor-midpoint", lifted)
    x0 = JetPoint(P.qa, (P.va,))
    xN = JetPoint(P.qb, (P.vb,))
    costs = {200: res.cost}
    p100 = solve_boundary_path(Ld, x0, xN, uniform_grid(0.0, P.T, 100),
                               guess=restrict(res.path))
    costs[100] = path_cost(Ld, p100)
    p400 = solve_boundary_path(Ld, x0, xN, uniform_grid(0.0, P.T, 400),
                               guess=refine(res.path))
    costs[400] = path_cost(Ld, p400)
    ratio = (costs[100] - costs[200]) / (costs[200] - costs[400])
    assert 2.0 ** 1.5 <= abs(ratio) <= 2.0 ** 2.5
    print(f"\ncosts {costs}; halving difference ratio {ratio:.2f} "
          f"(order-2 scheme predicts about 4)")


def test_penalty_violation_shrinks_with_slope():
    # compare slopes along one solution branch: solve the mildest barrier
    # from scratch, then continue in the slope, warm-starting each solve.
    # the overstep at fixed N is dominated by the O(h^2) corner overshoot of
    # the discretization (about 1.7e-2 rad here vs 4e-3 rad at N=200), and
    # on top of that the stronger barrier pushes it down monotonically
    N = 100
    P0 = vi.two_link_problem(N=N, penalty=vi.JointLimitPenalty(n=2, slope=125.0))
    res = vi.solve_ocp(P0)
    # the last stage stops moving its nodes before solve_ocp's 200-iteration
    # cap; such a level ends as stalled instead of running out the cap
    assert res.newton_iterations[-1][-1] < 200
    base = vi.lift_cost(dataclasses.replace(P0, penalty=None))
    x0 = JetPoint(P0.qa, (P0.va,))
    xN = JetPoint(P0.qb, (P0.vb,))
    grid = uniform_grid(0.0, P0.T, N)

    def violation(path):
        th2 = path.positions()[:, 1]
        return max(0.0, -float(th2.min()), float(th2.max()) - math.radians(170.0))

    violations = [violation(res.path)]
    guess = np.column_stack([res.path.positions()[1:-1],
                             res.path.velocities()[1:-1]])
    for slope in (500.0, 2000.0):
        pen = vi.JointLimitPenalty(n=2, slope=slope)
        lifted = base.with_position_term(pen.value, pen.grad, pen.hess)
        Ld = make_scheme("taylor-midpoint", lifted)
        path = solve_boundary_path(Ld, x0, xN, grid, guess=guess,
                                   tol=1e-9, max_iter=300)
        guess = np.column_stack([path.positions()[1:-1],
                                 path.velocities()[1:-1]])
        violations.append(violation(path))
    assert violations[0] >= violations[1] >= violations[2]
    assert violations[0] <= 0.02
    print(f"\nviolations by slope (125, 500, 2000): {violations}")
