import numpy as np
import pytest

from varint import (JetPoint, PairState, Wd_matrix, del_residual, initial_pair,
                    pack, phi_values, run, solve_boundary_path, spline_exact, step,
                    taylor_average, uniform_grid)
from varint.discretization import DiscreteLagrangian
from varint.errors import SingularWd
from varint.flow import (_hermite_path, _newton_path, _pairs_of, _path_jacobian,
                         _path_residual)
from varint.order import cubic_trajectory

from conftest import model_from_expr


def jet1(q, v):
    to = lambda x: np.atleast_1d(np.asarray(x, dtype=float))
    return JetPoint(to(q), (to(v),))


class TestDelResidual:
    def test_straight_line_taylor(self, spline1):
        Ld = taylor_average(spline1)
        r = del_residual(Ld, jet1(0, 1), jet1(0.1, 1), jet1(0.2, 1), 0.1)
        assert np.max(np.abs(r)) <= 1e-12

    def test_cubic_exact_scheme(self, spline1, rng):
        Ld = spline_exact()
        traj = cubic_trajectory(rng.normal(size=(4, 1)))
        h = 0.25
        r = del_residual(Ld, traj(0.0), traj(h), traj(2 * h), h)
        assert np.max(np.abs(r)) <= 1e-12

    def test_generic_triple_nonzero(self, spline1, rng):
        Ld = taylor_average(spline1)
        r = del_residual(Ld, jet1(0, 0), jet1(0.3, 1), jet1(0.1, -2), 0.2)
        assert np.max(np.abs(r)) > 1e-3


class TestStep:
    def test_taylor_update_formula(self, spline1):
        Ld = taylor_average(spline1)
        nxt = step(Ld, jet1(0, 0), jet1(0.1, 1), 0.1)
        assert nxt.q[0] == pytest.approx(0.2, abs=1e-12)
        assert nxt.deriv(1)[0] == pytest.approx(0.0, abs=1e-11)

    def test_exact_update_formula(self):
        Ld = spline_exact()
        nxt = step(Ld, jet1(0, 1), jet1(0.1, 1), 0.1)
        assert nxt.q[0] == pytest.approx(0.2, abs=1e-12)
        assert nxt.deriv(1)[0] == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("maker", [taylor_average, None])
    def test_rest_state_fixed(self, spline1, maker):
        Ld = maker(spline1) if maker else spline_exact()
        rest = jet1(0.0, 0.0)
        nxt = step(Ld, rest, rest, 0.2)
        assert np.max(np.abs(nxt.as_array())) <= 1e-12

    def test_update_formulas_random_states(self, spline1, rng):
        Ld_t = taylor_average(spline1)
        Ld_e = spline_exact()
        h = 0.1
        for _ in range(25):
            q0, v0, q1, v1 = rng.normal(size=4)
            nt = step(Ld_t, jet1(q0, v0), jet1(q1, v1), h)
            assert nt.q[0] == pytest.approx(q0 + 2 * h * v1, abs=1e-11)
            assert nt.deriv(1)[0] == pytest.approx(
                v0 + 4 * (v1 - (q1 - q0) / h), abs=1e-11)
            ne = step(Ld_e, jet1(q0, v0), jet1(q1, v1), h)
            assert ne.q[0] == pytest.approx(
                5 * q0 - 4 * q1 + 2 * h * (v0 + 2 * v1), abs=1e-11)
            assert ne.deriv(1)[0] == pytest.approx(
                v0 + 2 / h * (q0 - 2 * q1 + ne.q[0]), abs=1e-10)

    def test_residual_after_step(self, spline_potential, rng):
        Ld = taylor_average(spline_potential)
        for _ in range(10):
            prev = jet1(rng.normal(), rng.normal())
            cur = jet1(prev.q[0] + 0.5 * prev.deriv(1)[0], rng.normal())
            nxt = step(Ld, prev, cur, 0.5)
            r = del_residual(Ld, prev, cur, nxt, 0.5)
            assert np.max(np.abs(r)) <= 1e-12

    def test_singular_scheme_detected(self, spline1):
        Ld = taylor_average(spline1)
        bad = type(Ld)(spline1, Ld._terms, "broken")
        bad.second_partials = lambda s: np.zeros((4, 4))
        with pytest.raises(SingularWd):
            step(bad, jet1(0, 0), jet1(0.4, 1), 0.2)


class TestWdMatrix:
    def test_spline_exact_blocks(self):
        Ld = spline_exact()
        for h in (0.25, 0.5, 1.0):
            s = PairState(jet1(0.3, -0.2), jet1(0.5, 0.4), h)
            ref = np.array([[-12.0 / h**3, 6.0 / h**2], [-6.0 / h**2, 2.0 / h]])
            assert np.allclose(Wd_matrix(Ld, s), ref, rtol=1e-12)

    def test_determinant_scaling(self):
        # |det| h^4 is exactly 12 per dimension for the closed-form action
        Ld = spline_exact()
        for h in (0.4, 0.2, 0.1, 0.05):
            s = PairState(jet1(0.3, -0.2), jet1(0.5, 0.4), h)
            det = np.linalg.det(Wd_matrix(Ld, s))
            assert abs(det) * h**4 == pytest.approx(12.0, rel=1e-9)
            assert det > 0

    def test_regular_over_h_range(self):
        Ld = spline_exact()
        for h in np.geomspace(1e-3, 1.0, 13):
            s = PairState(jet1(0.0, 0.0), jet1(0.1, 0.2), float(h))
            assert abs(np.linalg.det(Wd_matrix(Ld, s))) > 0


class TestRun:
    def test_straight_line(self, spline1):
        Ld = taylor_average(spline1)
        grid = uniform_grid(0.0, 1.0, 20)
        path = run(Ld, jet1(0.0, 1.0), jet1(grid.h, 1.0), grid)
        assert np.allclose(path.positions()[:, 0], grid.times, atol=1e-12)
        assert np.allclose(path.velocities(), 1.0, atol=1e-12)

    def test_exact_scheme_reproduces_cubic(self, spline1, rng):
        Ld = spline_exact()
        traj = cubic_trajectory(np.array([[0.3], [-0.7], [1.1], [0.9]]))
        grid = uniform_grid(0.0, 1.0, 100)
        path = run(Ld, traj(0.0), traj(grid.h), grid)
        ref = np.array([traj(t).q[0] for t in grid.times])
        assert np.max(np.abs(path.positions()[:, 0] - ref)) <= 1e-10

    def test_phi_conserved(self, spline1):
        h = 1.0 / 64.0
        grid = uniform_grid(0.0, 1000 * h, 1000)
        traj = cubic_trajectory(np.array([[0.2], [0.05], [4e-3], [1.5e-3]]))
        for Ld in (taylor_average(spline1), spline_exact()):
            path = run(Ld, traj(0.0), traj(grid.h), grid)
            phi = path.diagnostics["phi"]
            assert np.max(np.abs(phi - phi[0])) <= 1e-12

    def test_translation_momentum_constant(self, spline2):
        # for the translation-invariant action, the later-point momentum along
        # the symmetry direction is the same at every step
        Ld = spline_exact()
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        grid = uniform_grid(0.0, 2.0, 40)
        traj = cubic_trajectory(np.array([[0.3, 0.1], [-0.2, 0.4],
                                          [0.5, -0.3], [0.2, 0.6]]))
        path = run(Ld, traj(0.0), traj(grid.h), grid)
        vals = []
        for k in range(grid.N):
            s = PairState(path.states[k], path.states[k + 1], grid.h)
            D1, D2, D3, D4 = Ld.partials(s)
            vals.append(D3 @ direction)
        assert np.max(np.abs(np.diff(vals))) <= 1e-10

    def test_failure_carries_step_index(self, spline1, monkeypatch):
        import varint.flow as flow
        from varint.errors import NoConvergence
        Ld = taylor_average(spline1)
        orig = flow._next_node
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise NoConvergence("forced", iterations=1, residual_norm=1.0)
            return orig(*args, **kwargs)

        monkeypatch.setattr(flow, "_next_node", flaky)
        grid = uniform_grid(0.0, 1.0, 10)
        with pytest.raises(NoConvergence) as info:
            flow.run(Ld, jet1(0, 1), jet1(grid.h, 1), grid)
        assert info.value.step_index == 3

    def test_nodes_equal_chained_steps(self, spline2):
        Ld = taylor_average(spline2)
        grid = uniform_grid(0.0, 1.0, 12)
        states = [jet1([0.1, -0.2], [0.3, 0.5]), jet1([0.13, -0.15], [0.31, 0.52])]
        path = run(Ld, *states, grid)
        for _ in range(grid.N - 1):
            states.append(step(Ld, states[-2], states[-1], grid.h))
        assert path.nodes.tobytes() == np.array(
            [x.as_array() for x in states]).tobytes()

    def test_initial_pair_seeds_on_trajectory(self, spline1):
        traj = cubic_trajectory(np.array([[0.3], [-0.7], [1.1], [0.9]]))
        j0 = traj(0.0)
        full = JetPoint(j0.q, (j0.deriv(1), np.array([1.1]), np.array([0.9])))
        x0, x1 = initial_pair(spline1, full, 0.125)
        ref = traj(0.125)
        assert np.allclose(x1.q, ref.q, atol=1e-12)
        assert np.allclose(x1.deriv(1), ref.deriv(1), atol=1e-12)


def _count_jets(monkeypatch):
    """Count the JetPoints built from now on."""
    made = {"n": 0}
    post_init = JetPoint.__post_init__

    def counted(self):
        made["n"] += 1
        post_init(self)

    monkeypatch.setattr(JetPoint, "__post_init__", counted)
    return made


@pytest.mark.parametrize("solve", ["run", "boundary"])
def test_paths_build_no_jet_per_node(spline2, monkeypatch, solve):
    Ld = taylor_average(spline2)
    grid = uniform_grid(0.0, 1.0, 64)
    x0 = JetPoint([0.0, 0.0], ([1.0, 1.0],))
    x1 = (JetPoint([grid.h, grid.h], ([1.0, 1.0],)) if solve == "run"
          else JetPoint([10.0, 0.0], ([10.0, 20.0],)))
    made = _count_jets(monkeypatch)
    path = (run(Ld, x0, x1, grid) if solve == "run"
            else solve_boundary_path(Ld, x0, x1, grid))
    assert made["n"] == 0
    assert path.nodes.shape == (grid.N + 1, 4)


class TestBoundaryPath:
    def test_spline_bvp_matches_dense_oracle(self, spline2):
        # the recursion for the endpoint-Taylor scheme is linear; assemble the
        # same equations densely from the hand-derived update relations
        from oracles import dense_taylor_bvp_oracle
        Ld = taylor_average(spline2)
        grid = uniform_grid(0.0, 1.0, 21)
        x0 = JetPoint([0.0, 0.0], ([10.0, 10.0],))
        xN = JetPoint([10.0, 0.0], ([10.0, 20.0],))
        path = solve_boundary_path(Ld, x0, xN, grid)
        ref = dense_taylor_bvp_oracle(x0, xN, grid)
        sol = np.column_stack([path.positions(), path.velocities()])
        assert np.max(np.abs(sol - ref)) <= 1e-9

    def test_interior_count_validation(self, spline1):
        Ld = taylor_average(spline1)
        with pytest.raises(ValueError):
            solve_boundary_path(Ld, jet1(0, 0), jet1(1, 0), uniform_grid(0, 1, 1))


def _dense_path_jacobian(Ld, pairs):
    """The path Jacobian assembled densely, block by block, from the
    second partials of every pair."""
    N, m = len(pairs), 2 * pairs[0].n
    DD = [Ld.second_partials(p) for p in pairs]
    J = np.zeros(((N - 1) * m, (N - 1) * m))
    for k in range(1, N):
        rows = slice((k - 1) * m, k * m)
        J[rows, rows] = DD[k - 1][m:, m:] + DD[k][:m, :m]
        if k > 1:
            J[rows, (k - 2) * m:(k - 1) * m] = DD[k - 1][m:, :m]
        if k < N - 1:
            J[rows, k * m:(k + 1) * m] = DD[k][:m, m:]
    return J


class TestPathAssembly:
    EXPR = {1: "cos(q0)*ddq0**2/2 + q0**2*dq0 + sin(dq0)*ddq0",
            2: "cos(q0)*ddq0**2/2 + ddq1**2/2 + dq0*dq1*q1 + q0**3*ddq1"}

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("N", [2, 3, 21])
    def test_jacobian_matches_dense_blocks(self, n, N, rng):
        Ld = taylor_average(model_from_expr(n, self.EXPR[n]))
        states = [JetPoint(rng.normal(size=n), (rng.normal(size=n),))
                  for _ in range(N + 1)]
        pairs = list(_pairs_of(np.array([x.as_array() for x in states]), 0.3))
        J = _path_jacobian(Ld, pairs)
        # every entry of the block pattern is stored, zeros included
        assert J.nnz == (3 * (N - 1) - 2) * (2 * n) ** 2
        assert J.has_canonical_format
        assert J.toarray().tobytes() == _dense_path_jacobian(Ld, pairs).tobytes()

    def test_residual_stacks_node_conditions(self, rng):
        Ld = taylor_average(model_from_expr(2, self.EXPR[2]))
        states = [JetPoint(rng.normal(size=2), (rng.normal(size=2),))
                  for _ in range(6)]
        pairs = list(_pairs_of(np.array([x.as_array() for x in states]), 0.3))
        R = _path_residual(Ld, pairs)
        for k in range(1, 5):
            D1b, D2b, _, _ = Ld.partials(pairs[k])
            _, _, D3a, D4a = Ld.partials(pairs[k - 1])
            ref = np.concatenate([D3a + D1b, D4a + D2b])
            assert R[k - 1].tobytes() == ref.tobytes()


class _Logged(DiscreteLagrangian):
    """A scheme that logs its per-pair calls: (kind, pair, value)."""

    def __init__(self, inner):
        super().__init__(inner.n, inner.name)
        self.inner, self.log = inner, []

    def value(self, s):
        v = self.inner.value(s)
        self.log.append(("value", s, v))
        return v

    def partials(self, s):
        self.log.append(("partials", s, None))
        return self.inner.partials(s)

    def second_partials(self, s):
        self.log.append(("second_partials", s, None))
        return self.inner.second_partials(s)

    def residual_scale(self, s):
        return self.inner.residual_scale(s)


def _starts_sweep(s, x0):
    """Whether pair ``s`` is the first of a path point's pairs: its left
    node holds x0's state (pairs are matched by value, not identity)."""
    start = np.concatenate([x0.q, x0.deriv(1)])
    return pack(s)[:start.size].tobytes() == start.tobytes()


class TestPathNewton:
    def test_climbing_fast_trial_evaluates_no_residual(self):
        Ld = _Logged(taylor_average(model_from_expr(1, "ddq0**2/2 + 20*cos(q0)")))
        x0, xN = jet1(0.0, 0.0), jet1(3.0, 0.0)
        grid = uniform_grid(0.0, 4.0, 10)
        _newton_path(Ld, x0, xN, grid, _hermite_path(x0, xN, grid), 1e-10, 80)
        # one sweep per (kind, trial point); every point's pairs start at x0
        sweeps = []
        for kind, s, v in Ld.log:
            if _starts_sweep(s, x0):
                sweeps.append([kind, s, 0.0])
            if v is not None:
                sweeps[-1][2] += v
        action = {id(s): a for kind, s, a in sweeps if kind == "value"}
        residual_at = {id(s) for kind, s, _ in sweeps if kind == "partials"}
        climbs = 0
        for (k0, s0, _), (k1, s1, a1) in zip(sweeps, sweeps[1:]):
            # the Newton trial right after the iterate's Jacobian
            if k0 == "second_partials" and k1 == "value":
                A = action[id(s0)]
                if a1 > A + 1e-10 * (1.0 + abs(A)):
                    climbs += 1
                    assert id(s1) not in residual_at
        assert climbs >= 1
        # the iterate's own pairs serve its residual, action and Jacobian
        assert sweeps[0][0] == "partials"
        assert [k for k, s, _ in sweeps if s is sweeps[0][1]] == [
            "partials", "value", "second_partials"]

    def test_no_point_swept_twice(self):
        # a line search starting at the rejected Newton trial reuses its
        # action (and its residual, when the trial had one)
        Ld = _Logged(taylor_average(model_from_expr(1, "ddq0**2/2 + 40*cos(q0)")))
        x0, xN = jet1(0.0, 0.0), jet1(10.0, 0.0)
        grid = uniform_grid(0.0, 4.0, 10)
        _newton_path(Ld, x0, xN, grid, _hermite_path(x0, xN, grid), 1e-10, 80)
        sweeps = {"value": [], "partials": []}
        for kind, s, _ in Ld.log:
            if kind in sweeps:
                if _starts_sweep(s, x0):
                    sweeps[kind].append([])
                sweeps[kind][-1].append(pack(s))
        for kind, points in sweeps.items():
            points = [np.concatenate(p).tobytes() for p in points]
            assert len(set(points)) == len(points), kind

    def test_diagnostics_reuse_final_sweeps(self):
        Ld = taylor_average(model_from_expr(2, "ddq0**2/2 + ddq1**2/2 + cos(q0)*dq1**2"))
        x0 = JetPoint([0.0, 0.0], ([1.0, 1.0],))
        xN = JetPoint([1.0, 0.5], ([0.0, 2.0],))
        grid = uniform_grid(0.0, 1.0, 64)
        path = solve_boundary_path(Ld, x0, xN, grid)
        pairs = list(_pairs_of(path.nodes, grid.h))
        assert path.diagnostics["action"] == float(sum(Ld.value(p) for p in pairs))
        assert np.array_equal(path.diagnostics["del_residual"],
                              np.max(np.abs(_path_residual(Ld, pairs)), axis=1))

    def test_newton_iterations_per_level(self, spline2):
        Ld = taylor_average(spline2)
        x0 = JetPoint([0.0, 0.0], ([10.0, 10.0],))
        xN = JetPoint([10.0, 0.0], ([10.0, 20.0],))
        path = solve_boundary_path(Ld, x0, xN, uniform_grid(0.0, 1.0, 64))
        its = path.diagnostics["newton_iterations"]
        assert len(its) == 2 and all(isinstance(i, int) and i >= 1 for i in its)
        guess = np.column_stack([path.positions()[1:-1], path.velocities()[1:-1]])
        again = solve_boundary_path(Ld, x0, xN, uniform_grid(0.0, 1.0, 64),
                                    guess=guess)
        assert again.diagnostics["newton_iterations"] == [0]

    def test_max_iter_exhausted(self):
        from varint.errors import NoConvergence
        from varint.newton import floors
        Ld = taylor_average(model_from_expr(1, "ddq0**2/2 + cos(q0)"))
        x0, xN = jet1(0.0, 0.0), jet1(2.0, 0.0)
        grid = uniform_grid(0.0, 1.0, 10)
        start = _hermite_path(x0, xN, grid)
        pairs = list(_pairs_of(np.vstack([[0.0, 0.0], start, [2.0, 0.0]]), grid.h))
        loose = floors(1e-10, max(Ld.residual_scale(p) for p in pairs))[1]
        with pytest.raises(NoConvergence, match="^path Newton did not reach tolerance$") as info:
            _newton_path(Ld, x0, xN, grid, start, 1e-10, 1)
        assert info.value.iterations == 1
        assert info.value.residual_norm > 100 * loose


class TestPhiValues:
    def test_definition(self, spline1):
        Ld = taylor_average(spline1)
        grid = uniform_grid(0.0, 0.5, 5)
        path = run(Ld, jet1(0.0, 1.0), jet1(0.1, 1.0), grid)
        phi = phi_values(path)
        q = path.positions()[:, 0]
        v = path.velocities()[:, 0]
        ref = (q[1:] - q[:-1]) / grid.h - 0.5 * (v[:-1] + v[1:])
        assert np.allclose(phi[:, 0], ref, atol=1e-14)
