import collections
import warnings

import numpy as np
import pytest

from varint import (JetPoint, PairState, Wd_matrix, del_residual, fplus, initial_pair,
                    pack, phi_values, run, solve_boundary_path, spline_exact, step,
                    taylor_average, uniform_grid, unpack)
from varint.discretization import SCHEMES, DiscreteLagrangian, make_scheme
from varint.errors import NoConvergence, SingularKKT, SingularWd, VarintError
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
        orig = flow._step_map
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise NoConvergence("forced", iterations=1, residual_norm=1.0)
            return orig(*args, **kwargs)

        monkeypatch.setattr(flow, "_step_map", flaky)
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

    @pytest.mark.parametrize("model, name", [
        (model, name) for model in ("spline1", "spline2", "spline_potential")
        for name in SCHEMES if (model, name) != ("spline_potential", "spline-exact")])
    def test_run_equals_chained_steps_for_every_scheme(self, model, name, request,
                                                       monkeypatch):
        # run carries each step's plus map into the next one; a loop of
        # step calls evaluates it again every time, with the same bytes,
        # and fails at the same step with the same error
        import varint.flow as flow
        L = request.getfixturevalue(model)
        Ld, n = make_scheme(name, L), L.n
        grid = uniform_grid(0.0, 2.5, 40)
        traj = cubic_trajectory(np.array([[0.2, -0.1], [0.5, 0.3], [-0.4, 0.2],
                                          [0.6, -0.5]])[:, :n])
        x0, x1 = traj(0.0), traj(grid.h)
        states = [x0, x1]
        try:
            for k in range(1, grid.N):
                states.append(step(Ld, states[-2], states[-1], grid.h))
        except VarintError as exc:
            chained = type(exc), str(exc), k
        else:
            chained = np.array([x.as_array() for x in states]).tobytes()
        steps, step_map = [], flow._step_map    # steps run starts, from 1
        monkeypatch.setattr(flow, "_step_map",
                            lambda *args: steps.append(len(steps) + 1) or step_map(*args))
        try:
            path = run(Ld, x0, x1, grid)
        except VarintError as exc:
            if isinstance(exc, NoConvergence):
                assert exc.step_index == steps[-1]
            assert (type(exc), str(exc), steps[-1]) == chained
        else:
            assert path.nodes.tobytes() == chained
        if name in ("midpoint-difference", "trapezoid-velocity") and model != "spline_potential":
            assert chained[:1] == (SingularWd,)

    def test_one_iteration_step_evaluates_each_partial_once(self, spline2):
        # a step of the spline's taylor scheme is linear: one Newton
        # iteration.  The carried plus map and the start's second partials,
        # shared by the residual scale and the first Jacobian, leave one
        # partials call per Newton residual and one second_partials call
        from varint.momentum import _step_map, fplus

        def carried(Ld, x0, x1, x2, h):
            # the step from x2 (after x1) with the plus map that the step
            # from x1 (after x0) hands on
            plus = fplus(Ld, PairState(jet1(*np.split(x0, 2)), jet1(*np.split(x1, 2)), h))
            momenta = _step_map(Ld, plus.as_array(), h, 2.0 * x1 - x0)[0][x1.size:]
            Ld.calls.clear()
            _step_map(Ld, np.concatenate([x2, momenta]), h, 2.0 * x2 - x1)
            return Ld.calls

        Ld = _Counted(taylor_average(spline2))
        grid = uniform_grid(0.0, 1.0, 12)
        traj = cubic_trajectory(np.array([[0.1, -0.2], [0.3, 0.5], [0.2, 0.1], [-0.3, 0.4]]))
        X = [traj(k * grid.h).as_array() for k in range(3)]
        assert carried(Ld, *X, grid.h) == {"partials": 2, "second_partials": 1}
        Ld.calls.clear()
        step(Ld, traj(grid.h), traj(2 * grid.h), grid.h)
        assert Ld.calls == {"partials": 3, "second_partials": 1}
        # the whole run: N - 1 steps and one plus map for the first; the
        # diagnostics reuse the partials of the pairs the steps solved
        Ld.calls.clear()
        run(Ld, traj(0.0), traj(grid.h), grid)
        N = grid.N
        assert Ld.calls == {"partials": 1 + 2 * (N - 1), "second_partials": N - 1}
        # a scheme with its own residual scale is asked for it once a step
        scaled = _CountedScale(taylor_average(spline2))
        assert carried(scaled, *X, grid.h) == {
            "residual_scale": 1, "partials": 2, "second_partials": 1}
        # a nonlinear step: one Jacobian per iteration, the first one at the
        # start, and one residual more than Jacobians (no halvings here)
        bent = _Counted(make_scheme("midpoint-difference", model_from_expr(
            1, "ddq0**2/2 + dq0**2/2 + 4*cos(q0)")))
        x0, x1 = np.array([0.3, 2.0]), np.array([0.7, 2.1])
        assert carried(bent, x0, x1, 2.0 * x1 - x0, 0.2) == {
            "partials": 4, "second_partials": 3}

    @pytest.mark.parametrize("model, name", [
        (model, name) for model in ("spline1", "spline2", "spline_potential")
        for name in SCHEMES if (model, name) != ("spline_potential", "spline-exact")])
    def test_residuals_equal_the_path_sweep(self, model, name, request):
        # run forms each interior residual from the partials its steps
        # solved at, and del_residual from its two pairs' partials; both
        # equal the residual of one sweep over the path's pairs bit for bit
        L = request.getfixturevalue(model)
        Ld, n = make_scheme(name, L), L.n
        grid = uniform_grid(0.0, 2.5, 40)
        traj = cubic_trajectory(np.array([[0.2, -0.1], [0.5, 0.3], [-0.4, 0.2],
                                          [0.6, -0.5]])[:, :n])
        try:
            path = run(Ld, traj(0.0), traj(grid.h), grid)
            nodes = path.nodes
        except SingularWd:      # the schemes whose spline steps are singular
            path, nodes = None, np.array([traj(t).as_array() for t in grid.times])
        R = _path_residual(Ld, _pairs_of(nodes, grid.h))
        if path is not None:
            assert (path.diagnostics["del_residual"].tobytes()
                    == np.max(np.abs(R), axis=1).tobytes())
        jets = [JetPoint.from_array(x, 1, n) for x in nodes]
        for k in range(1, grid.N):
            assert del_residual(Ld, *jets[k - 1:k + 2], grid.h).tobytes() == R[k - 1].tobytes()

    def test_a_stalled_inversion_hands_back_its_roots_partials(self, spline2,
                                                              monkeypatch):
        # a stalled Newton ends at an iterate away from its last trial
        # point; the partials _invert hands back (which run carries into
        # the next step) are still those of the pair it returns
        import varint.momentum as momentum
        solve, roots = momentum.newton_one, []

        def stalling(residual, jacobian, z0, *args):
            z, r = solve(residual, jacobian, z0, *args)
            residual(z + 1e-3)      # a last trial that failed
            roots.append(z)
            return z, r

        monkeypatch.setattr(momentum, "newton_one", stalling)
        Ld = taylor_average(spline2)
        node, h = np.array([0.1, -0.2, 0.3, 0.5]), 0.1
        target = -np.concatenate(Ld.partials(unpack(
            np.concatenate([node, node + 0.05]), 2, 2, h)))[:4]
        s, D = momentum._invert(Ld, node, target, h, None, plus=False)
        assert pack(s).tobytes() == np.concatenate([node, roots[0]]).tobytes()
        assert D.tobytes() == np.concatenate(Ld.partials(s)).tobytes()

    def test_initial_pair_seeds_on_trajectory(self, spline1):
        traj = cubic_trajectory(np.array([[0.3], [-0.7], [1.1], [0.9]]))
        j0 = traj(0.0)
        full = JetPoint(j0.q, (j0.deriv(1), np.array([1.1]), np.array([0.9])))
        x0, x1 = initial_pair(spline1, full, 0.125)
        ref = traj(0.125)
        assert np.allclose(x1.q, ref.q, atol=1e-12)
        assert np.allclose(x1.deriv(1), ref.deriv(1), atol=1e-12)


def jet_n(n, q=0.1):
    return JetPoint(np.full(n, q), (np.full(n, 0.5),))


class TestPairDimension:
    """A pair whose dimension is not its model's, and seeds of unequal
    dimension, are each a ValueError that says so."""

    CALLS = {
        "fplus": lambda Ld, a, b: fplus(Ld, PairState(a, b, 0.25)),
        "step": lambda Ld, a, b: step(Ld, a, b, 0.25),
        "run": lambda Ld, a, b: run(Ld, a, b, uniform_grid(0.0, 1.0, 4)),
        "boundary": lambda Ld, a, b: solve_boundary_path(Ld, a, b, uniform_grid(0.0, 1.0, 4)),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("name", sorted(set(SCHEMES) - {"spline-exact"}))
    def test_a_pair_of_another_dimension(self, spline1, name, call):
        Ld = make_scheme(name, spline1)
        with pytest.raises(ValueError, match="pair dimension 2 is not the model's 1"):
            self.CALLS[call](Ld, jet_n(2), jet_n(2, q=0.2))
        # the scheme still serves pairs of its model's dimension
        self.CALLS["fplus"](Ld, jet_n(1), jet_n(1, q=0.2))

    def test_run_seeds_of_unequal_dimension(self, spline1):
        with pytest.raises(ValueError, match="left and right jets must have equal dimension"):
            run(taylor_average(spline1), jet_n(1), jet_n(2), uniform_grid(0.0, 1.0, 4))

    def test_initial_pair_takes_an_order_3_jet(self, spline1):
        with pytest.raises(ValueError, match="expected jets of order 3 and dimension 1, "
                                             "got order 1 and dimension 1"):
            initial_pair(spline1, jet_n(1), 0.125)


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
        super().__init__(inner.name)
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


class _Counted(DiscreteLagrangian):
    """A scheme that counts its partials and second_partials calls."""

    def __init__(self, inner):
        super().__init__(inner.name)
        self.inner, self.calls = inner, collections.Counter()

    def value(self, s):
        return self.inner.value(s)

    def partials(self, s):
        self.calls["partials"] += 1
        return self.inner.partials(s)

    def second_partials(self, s):
        self.calls["second_partials"] += 1
        return self.inner.second_partials(s)

    def _fd_noise_scale(self, s):
        return self.inner._fd_noise_scale(s)


class _CountedScale(_Counted):
    """:class:`_Counted` with a residual scale of its own."""

    def residual_scale(self, s):
        self.calls["residual_scale"] += 1
        return self.inner.residual_scale(s)


def _starts_sweep(s, x0):
    """Whether pair ``s`` is the first of a path point's pairs: its left
    node holds x0's state (pairs are matched by value, not identity)."""
    start = np.concatenate([x0.q, x0.deriv(1)])
    return pack(s)[:start.size].tobytes() == start.tobytes()


class TestPathNewton:
    def test_climbing_fast_trial_evaluates_no_residual(self):
        Ld = _Logged(taylor_average(model_from_expr(1, "ddq0**2/2 + 20*cos(q0)")))
        evaluations, evaluate = [], Ld.inner._sum

        def rows_of(kind, X, h, n):
            if X.ndim == 2:
                evaluations.append((kind, id(X)))
            return evaluate(kind, X, h, n)

        Ld.inner._sum = rows_of
        x0, xN = jet1(0.0, 0.0), jet1(3.0, 0.0)
        grid = uniform_grid(0.0, 4.0, 10)
        *_, iterations = _newton_path(Ld, x0, xN, grid, _hermite_path(x0, xN, grid),
                                      1e-10, 80)
        # every sweep still calls the scheme once per pair, in row order, and
        # the inner scheme answers it from one evaluation on the pair array
        # (the first is residual_scale's, which is not logged); the Jacobian
        # sweeps are the iterations the benchmark counts
        rows = {}
        for kind, s, _ in Ld.log:
            X, i, _ = s._sweep
            rows.setdefault((kind, id(X)), []).append(i)
        assert all(r == list(range(grid.N)) for r in rows.values())
        first = id(Ld.log[0][1]._sweep[0])
        assert evaluations == [("second_partials", first)] + list(rows)
        assert sum(kind == "second_partials" for kind, _ in rows) == iterations >= 1
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

    @pytest.mark.parametrize("bad", ["rows", "columns", "flat", "nan", "inf"])
    def test_bad_guess_names_the_expected_shape(self, spline2, bad):
        Ld = taylor_average(spline2)
        x0 = JetPoint([0.0, 0.0], ([1.0, 1.0],))
        xN = JetPoint([1.0, 0.5], ([0.0, 2.0],))
        grid = uniform_grid(0.0, 1.0, 8)
        guess = _hermite_path(x0, xN, grid)
        guess = {"rows": guess[1:], "columns": guess[:, :3], "flat": guess.ravel(),
                 "nan": np.where(np.eye(*guess.shape, dtype=bool), np.nan, guess),
                 "inf": -np.inf * np.ones_like(guess)}[bad]
        with pytest.raises(ValueError, match=r"^guess .*\(N - 1, 2n\) = \(7, 4\)"):
            solve_boundary_path(Ld, x0, xN, grid, guess=guess)

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

    def test_exhausted_line_search_stalls(self):
        # an action that is +inf at every point but the start fails the
        # fast step and all of the Armijo search's trials, which leaves
        # the nodes where they were and ends the level
        from varint.errors import NoConvergence
        from varint.newton import floors
        inner = taylor_average(model_from_expr(1, "ddq0**2/2 + cos(q0)"))
        x0, xN = jet1(0.0, 0.0), jet1(2.0, 0.0)
        grid = uniform_grid(0.0, 1.0, 10)
        start = _hermite_path(x0, xN, grid)
        pairs = list(_pairs_of(np.vstack([[0.0, 0.0], start, [2.0, 0.0]]), grid.h))
        Ld = _Walled(inner, pairs)
        loose = floors(1e-10, max(Ld.residual_scale(p) for p in pairs))[1]
        with pytest.raises(NoConvergence, match="^path Newton stalled$") as info:
            solve_boundary_path(Ld, x0, xN, grid, guess=start)
        assert info.value.iterations == 0
        assert info.value.residual_norm > 100 * loose
        # the start's action, then those of the fast trial and 49 halved steps
        actions = []
        for kind, s, v in Ld.log:
            if kind == "value":
                if _starts_sweep(s, x0):
                    actions.append(0.0)
                actions[-1] += v
        assert np.isfinite(actions[0]) and actions[1:] == [np.inf] * 50


class _Walled(_Logged):
    """A logging scheme whose action is +inf away from the pairs ``home``."""

    def __init__(self, inner, home):
        super().__init__(inner)
        self.home = {pack(s).tobytes() for s in home}

    def value(self, s):
        v = self.inner.value(s) if pack(s).tobytes() in self.home else np.inf
        self.log.append(("value", s, v))
        return v


class _FilledHessian(_Logged):
    """A logging scheme whose second partials hold only ``fill`` for its
    first ``count`` calls (every call when None), then the inner scheme's;
    its residual scale is the inner scheme's."""

    def __init__(self, inner, fill, count=None):
        super().__init__(inner)
        self.fill, self.count = fill, count

    def second_partials(self, s):
        if self.count == 0:
            return super().second_partials(s)
        if self.count is not None:
            self.count -= 1
        return np.full((4 * s.n, 4 * s.n), self.fill)


class TestSingularSystem:
    MODEL = "ddq0**2/2 + 20*cos(q0)"

    def test_singular_jacobian_goes_to_the_levenberg_search(self, monkeypatch):
        import varint.flow

        grid = uniform_grid(0.0, 4.0, 10)
        x0, xN = jet1(0.0, 0.0), jet1(3.0, 0.0)
        start = _hermite_path(x0, xN, grid)
        Ld = taylor_average(model_from_expr(1, self.MODEL))
        X, R, A, _ = _newton_path(Ld, x0, xN, grid, start, 1e-10, 80)
        # the first Jacobian sweep is exactly zero, so SuperLU finds it singular
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Xz, Rz, Az, _ = _newton_path(_FilledHessian(Ld, 0.0, grid.N), x0, xN, grid,
                                         start, 1e-10, 80)
        assert caught == []
        assert np.max(np.abs(Rz)) <= 1e-9
        assert abs(Az - A) <= 1e-9 * abs(A) and np.allclose(Xz, X, atol=1e-6)
        # the plain step fails, the first Levenberg shift solves
        calls, solve = [], varint.flow._linear_solve

        def logged(J, R, lam):
            d = solve(J, R, lam)
            calls.append((lam, d is not None))
            return d

        monkeypatch.setattr(varint.flow, "_linear_solve", logged)
        _newton_path(_FilledHessian(Ld, 0.0, grid.N), x0, xN, grid, start, 1e-10, 80)
        assert calls[:2] == [(0.0, False), (1e-6, True)]

    def test_nan_jacobian_raises_singular_kkt(self):
        Ld = _FilledHessian(taylor_average(model_from_expr(1, self.MODEL)), np.nan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SingularKKT, match="^stacked Newton system is singular$"):
                solve_boundary_path(Ld, jet1(0.0, 0.0), jet1(3.0, 0.0),
                                    uniform_grid(0.0, 4.0, 10))
        assert caught == []

    def test_nan_jacobian_exits_1(self, tmp_path, capsys, monkeypatch):
        import json

        import varint.cli

        make = varint.cli.make_scheme
        monkeypatch.setattr(varint.cli, "make_scheme",
                            lambda name, L: _FilledHessian(make(name, L), np.nan))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "spline", "name": "bvp", "scheme": "taylor",
            "grid": {"T": 1.0, "N": 10},
            "boundary": {"q0": [0.0], "v0": [1.0], "qN": [1.0], "vN": [0.0]}}))
        out = tmp_path / "out"
        rc = varint.cli.main(["bvp", "--config", str(cfg), "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert [json.loads(x) for x in lines] == [{"error": {
            "message": "stacked Newton system is singular", "type": "solver"}}]
        assert not out.exists() or list(out.iterdir()) == []


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
