import collections
import math

import numpy as np
import pytest

from varint import (JetPoint, JointLimitPenalty, OCProblem, TwoLinkParams,
                    control_effort_cost, controlled_forces, fd_accelerations,
                    free_particle_model, joint_limit_penalty, lift_cost, run,
                    solution_table, solve_ocp, spline_lagrangian,
                    two_link_forces, two_link_model, two_link_problem)
from varint.lagrangian import _Generated
from oracles import dense_taylor_bvp_oracle


def jet(q, v, a=None):
    to = lambda x: np.asarray(x, dtype=float).reshape(-1)
    derivs = (to(v),) if a is None else (to(v), to(a))
    return JetPoint(to(q), derivs)


class TestTwoLinkForces:
    def test_paper_parameters(self):
        P = TwoLinkParams()
        assert P.m1 == 0.375 and P.l1 == 1.5
        assert P.J1 == pytest.approx(0.375 * 1.5**2 / 3.0)
        assert P.J2 == pytest.approx(0.25 * 1.0**2 / 3.0)

    def test_positive_validation(self):
        with pytest.raises(ValueError):
            TwoLinkParams(m1=-1.0)

    def test_downward_rest_is_unforced(self):
        P = TwoLinkParams()
        u = two_link_forces(P, jet([-math.pi / 2, 0.0], [0, 0], [0, 0]))
        assert np.allclose(u, 0.0, atol=1e-14)

    def test_elbow_acceleration_coefficient(self):
        # difference isolates the coefficient of the second acceleration
        P = TwoLinkParams()
        base = two_link_forces(P, jet([0.0, 0.0], [0, 0], [0, 0]))
        with_acc = two_link_forces(P, jet([0.0, 0.0], [0, 0], [0, 1.0]))
        assert (with_acc - base)[1] == pytest.approx(0.25 * P.m2 * P.l2**2 + P.J2)

    def test_two_routes_agree(self, rng):
        # termwise transcription vs the symbolic equations of motion
        P = TwoLinkParams()
        M = two_link_model(P)
        worst = 0.0
        for _ in range(100):
            j = jet(rng.normal(size=2), rng.normal(size=2), rng.normal(size=2))
            worst = max(worst, np.max(np.abs(two_link_forces(P, j)
                                             - controlled_forces(M, j))))
        assert worst <= 1e-9


class TestLiftCost:
    def test_free_particle_gives_spline(self, rng):
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=4)
        lifted = lift_cost(P)
        spline = spline_lagrangian(1)
        for _ in range(10):
            q, v, a = (rng.normal(size=1) for _ in range(3))
            assert lifted.value_at(q, v, a) == pytest.approx(
                spline.value_at(q, v, a), abs=1e-13)
            ga = np.concatenate(lifted.grad_at(q, v, a))
            gb = np.concatenate(spline.grad_at(q, v, a))
            assert np.allclose(ga, gb, atol=1e-12)

    def test_free_particle_block_structure(self, rng):
        # the lifted effort cost is acceleration-quadratic with unit mass
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=4)
        H = lift_cost(P).hess_at(*(rng.normal(size=1) for _ in range(3)))
        assert H.shape == (3, 3)
        assert np.allclose(H, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_two_link_rest_value_zero(self):
        P = two_link_problem(N=4)
        lifted = lift_cost(P)
        assert lifted.value_at(np.array([-math.pi / 2, 0.0]), np.zeros(2),
                               np.zeros(2)) == pytest.approx(0.0, abs=1e-16)

    def test_numeric_fallback_matches_symbolic(self, rng):
        P = two_link_problem(N=4)
        sym = lift_cost(P)
        from varint.control import CostFunction
        import dataclasses
        numeric_cost = CostFunction(fn=lambda q, v, u: 0.5 * float(u @ u))
        Pn = dataclasses.replace(P, cost=numeric_cost)
        num = lift_cost(Pn)
        assert not num.analytic_grad
        for _ in range(10):
            q, v, a = (rng.normal(size=2) for _ in range(3))
            assert num.value_at(q, v, a) == pytest.approx(sym.value_at(q, v, a),
                                                          rel=1e-12)

    def test_penalty_enters_configuration_block(self):
        pen = JointLimitPenalty(n=2, width=0.01)
        P = two_link_problem(N=4, penalty=pen)
        lifted = lift_cost(P)
        inside = lifted.value_at(np.array([0.0, math.radians(85)]), np.zeros(2),
                                 np.zeros(2))
        breached = lifted.value_at(np.array([0.0, -0.1]), np.zeros(2), np.zeros(2))
        assert breached - inside >= 99.0


class TestPenalty:
    def test_flat_region(self):
        assert joint_limit_penalty(math.radians(85.0)) == 0.0
        assert joint_limit_penalty(0.0) == 0.0
        assert joint_limit_penalty(math.radians(170.0)) == 0.0

    def test_linear_slopes(self):
        assert joint_limit_penalty(-0.1) == pytest.approx(100.0)
        assert joint_limit_penalty(math.radians(170.0) + 0.2) == pytest.approx(200.0)

    def test_smoothed_matches_exact_away_from_kinks(self):
        pen = JointLimitPenalty(n=2, width=1e-6)
        for t in (-0.3, 0.5, 1.0, 2.0, 3.2):
            assert pen.value(np.array([0.0, t])) == pytest.approx(
                pen.exact(t), abs=1e-12)

    @pytest.mark.parametrize("bad", [dict(width=0.0), dict(width=-1e-6),
                                     dict(slope=0.0), dict(slope=-1.0),
                                     dict(width=float("nan")),
                                     dict(lo=1.0, hi=1.0), dict(lo=1.0, hi=0.5),
                                     dict(n=1), dict(index=2), dict(index=-1)])
    def test_rejects_bad_settings(self, bad):
        with pytest.raises(ValueError):
            JointLimitPenalty(**{"n": 2, **bad})

    def test_smoothed_gradient_consistent(self):
        pen = JointLimitPenalty(n=2, width=1e-3)
        for t in (-0.1, -1e-4, 5e-4, 0.3, math.radians(170.0) + 2e-4):
            q = np.array([0.0, t])
            num = (pen.value(q + [0, 1e-9]) - pen.value(q - [0, 1e-9])) / 2e-9
            assert pen.grad(q)[1] == pytest.approx(num, rel=1e-4, abs=1e-4)


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


class TestPenalizedStacks:
    """A penalized model's stacks are the base model's stacks with the
    position term added to each row."""

    WIDTHS = (0.5, 1e-3)

    @pytest.fixture(scope="class")
    def models(self):
        # the lifted two-link cost, and penalized ones built from it while
        # every generated evaluator counts its stacks and pointwise calls
        base = lift_cost(two_link_problem(N=4))
        counts = collections.Counter()
        stack, call = _Generated.stack, _Generated.call.func

        def counted_stack(self, X):
            counts["stack"] += 1
            return stack(self, X)

        def counted_call(self):
            pointwise = call(self)

            def counted(y):
                counts["pointwise"] += 1
                return pointwise(y)

            counted.generated = self
            return counted

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Generated, "stack", counted_stack)
            mp.setattr(_Generated, "call", property(counted_call))
            yield base, {w: lift_cost(two_link_problem(
                N=4, penalty=JointLimitPenalty(n=2, width=w))) for w in self.WIDTHS}, counts

    @pytest.mark.parametrize("width", WIDTHS)
    def test_rows_are_base_calls_plus_the_term(self, models, width, rng):
        base, penalized, _ = models
        L, pen = penalized[width], JointLimitPenalty(n=2, width=width)
        lo, hi, w = pen.lo, pen.hi, width
        # theta2 below lo - w, in each blend band, between the bands and
        # above hi + w, four rows each, and the four band edges
        regions = [(lo - w - 1.0, lo - w), (lo - w, lo + w), (lo + w, hi - w),
                   (hi - w, hi + w), (hi + w, hi + w + 1.0)]
        th2 = np.concatenate([rng.uniform(a, b, 4) for a, b in regions]
                             + [[lo - w, lo + w, hi - w, hi + w]])
        X = rng.normal(size=(len(th2), 10))
        X[:, 1] = th2
        jets = X[:, :6]
        assert len(X) >= max(getattr(base, k).generated.min_rows
                             for k in ("value", "grad", "hess", "el4"))
        stacks = L.value_stack(jets), L.grad_stack(jets), L.hess_stack(jets), L.el4_stack(X)
        for i, (x, y) in enumerate(zip(jets, X)):
            # the reference: the base's pointwise calls, with the term added
            # to a copy of each result
            q = x[:2]
            g = np.array(base.grad(x))
            g[:2] += np.asarray(pen.grad(q), dtype=float)
            H = np.array(base.hess(x))
            H[:2, :2] += np.asarray(pen.hess(q), dtype=float)
            want = (base.value(x) + float(pen.value(q)), g, H,
                    base.el4(y) + np.asarray(pen.grad(q), dtype=float))
            got = L.value(x), L.grad(x), L.hess(x), L.el4(y)
            for stack, w_i, g_i in zip(stacks, want, got):
                assert _bytes(stack[i]) == _bytes(w_i) == _bytes(g_i), (i, th2[i])
        assert type(L.value(jets[0])) is float

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kind", ["value", "grad", "hess", "el4"])
    def test_stack_runs_the_bases_generated_stack(self, models, width, kind, rng):
        # one run of the base's generated code on the stack's columns and
        # no pointwise call of it, from the crossover on
        base, penalized, counts = models
        rows = getattr(base, kind).generated.min_rows
        X = rng.normal(size=(rows, 10 if kind == "el4" else 6))
        counts.clear()
        getattr(penalized[width], f"{kind}_stack")(X)
        assert counts == {"stack": 1}


class TestSolveOcp:
    def test_free_particle_matches_dense_oracle(self):
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=20)
        res = solve_ocp(P, scheme="taylor")
        grid = res.path.grid
        ref = dense_taylor_bvp_oracle(JetPoint([0.0], ([0.0],)),
                                      JetPoint([1.0], ([0.0],)), grid)
        sol = np.column_stack([res.path.positions(), res.path.velocities()])
        assert np.max(np.abs(sol - ref)) <= 1e-9

    def test_exact_scheme_reproduces_continuous_minimizer(self):
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=20)
        res = solve_ocp(P, scheme="spline-exact")
        t = res.path.grid.times
        assert np.max(np.abs(res.path.positions()[:, 0]
                             - (3 * t**2 - 2 * t**3))) <= 1e-9

    def test_exact_scheme_rejects_a_penalty(self):
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=20,
                      penalty=JointLimitPenalty(n=1, index=0))
        with pytest.raises(ValueError, match="^spline-exact discretizes only"):
            solve_ocp(P, scheme="spline-exact")

    def test_constant_boundary(self):
        P = OCProblem(free_particle_model(2), control_effort_cost(),
                      qa=[0.4, -0.2], va=[0.0, 0.0], qb=[0.4, -0.2],
                      vb=[0.0, 0.0], T=1.0, N=10)
        res = solve_ocp(P, scheme="taylor")
        assert res.cost == pytest.approx(0.0, abs=1e-18)
        assert np.max(np.abs(res.path.positions() - [0.4, -0.2])) <= 1e-12

    def test_phi_conserved_on_solution(self):
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=20)
        res = solve_ocp(P, scheme="taylor")
        phi = res.path.diagnostics["phi"]
        assert np.max(np.abs(phi - phi[0])) <= 1e-12

    def test_path_matches_step_recursion(self):
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=20)
        res = solve_ocp(P, scheme="taylor")
        replay = run(res.scheme, res.path.states[0], res.path.states[1],
                     res.path.grid)
        dev = max(np.max(np.abs(a.as_array() - b.as_array()))
                  for a, b in zip(replay.states, res.path.states))
        assert dev <= 1e-9

    def test_two_link_short_horizon(self):
        # small swing near the stable equilibrium; checks the lifted pipeline
        P = OCProblem(two_link_model(), control_effort_cost(),
                      qa=[-math.pi / 2, 0.0], va=[0.0, 0.0],
                      qb=[-math.pi / 2 + 0.3, 0.1], vb=[0.0, 0.0], T=2.0, N=16)
        res = solve_ocp(P)
        assert np.max(res.path.diagnostics["del_residual"]) <= 1e-8
        replay = run(res.scheme, res.path.states[0], res.path.states[1],
                     res.path.grid)
        dev = max(np.max(np.abs(a.as_array() - b.as_array()))
                  for a, b in zip(replay.states, res.path.states))
        assert dev <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=1)
        with pytest.raises(ValueError):
            OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0, 1.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=4)
        with pytest.raises(ValueError, match="penalty n = 3 is not the model's 2"):
            two_link_problem(N=4, penalty=JointLimitPenalty(n=3))


class TestSolutionTable:
    def test_free_particle_controls(self):
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=20)
        res = solve_ocp(P, scheme="spline-exact")
        header, rows = solution_table(P, res)
        assert header == ["t", "q0", "v0", "u0"]
        assert rows.shape == (21, 4)
        # for the free particle u equals the acceleration; the solution is the
        # cubic with qddot = 6 - 12 t
        t = rows[:, 0]
        assert np.max(np.abs(rows[:, 3] - (6 - 12 * t))) <= 1e-3

    def test_fd_accelerations_quadratic_exact(self):
        P = OCProblem(free_particle_model(1), control_effort_cost(),
                      qa=[0.0], va=[0.0], qb=[1.0], vb=[0.0], T=1.0, N=10)
        res = solve_ocp(P, scheme="spline-exact")
        acc = fd_accelerations(res.path)
        t = res.path.grid.times
        # differences of the quadratic velocity profile are exact
        assert np.max(np.abs(acc[:, 0] - (6 - 12 * t))) <= 1e-9
