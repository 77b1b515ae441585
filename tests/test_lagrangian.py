import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varint import (JetPoint, LagrangianModel, MechanicalModel,
                    controlled_forces, el_residual, fourth_order_rhs,
                    hessian_W, legendre, named_lagrangian)
from varint.errors import SingularHessian
from varint.lagrangian import (_acceleration_hessian, _column_pow, el_residual_raw,
                              fourth_order_rhs_floats, fourth_order_rhs_raw)

from conftest import model_from_expr


def jet(*vals):
    vals = [np.atleast_1d(np.asarray(v, dtype=float)) for v in vals]
    return JetPoint(vals[0], vals[1:])


def fd_gradient_oracle(f, x, step=1e-6):
    """Independent central-difference gradient used to vet analytic callbacks."""
    g = np.empty_like(x)
    for i in range(x.size):
        d = step * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += d
        xm = x.copy(); xm[i] -= d
        g[i] = (f(xp) - f(xm)) / (2 * d)
    return g


class TestElResidual:
    def test_spline_rest(self, spline1):
        assert el_residual(spline1, jet(0, 0, 0, 0, 0)) == pytest.approx(0.0)

    def test_spline_residual_is_top_derivative(self, spline1, rng):
        for _ in range(5):
            vals = rng.normal(size=5)
            r = el_residual(spline1, jet(*vals))
            assert r[0] == pytest.approx(vals[4], abs=1e-12)

    def test_with_potential(self, spline_potential):
        r = el_residual(spline_potential, jet(1, 0, 0, 0, 0))
        assert r[0] == pytest.approx(1.0, abs=1e-12)

    def test_fd_backed_matches_symbolic(self, spline_potential, rng):
        fd_model = LagrangianModel(1, lambda q, dq, ddq: 0.5 * float(ddq @ ddq)
                                   + 0.5 * float(q @ q))
        for _ in range(5):
            vals = rng.normal(size=5)
            a = el_residual(spline_potential, jet(*vals))
            b = el_residual(fd_model, jet(*vals))
            assert np.allclose(a, b, rtol=2e-4, atol=2e-4)


    @pytest.mark.parametrize("given, tol", [(("grad", "hess"), 2e-9), (("grad",), 5e-6)],
                             ids=["analytic-hessian", "analytic-gradient"])
    def test_difference_branches_match_el4(self, given, tol, rng):
        # models without el4 difference their second partials along the jet
        L = model_from_expr(2, _EL4_EXPR)
        calls = {"grad": lambda *b: L.grad_at(*b), "hess": lambda *b: L.hess_at(*b)}
        M = LagrangianModel(2, lambda *b: L.value_at(*b), **{k: calls[k] for k in given})
        assert M.el4 is None and M.analytic_hess == ("hess" in given)
        for x in np.vstack([_el4_points(), rng.normal(size=(10, 10))]):
            ref = L.el4_at(*x.reshape(5, 2))
            got = el_residual_raw(M, *x.reshape(5, 2))
            assert np.max(np.abs(got - ref)) <= tol * (1.0 + np.max(np.abs(ref)))


class TestFourthOrderRhs:
    def test_spline_flat(self, spline1, rng):
        for _ in range(5):
            assert fourth_order_rhs(spline1, jet(*rng.normal(size=4)))[0] == \
                pytest.approx(0.0, abs=1e-14)

    def test_potential_restoring(self, spline_potential):
        out = fourth_order_rhs(spline_potential, jet(0.7, 0, 0, 0))
        assert out[0] == pytest.approx(-0.7, abs=1e-12)

    def test_roundtrip_residual(self, spline_potential, rng):
        for _ in range(10):
            j3 = jet(*rng.normal(size=4))
            q4 = fourth_order_rhs(spline_potential, j3)
            full = JetPoint(j3.q, (*[j3.deriv(i) for i in range(1, 4)], q4))
            assert abs(el_residual(spline_potential, full)[0]) <= 1e-10

    def test_roundtrip_fd_backed(self, rng):
        fd_model = LagrangianModel(1, lambda q, dq, ddq: 0.5 * float(ddq @ ddq)
                                   + np.cos(float(q[0])) * float(dq[0]))
        for _ in range(5):
            j3 = jet(*rng.normal(size=4))
            q4 = fourth_order_rhs(fd_model, j3)
            full = JetPoint(j3.q, (*[j3.deriv(i) for i in range(1, 4)], q4))
            assert abs(el_residual(fd_model, full)[0]) <= 1e-10

    def test_singular_hessian_rejected(self):
        degenerate = model_from_expr(1, "ddq0*dq0")
        with pytest.raises(SingularHessian):
            fourth_order_rhs(degenerate, jet(0.0, 1.0, 2.0, 3.0))


def _solve_per_member(L, Y):
    """q4 of each row of Y by the general route: W at the row and its own
    LAPACK solve."""
    n = L.n
    W, regular = _acceleration_hessian(L, Y[:, :3 * n])
    assert regular.all()
    R = L.el4_stack(np.hstack([Y, np.zeros((len(Y), n))]))
    return np.array([np.linalg.solve(w, -r) for w, r in zip(W, R)])


class TestConstantAccelerationHessian:
    """A model whose W does not depend on the jet and is regular stores W^-1
    when built, and its right-hand side multiplies by it."""

    @pytest.mark.parametrize("name, n", [("spline", 1), ("spline", 2),
                                         ("spline-potential", 1),
                                         ("spline-potential", 2),
                                         ("spline-velocity", 1)])
    def test_spline_family_equals_general_path(self, name, n, rng):
        L = named_lagrangian(name, n)
        assert np.array_equal(L._W_inv, np.eye(n))
        for M in (1, 4, 40):
            Y = rng.normal(size=(M, 4 * n)) * 10.0 ** rng.integers(-3, 4, size=(M, 4 * n))
            assert np.array_equal(fourth_order_rhs_raw(L, Y), _solve_per_member(L, Y))

    def test_skips_the_per_stage_hessian(self, spline2, rng, monkeypatch):
        import varint.lagrangian as lag
        Y = rng.normal(size=(4, 8))
        expected = fourth_order_rhs_raw(spline2, Y)

        def forbidden(*args):
            raise AssertionError("W rebuilt for a constant-W model")
        monkeypatch.setattr(lag, "_acceleration_hessian", forbidden)
        monkeypatch.setattr(lag.np.linalg, "solve", forbidden)
        monkeypatch.setattr(lag.np.linalg, "det", forbidden)
        assert np.array_equal(fourth_order_rhs_raw(spline2, Y), expected)

    def test_constant_non_identity_W(self, rng):
        L = model_from_expr(2, "ddq0**2 + ddq0*ddq1/2 + ddq1**2 + q0**2*dq1")
        W, regular = hessian_W(L, JetPoint(np.ones(2), (np.ones(2), np.ones(2))))
        assert regular and np.array_equal(W, [[2.0, 0.5], [0.5, 2.0]])
        assert L._W_inv is not None
        for M in (1, 4, 40):
            Y = rng.normal(size=(M, 8)) * 10.0 ** rng.integers(-3, 4, size=(M, 8))
            got, ref = fourth_order_rhs_raw(L, Y), _solve_per_member(L, Y)
            # 4 ulp of each member's largest entry
            tol = 4 * np.finfo(float).eps * np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= tol)
            # each row depends on its own member only, on floats alike
            assert np.array_equal(got, [fourth_order_rhs_raw(L, y[None])[0] for y in Y])
            assert np.array_equal(got, [fourth_order_rhs_floats(L)(y) for y in Y.tolist()])

    def test_singular_W_builds_and_raises_on_first_call(self):
        degenerate = model_from_expr(1, "ddq0*dq0")
        assert degenerate._W_inv is None
        with pytest.raises(SingularHessian,
                           match="^acceleration Hessian of lagrangian is singular at this jet$"):
            fourth_order_rhs_raw(degenerate, np.array([[0.0, 1.0, 2.0, 3.0]]))

    def test_position_term_keeps_stored_W(self, spline_potential):
        model = spline_potential.with_position_term(
            lambda q: float(q[0] ** 4), lambda q: 4 * q ** 3, lambda q: np.diag(12 * q ** 2))
        assert model._W_inv is not None and model._W_inv is spline_potential._W_inv

    def test_jet_dependent_and_fd_models_store_none(self, stacked_models):
        models = dict(stacked_models)
        for name in ("lifted-two-link", "fd-value-only", "from-sympy"):
            assert models[name]._W_inv is None, name


class TestLegendre:
    def test_spline_values(self, spline1):
        p = legendre(spline1, jet(1, 2, 3, 4))
        assert np.allclose(p.as_array(), [1, 2, -4, 3])

    def test_spline_zero(self, spline1):
        assert np.allclose(legendre(spline1, jet(0, 0, 0, 0)).as_array(), 0.0)

    def test_acceleration_plus_velocity(self):
        model = model_from_expr(1, "ddq0**2/2 + dq0")
        p = legendre(model, jet(0, 1, 2, 3))
        assert p.p[0] == pytest.approx(1 - 3)
        assert p.pt[0] == pytest.approx(2)

    def test_spline_identity(self, spline2, rng):
        for _ in range(5):
            vals = rng.normal(size=(4, 2))
            p = legendre(spline2, JetPoint(vals[0], tuple(vals[1:])))
            assert np.allclose(p.p, -vals[3]) and np.allclose(p.pt, vals[2])


class TestHessianW:
    def test_spline_identity(self, spline2):
        W, ok = hessian_W(spline2, JetPoint(np.zeros(2), (np.zeros(2), np.zeros(2))))
        assert ok and np.allclose(W, np.eye(2))

    def test_configuration_dependent(self):
        model = model_from_expr(1, "(1 + q0**2)*ddq0**2/2")
        W, ok = hessian_W(model, jet(1.0, 0.0, 0.0))
        assert ok and W[0, 0] == pytest.approx(2.0)

    def test_linear_in_acceleration(self):
        model = model_from_expr(1, "ddq0*dq0")
        W, ok = hessian_W(model, jet(0.0, 1.0, 2.0))
        assert not ok and W[0, 0] == pytest.approx(0.0)


class TestControlledForces:
    def test_free_particle(self, rng):
        import sympy as sp
        q, dq = sp.symbols("q0:1"), sp.symbols("dq0:1")
        M = MechanicalModel.from_sympy(1, dq[0] ** 2 / 2, q, dq)
        for _ in range(5):
            vals = rng.normal(size=3)
            u = controlled_forces(M, jet(*vals))
            assert u[0] == pytest.approx(vals[2], abs=1e-12)

    def test_free_trajectory_zero_force(self, rng):
        import sympy as sp
        q, dq = sp.symbols("q0:1"), sp.symbols("dq0:1")
        # pendulum-style system; along its own flow the forces vanish
        M = MechanicalModel.from_sympy(1, dq[0] ** 2 / 2 + sp.cos(q[0]), q, dq)
        for _ in range(5):
            qv, vv = rng.normal(size=2)
            acc = -np.sin(qv)  # equation of motion of this model
            u = controlled_forces(M, jet(qv, vv, acc))
            assert abs(u[0]) <= 1e-12


class TestDerivativeConsistency:
    def test_grad_matches_fd(self, rng):
        import sympy as sp
        n = 2
        q = sp.symbols(f"q0:{n}")
        dq = sp.symbols(f"dq0:{n}")
        ddq = sp.symbols(f"ddq0:{n}")
        expr = (sp.cos(q[0]) * ddq[0] ** 2 / 2 + ddq[1] ** 2 / 2
                + dq[0] * dq[1] * q[1] + sp.sin(q[1]) * ddq[0])
        model = LagrangianModel.from_sympy(n, expr, q, dq, ddq)

        def value(x):
            return model.value_at(x[:n], x[n:2 * n], x[2 * n:])

        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=3 * n)
            g = np.concatenate(model.grad_at(x[:n], x[n:2 * n], x[2 * n:]))
            ref = fd_gradient_oracle(value, x)
            worst = max(worst, np.max(np.abs(g - ref)) / (1 + np.max(np.abs(ref))))
        assert worst <= 1e-5

    def test_hess_matches_fd(self, rng):
        import sympy as sp
        n = 2
        q = sp.symbols(f"q0:{n}")
        dq = sp.symbols(f"dq0:{n}")
        ddq = sp.symbols(f"ddq0:{n}")
        expr = sp.cos(q[0]) * ddq[0] ** 2 / 2 + ddq[1] ** 2 / 2 + dq[0] * dq[1] * q[1]
        model = LagrangianModel.from_sympy(n, expr, q, dq, ddq)

        def grad(x):
            return np.concatenate(model.grad_at(x[:n], x[n:2 * n], x[2 * n:]))

        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=3 * n)
            H = model.hess_at(x[:n], x[n:2 * n], x[2 * n:])
            ref = np.column_stack([fd_gradient_oracle(lambda y, i=i: grad(y)[i], x)
                                   for i in range(3 * n)])
            worst = max(worst, np.max(np.abs(H - ref)) / (1 + np.max(np.abs(ref))))
        assert worst <= 1e-5

    def test_hessian_symmetry(self, rng):
        model = model_from_expr(2, "cos(q0)*ddq0**2/2 + ddq1**2/2 + dq0*dq1*q1")
        x = rng.normal(size=6)
        H = model.hess_at(x[:2], x[2:4], x[4:])
        assert np.allclose(H, H.T, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_fd_fallbacks_match_sympy(self, order, rng):
        # value-only and value+grad models share the finite-difference
        # fallbacks across jet orders
        import sympy as sp
        n = 2
        blocks = [sp.symbols(f"{p}0:{n}") for p in ("q", "dq", "ddq")[:order + 1]]
        q, dq = blocks[:2]
        expr = (sp.cos(q[0]) * dq[0] ** 2 / 2 + dq[1] ** 2 / 2
                + dq[0] * dq[1] * q[1] + sp.sin(q[1]))
        if order == 2:
            ddq = blocks[2]
            expr += (sp.cos(q[0]) * ddq[0] ** 2 / 2 + ddq[1] ** 2 / 2
                     + sp.sin(q[1]) * ddq[0])
        cls = MechanicalModel if order == 1 else LagrangianModel
        exact = cls.from_sympy(n, expr, *blocks)
        value_only = cls(n, exact.value_at)
        with_grad = cls(n, exact.value_at, grad=exact.grad_at)
        assert not value_only.analytic_grad and not with_grad.analytic_hess

        def rel(a, b):
            return np.max(np.abs(a - b)) / (1 + np.max(np.abs(b)))

        worst = 0.0
        for _ in range(20):
            x = np.split(rng.normal(size=(order + 1) * n), order + 1)
            g, H = np.concatenate(exact.grad_at(*x)), exact.hess_at(*x)
            assert H.shape == ((order + 1) * n, (order + 1) * n)
            for model in (value_only, with_grad):
                blocks_fd = model.grad_at(*x)
                assert len(blocks_fd) == order + 1
                H_fd = model.hess_at(*x)
                assert np.array_equal(H_fd, H_fd.T)
                worst = max(worst, rel(np.concatenate(blocks_fd), g), rel(H_fd, H))
        assert worst <= 1e-5


@pytest.fixture(scope="module")
def stacked_models(spline1, spline_potential):
    """(name, model): the stacked calls run lambdified code on columns for
    models built from sympy and loop over rows for the others."""
    from varint import lift_cost, two_link_problem
    fd_value_only = LagrangianModel(
        2, lambda q, dq, ddq: 0.5 * float(ddq @ ddq) + float(np.sin(q[0]) * dq[1] ** 2))
    return [
        ("spline1", spline1),     # a constant Hessian
        ("from-sympy", model_from_expr(
            2, "cos(q0)*ddq0**2/2 + ddq1**2/2 + dq0*dq1*q1 + q0**3 + sqrt(1 + dq1**2)")),
        ("fd-value-only", fd_value_only),
        ("with-position-term", spline_potential.with_position_term(
            lambda q: float(q[0] ** 4), lambda q: 4 * q ** 3,
            lambda q: np.diag(12 * q ** 2))),
        ("lifted-two-link", lift_cost(two_link_problem(N=4))),
    ]


class TestStackedCalls:
    def test_stacks_equal_pointwise_calls(self, stacked_models, rng):
        for name, L in stacked_models:
            n, M = L.n, 40 if name == "fd-value-only" else 400
            # magnitudes from 1e-3 to 1e3, where a float64 square and the C
            # pow of a float64 scalar can differ in the last bit
            X = rng.normal(size=(M, 5 * n)) * 10.0 ** rng.integers(-3, 4, size=(M, 5 * n))
            jets = X[:, :3 * n]
            assert np.array_equal(L.value_stack(jets),
                                  [L.value_at(*x.reshape(3, n)) for x in jets]), name
            assert np.array_equal(L.grad_stack(jets),
                                  [np.concatenate(L.grad_at(*x.reshape(3, n)))
                                   for x in jets]), name
            assert np.array_equal(L.hess_stack(jets),
                                  [L.hess_at(*x.reshape(3, n)) for x in jets]), name
            el4 = L.el4_stack(X)
            if L.el4_at(*X[0].reshape(5, n)) is None:
                assert el4 is None, name
            else:
                assert np.array_equal(el4, [L.el4_at(*x.reshape(5, n)) for x in X]), name

    def test_one_row_stack(self, stacked_models, rng):
        for name, L in stacked_models:
            x = rng.normal(size=(1, 3 * L.n))
            assert L.value_stack(x).shape == (1,)
            assert L.grad_stack(x).shape == (1, 3 * L.n)
            assert L.hess_stack(x).shape == (1, 3 * L.n, 3 * L.n)
            assert L.value_stack(x)[0] == L.value_at(*x[0].reshape(3, L.n)), name

    def test_columns_from_the_crossover(self, stacked_models):
        # a constant Hessian runs on columns from one row; the lifted
        # two-link Hessian and el4 loop over the rows of a shooting
        # Jacobian's 2n-member stack, where that is measurably faster
        models = dict(stacked_models)
        assert models["spline1"].hess.generated.min_rows == 1
        lifted = models["lifted-two-link"]
        assert lifted.hess.generated.min_rows > 2 * lifted.n
        assert lifted.el4.generated.min_rows > 2 * lifted.n

    def test_min_rows_from_the_bytecode(self, stacked_models):
        # 1 + floor(log2) of the operator and call instructions: 284 in the
        # lifted two-link Hessian and 444 in its el4
        lifted = dict(stacked_models)["lifted-two-link"]
        assert [getattr(lifted, d).generated.min_rows
                for d in ("value", "grad", "hess", "el4")] == [6, 7, 9, 9]

    def test_action_assembler_equals_pointwise_loops(self, stacked_models, rng):
        # the spectral solver's action, gradient and Hessian take their node
        # values from the stacks, with the sums of per-node pointwise calls
        from varint.bvp import _ActionAssembler
        for name, L in stacked_models:
            n, h = L.n, 0.3
            asm = _ActionAssembler(L, 8, JetPoint(rng.normal(size=n), (rng.normal(size=n),)), h)
            coeffs = rng.normal(size=(9, n))
            Y = asm.jets(coeffs)
            action = float(sum(w * L.value(y) for w, y in zip(asm.wq, Y)))
            G, W = np.array([L.grad(y) for y in Y]), asm.wq[:, None]
            grad = (h * h * asm.B2.T @ (W * G[:, :n]) + h * asm.B1.T @ (W * G[:, n:2 * n])
                    + asm.B0.T @ (W * G[:, 2 * n:]))
            hess, I = np.zeros((9 * n, 9 * n)), np.eye(n)
            for g, (w, y) in enumerate(zip(asm.wq, Y)):
                Bg = np.vstack([h * h * np.kron(asm.B2[g], I), h * np.kron(asm.B1[g], I),
                                np.kron(asm.B0[g], I)])
                hess += w * (Bg.T @ L.hess(y) @ Bg)
            assert _same_bits(asm.action(coeffs), action), name
            assert _same_bits(asm.gradient(coeffs), grad), name
            assert _same_bits(asm.hessian(coeffs), hess), name


_EL4_EXPR = "cos(q0)*ddq0**2/2 + ddq1**2/2 + dq0*dq1*q1 + q0**3 + sqrt(1 + dq1**2)"
# el4 of _EL4_EXPR at the rows of _el4_points(), from the model that derived
# and lambdified its el4 inside from_sympy
_EL4_EAGER = [["0x1.78202ece96e4ep+2", "-0x1.25f5e2f342299p+0"],
              ["0x1.946cd9b12c184p-1", "0x1.c11b58bf06a8bp-2"],
              ["-0x1.c29de5d74cb26p+1", "0x1.0eb4400235ebep-2"]]


def _el4_points():
    return np.linspace(-1.3, 1.7, 30).reshape(3, 10)


class TestLazyEl4:
    @pytest.fixture
    def lambdified(self, monkeypatch):
        """Shapes of every expression the model code lambdifies."""
        import varint.lagrangian as lag
        shapes, real = [], lag._lambdify

        def counted(args, expr):
            shapes.append(getattr(expr, "shape", ()))
            return real(args, expr)

        monkeypatch.setattr(lag, "_lambdify", counted)
        return shapes

    def test_built_on_first_use(self, lambdified):
        L = model_from_expr(2, _EL4_EXPR)
        assert lambdified == []                          # nothing when built
        L.value_stack(_el4_points()[:, :6])
        L.hess_stack(_el4_points()[:, :6])
        assert lambdified == [(), (6, 6)]                # value, Hessian
        x = _el4_points()[0].reshape(5, 2)
        first = L.el4_at(*x)
        assert lambdified[2:] == [(2, 1)]
        assert np.array_equal(L.el4_at(*x), first)
        L.el4_stack(np.repeat(_el4_points(), 4, axis=0))
        assert len(lambdified) == 3                      # generated once

    def test_shipped_models_build_without_code(self, lambdified):
        from varint.control import lift_cost, two_link_model, two_link_problem
        models = [named_lagrangian(name, 2)
                  for name in ("spline", "spline-potential", "spline-velocity")]
        models += [two_link_model(), lift_cost(two_link_problem(N=4))]
        assert lambdified == []
        for L in models:
            y = _el4_points()[0, :(L.order + 1) * L.n]
            for call in (L.value, L.grad, L.hess, L.value, L.grad, L.hess):
                call(y)
        m = [(L.order + 1) * L.n for L in models]
        assert lambdified == [s for k in m for s in [(), (k, 1), (k, k)]]

    def test_values_equal_eager_model(self):
        ref = np.array([[float.fromhex(v) for v in row] for row in _EL4_EAGER])
        X = _el4_points()
        on_rows = model_from_expr(2, _EL4_EXPR)
        got = np.array([on_rows.el4_at(*x.reshape(5, 2)) for x in X])
        assert got.tobytes() == ref.tobytes()
        on_columns = model_from_expr(2, _EL4_EXPR)
        stack = np.repeat(X, 4, axis=0)
        got = on_columns.el4_stack(stack)[::4]
        assert len(stack) >= on_columns.el4.generated.min_rows
        assert got.tobytes() == ref.tobytes()

    def test_position_term_keeps_el4(self):
        L = model_from_expr(2, _EL4_EXPR)
        Lp = L.with_position_term(lambda q: float(q[0] ** 4), lambda q: 4 * q ** 3,
                                  lambda q: np.diag(12 * q ** 2))
        x = _el4_points()[1].reshape(5, 2)
        assert np.array_equal(Lp.el4_at(*x), L.el4_at(*x) + 4 * x[0] ** 3)
        assert Lp.el4_stack(_el4_points()) is not None

    def test_models_without_el4(self):
        L = LagrangianModel(1, lambda q, dq, ddq: 0.5 * float(ddq @ ddq))
        assert L.el4_at(*np.ones((5, 1))) is None
        assert L.el4_stack(np.ones((3, 5))) is None
        Lp = L.with_position_term(lambda q: 0.0, lambda q: 0 * q, lambda q: np.zeros((1, 1)))
        assert Lp.el4_at(*np.ones((5, 1))) is None


def _numpy_calls(L):
    """The generated value, gradient, Hessian and el4 code of a sympy model,
    lambdified anew and called on numpy scalars, as flat-jet calls."""
    import sympy as sp
    from varint.lagrangian import _lambdify
    expr, *blocks = L.sympy_data
    args = [s for b in blocks for s in b]
    grads = [sp.diff(expr, s) for s in args]
    f_val, f_grad = _lambdify(args, expr), _lambdify(args, sp.Matrix(grads))
    f_hess = _lambdify(args, sp.Matrix([[sp.diff(g, s) for s in args] for g in grads]))
    return (lambda y: float(f_val(*y)),
            lambda y: np.asarray(f_grad(*y), dtype=float).reshape(-1),
            lambda y: np.asarray(f_hess(*y), dtype=float),
            lambda y: np.asarray(L.el4.generated.f(*y), dtype=float).reshape(-1))


def _log_jets(rng, M, m):
    """M flat jets of length m, magnitudes log-uniform in [1e-3, 1e3], either sign."""
    return rng.choice([-1.0, 1.0], size=(M, m)) * 10.0 ** rng.uniform(-3, 3, size=(M, m))


def _scalar_pow(b, e):
    # the power per element on numpy float64 scalars
    pairs = np.broadcast(b, e)
    return np.array([x ** y for x, y in pairs], dtype=float).reshape(pairs.shape)


def _quiet(x):
    # math.pow gives 1.0 for a signaling nan to the power 0, numpy a nan
    # and a warning; no arithmetic makes one, so the draws leave them out
    return x == x or struct.pack(">d", x)[1] & 0x08


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, -1e-310, 1e300, -1e300, 1e-300, -1.5, 1.0, -1.0]
_BASES = st.one_of(st.sampled_from(_SPECIAL), st.floats().filter(_quiet))
_EXPONENTS = st.one_of(st.sampled_from([2, 3, 4, -2, -3, 0, 0.5, 1.5, -1.5, 1 / 3, 2.0]),
                       st.sampled_from(_SPECIAL), st.floats(-400, 400))


@settings(max_examples=400, deadline=None)
@given(pairs=st.lists(st.tuples(_BASES, _EXPONENTS), min_size=1, max_size=12),
       columns=st.sampled_from(["base", "exponent", "both"]))
def test_column_pow_equals_numpy_scalars(pairs, columns):
    # bytes and warnings alike, overflow, domain errors, +-0, +-inf, nans of
    # either sign, subnormals and negative bases under fractional exponents
    # included; a column meets a number or another column
    b, e = (np.array(column) if columns in (side, "both") else column[0]
            for side, column in zip(("base", "exponent"), zip(*pairs)))

    def run(power):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = power(b, e)
        return out.shape, out.tobytes(), [(w.category, str(w.message)) for w in seen]

    assert run(_column_pow) == run(_scalar_pow)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPointwiseKernel:
    """Generated code on Python floats, with numpy's results bit for bit."""

    @pytest.fixture(scope="class")
    def sympy_models(self, stacked_models, spline_potential):
        return [(name, L) for name, L in stacked_models if L.sympy_data is not None] + [
            ("spline-potential", spline_potential)]

    def test_equals_numpy_scalars(self, sympy_models, rng):
        names = [name for name, _ in sympy_models]
        assert "lifted-two-link" in names and "from-sympy" in names
        for name, L in sympy_models:
            n = L.n
            value, grad, hess, el4 = _numpy_calls(L)
            for y in _log_jets(rng, 300, 5 * n):
                x = y[:3 * n]
                assert _same_bits(L.value(x), value(x)), name
                assert _same_bits(L.grad(x), grad(x)), name
                assert _same_bits(L.hess(x), hess(x)), name
                assert _same_bits(L.el4(y), el4(y)), name

    @pytest.mark.parametrize("expr,x", [
        ("q0**3 + ddq0**2/2", [1e200, 1.0, 1.0]),          # math.pow overflows
        ("sqrt(q0) + ddq0**2/2", [-4.0, 1.0, 1.0]),        # math domain error
        ("1/q0 + ddq0**2/2", [0.0, 1.0, 1.0]),             # division by zero
        ("cos(q0)*ddq0**2/2 + dq0**4", [np.inf, 2.0, 1.0]),
        ("cos(q0)*ddq0**2/2 + dq0**4", [np.nan, 2.0, -np.inf]),
        ("cos(q0)*ddq0**2/2 + dq0**4", [-np.inf, np.nan, 1.0]),
    ])
    def test_falls_back_to_numpy(self, expr, x):
        L = model_from_expr(1, expr)
        value, grad, hess, el4 = _numpy_calls(L)
        x = np.array(x)
        y = np.concatenate([x, [0.5, -0.25]])
        with np.errstate(all="ignore"):
            got = L.value(x), L.grad(x), L.hess(x), L.el4(y)
            ref = value(x), grad(x), hess(x), el4(y)
        assert not np.all(np.isfinite(np.concatenate([np.ravel(r) for r in ref])))
        for a, b in zip(got, ref):
            assert _same_bits(a, b)

    def test_block_wrappers(self, stacked_models, rng):
        for name, L in stacked_models:
            n = L.n
            y = rng.normal(size=5 * n)
            x = y[:3 * n]
            blocks = x.reshape(3, n)
            assert L.value_at(*blocks) == L.value(x), name
            assert _same_bits(np.concatenate(L.grad_at(*blocks)), L.grad(x)), name
            assert _same_bits(L.hess_at(*blocks), L.hess(x)), name
            if L.el4 is None:
                assert L.el4_at(*y.reshape(5, n)) is None, name
            else:
                assert _same_bits(L.el4_at(*y.reshape(5, n)), L.el4(y)), name
