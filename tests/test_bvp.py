import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from varint import (JetPoint, endpoints_to_w, exact_Ld, integrate_el,
                    legendre_match_errors, lift_cost, shooting_bvp, solve_regularized,
                    two_link_problem)
from varint.bvp import GAMMA, _ActionAssembler, _basis_tables, _rk4
from varint.errors import UnsettledSubsteps

from conftest import model_from_expr


def jet1(q, v):
    to = lambda x: np.atleast_1d(np.asarray(x, dtype=float))
    return JetPoint(to(q), (to(v),))


def quad(f, a, b):
    """Independent adaptive quadrature oracle on [a, b]."""
    val, _ = scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def basis_oracle(i, s):
    """Closed form of basis function i: sqrt(3)(1 - 2s), 1, then the shifted
    Legendre polynomials scaled to unit norm on [0, 1]."""
    if i == 0:
        return math.sqrt(3.0) * (1.0 - 2.0 * s)
    if i == 1:
        return 1.0
    return math.sqrt(2 * i + 1) * float(scipy.special.eval_sh_legendre(i, s))


class TestBasis:
    def test_k2_change_matrix(self):
        ref = np.array([[1.0 / (2.0 * math.sqrt(3.0)), 0.5], [0.0, 1.0]])
        assert np.allclose(GAMMA, ref, atol=1e-14)
        # the b-basis is the documented one
        u, _, B0, _, _ = _basis_tables(4, 7)
        assert np.allclose(B0[:, 0], math.sqrt(3.0) * (1 - 2 * u))
        assert np.allclose(B0[:, 1], 1.0)

    def test_gamma_reproduces_constraints(self):
        # GAMMA expands the constraint polynomials (1 - s, 1) in (b0, b1)
        u, _, B0, _, _ = _basis_tables(2, 11)
        combo = B0[:, :2] @ GAMMA.T
        assert np.allclose(combo[:, 0], 1.0 - u, atol=1e-12)
        assert np.allclose(combo[:, 1], 1.0, atol=1e-12)

    def test_tables_match_closed_forms(self):
        # values and first two antiderivatives from 0 at the nodes against the
        # closed forms integrated by adaptive quadrature; the closed forms are
        # orthonormal under the same oracle
        degree = 6
        u, _, B0, B1, B2 = _basis_tables(degree, 9)
        for i in range(degree + 1):
            f = lambda x, i=i: basis_oracle(i, x)
            for g, s in enumerate(u):
                assert B0[g, i] == pytest.approx(f(s), abs=1e-12)
                assert B1[g, i] == pytest.approx(quad(f, 0.0, s), abs=1e-12)
                # Cauchy's formula for the repeated integral
                assert B2[g, i] == pytest.approx(
                    quad(lambda x: (s - x) * f(x), 0.0, s), abs=1e-12)
            for j in range(degree + 1):
                ref = quad(lambda x: f(x) * basis_oracle(j, x), 0.0, 1.0)
                assert ref == pytest.approx(float(i == j), abs=1e-11)

    def test_extended_basis_orthonormal(self, spline1):
        # orthonormal under the Gauss rule the action assembler integrates with
        asm = _ActionAssembler(spline1, 6, jet1(0.0, 0.0), 0.5)
        G = asm.B0.T @ (asm.wq[:, None] * asm.B0)
        assert np.allclose(G, np.eye(7), atol=1e-12)


class TestEndpointData:
    def test_straight_line(self):
        w = endpoints_to_w(jet1(0, 1), jet1(0.5, 1), 0.5)
        assert np.allclose(w, 0.0, atol=1e-14)

    def test_unit_displacement(self):
        w = endpoints_to_w(jet1(0, 0), jet1(1, 0), 1.0)
        z = GAMMA @ w
        assert z[0, 0] == pytest.approx(1.0)
        assert z[1, 0] == pytest.approx(0.0)
        assert w[0, 0] == pytest.approx(2.0 * math.sqrt(3.0))
        assert w[1, 0] == pytest.approx(0.0)

    def test_roundtrip(self, rng):
        # the right endpoint is recovered from w: q2 = q1 + h v1 + h^2 z0,
        # v2 = v1 + h z1 with z = GAMMA @ w
        for _ in range(20):
            a = jet1(rng.normal(), rng.normal())
            b = jet1(rng.normal(), rng.normal())
            h = float(rng.uniform(0.05, 2.0))
            z = GAMMA @ endpoints_to_w(a, b, h)
            q2 = a.q + h * a.deriv(1) + h * h * z[0]
            v2 = a.deriv(1) + h * z[1]
            assert np.allclose(np.concatenate([q2, v2]), b.as_array(), atol=1e-12)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            endpoints_to_w(jet1(0, 0), jet1(1, 0), 0.0)

    def test_mismatched_jets_rejected(self):
        with pytest.raises(ValueError):
            endpoints_to_w(jet1(0, 0), jet1([1, 2], [0, 0]), 0.5)


class TestReconstruct:
    """Velocity and position curves recovered from the acceleration
    coefficients by :meth:`_ActionAssembler.curves`."""

    def curves(self, L, coeffs, q1jet, h):
        asm = _ActionAssembler(L, len(coeffs) - 1, q1jet, h)
        Q0, Q1, Q2 = asm.curves(np.asarray(coeffs, dtype=float)[:, None])
        return asm.u, Q0[:, 0], Q1[:, 0], Q2[:, 0]

    def test_free_drift(self, spline1):
        u, Q0, Q1, Q2 = self.curves(spline1, [0.0, 0.0, 0.0, 0.0], jet1(0.3, 0.7), 0.5)
        assert np.allclose(Q0, 0.3 + 0.5 * u * 0.7, atol=1e-14)
        assert np.allclose(Q1, 0.7, atol=1e-14)
        assert np.allclose(Q2, 0.0, atol=1e-14)

    def test_constant_curve_single_integral(self, spline1):
        # constant curve c: coefficient on the constant basis element (index 1)
        c = 1.7
        u, _, Q1, _ = self.curves(spline1, [0.0, c, 0.0, 0.0], jet1(0.3, 0.7), 0.5)
        assert np.allclose(Q1, 0.7 + 0.5 * c * u, atol=1e-13)

    def test_constant_curve_double_integral(self, spline1):
        c = 1.7
        u, Q0, _, _ = self.curves(spline1, [0.0, c, 0.0, 0.0], jet1(0.3, 0.7), 0.5)
        ref = 0.3 + 0.5 * u * 0.7 + 0.25 * c * u * u / 2.0
        assert np.allclose(Q0, ref, atol=1e-13)


class TestActionGradient:
    def test_pure_acceleration_identity(self, spline1, rng):
        # for L = |qddot|^2/2 the gradient is the coefficient vector itself
        coeffs = rng.normal(size=6)
        asm = _ActionAssembler(spline1, 5, jet1(0.4, -0.2), 0.7)
        g = asm.gradient(coeffs[:, None])
        assert np.allclose(g[:, 0], coeffs, atol=1e-12)

    def test_matches_fd_of_action(self, spline_potential, rng):
        coeffs = rng.normal(size=(5, 1))
        asm = _ActionAssembler(spline_potential, 4, jet1(0.1, 0.3), 0.6)
        g = asm.gradient(coeffs)
        step = 1e-6
        for i in range(coeffs.size):
            cp = coeffs.copy(); cp[i, 0] += step
            cm = coeffs.copy(); cm[i, 0] -= step
            ref = (asm.action(cp) - asm.action(cm)) / (2 * step)
            assert g[i, 0] == pytest.approx(ref, abs=1e-6)

    def test_hessian_matches_fd_of_gradient(self, spline_potential, rng):
        coeffs = rng.normal(size=(5, 1))
        asm = _ActionAssembler(spline_potential, 4, jet1(0.1, 0.3), 0.6)
        H = asm.hessian(coeffs)
        step = 1e-6
        for i in range(coeffs.size):
            cp = coeffs.copy(); cp[i, 0] += step
            cm = coeffs.copy(); cm[i, 0] -= step
            ref = (asm.gradient(cp) - asm.gradient(cm))[:, 0] / (2 * step)
            assert np.allclose(H[:, i], ref, atol=1e-6)

    @pytest.mark.parametrize("n, expr", [(1, "ddq0**2/2 + q0**2/2"),
                                         (2, "ddq0**2 + ddq0*ddq1/2 + ddq1**2 + q0**2*dq1"),
                                         (2, "ddq0**2/2 + ddq1**2/2 + cos(q0)*dq1**2")])
    def test_hessian_bytes_equal_the_per_node_formula(self, n, expr, rng):
        # the node maps, built once per assembler, give the bytes of the
        # maps built per node on every call, summed in the same order
        L = model_from_expr(n, expr)
        h, degree = 0.6, 6
        asm = _ActionAssembler(L, degree, JetPoint(rng.normal(size=n), (rng.normal(size=n),)), h)
        I = np.eye(n)
        for _ in range(3):
            coeffs = rng.normal(size=(degree + 1, n))
            ref = np.zeros(((degree + 1) * n, (degree + 1) * n))
            for g, (w, Hf) in enumerate(zip(asm.wq, L.hess_stack(asm.jets(coeffs)))):
                Bg = np.vstack([h * h * np.kron(asm.B2[g], I), h * np.kron(asm.B1[g], I),
                                np.kron(asm.B0[g], I)])
                ref += w * (Bg.T @ Hf @ Bg)
            assert asm.hessian(coeffs).tobytes() == ref.tobytes()

    def test_stationary_at_zero(self, spline1):
        asm = _ActionAssembler(spline1, 4, jet1(0.2, 0.9), 0.3)
        assert np.allclose(asm.gradient(np.zeros((5, 1))), 0.0, atol=1e-14)


class TestSolveRegularized:
    def test_recovers_connecting_cubic(self, spline1, rng):
        for _ in range(10):
            a = jet1(rng.normal(), rng.normal())
            b = jet1(rng.normal(), rng.normal())
            h = float(rng.uniform(0.2, 1.5))
            coeffs = solve_regularized(spline1, a, b, h, degree=5)
            assert coeffs.shape == (6, 1)
            # free coefficients vanish: the solution is the connecting cubic
            assert np.max(np.abs(coeffs[2:])) <= 1e-12
            c2 = (3 * (b.q - a.q) - h * (2 * a.deriv(1) + b.deriv(1))) / h**2
            c3 = (-2 * (b.q - a.q) + h * (a.deriv(1) + b.deriv(1))) / h**3
            asm = _ActionAssembler(spline1, 5, a, h)
            Q0, Q1, Q2 = (Q[:, 0] for Q in asm.curves(coeffs))
            t = h * asm.u
            assert np.allclose(Q2, 2 * c2[0] + 6 * c3[0] * t, atol=1e-11)
            assert np.allclose(Q1, a.deriv(1)[0] + 2 * c2[0] * t + 3 * c3[0] * t**2,
                               atol=1e-11)
            assert np.allclose(Q0, a.q[0] + a.deriv(1)[0] * t + c2[0] * t**2
                               + c3[0] * t**3, atol=1e-11)

    def test_coincident_endpoints(self, spline1):
        a = jet1(0.4, 0.0)
        coeffs = solve_regularized(spline1, a, a, 0.05, degree=4)
        _, _, Q2 = _ActionAssembler(spline1, 4, a, 0.05).curves(coeffs)
        assert np.max(np.abs(Q2)) <= 1e-12

    def test_spectral_exactness(self, spline1):
        a, b = jet1(0.1, -0.4), jet1(0.7, 0.2)
        vals = [exact_Ld(spline1, a, b, 0.8, degree=m) for m in (2, 4, 8, 12)]
        assert np.max(np.abs(np.diff(vals))) <= 1e-12

    def test_converged_last_iteration_accepted(self, spline_potential):
        # one Newton step reaches the tolerance, so the last permitted
        # iteration ends a converged solve rather than a failed one
        a, b = jet1(0.0, 0.3), jet1(1.0, -0.2)
        coeffs = solve_regularized(spline_potential, a, b, 0.5, max_iter=1)
        gradient = _ActionAssembler(spline_potential, 8, a, 0.5).gradient(coeffs)
        assert np.max(np.abs(gradient[2:])) <= 1e-12

    def test_bad_degree_or_order_rejected(self, spline1):
        a = jet1(0.0, 0.3)
        with pytest.raises(ValueError):
            solve_regularized(spline1, a, a, 0.5, degree=1)
        jet3 = JetPoint(np.zeros(1), (np.zeros(1), np.zeros(1), np.zeros(1)))
        with pytest.raises(ValueError):
            solve_regularized(spline1, jet3, jet3, 0.5)


class TestShooting:
    def test_unit_displacement_jet(self, spline1):
        out = shooting_bvp(spline1, jet1(0, 0), jet1(1, 0), 1.0)
        assert out.deriv(2)[0] == pytest.approx(6.0, abs=1e-10)
        assert out.deriv(3)[0] == pytest.approx(-12.0, abs=1e-10)

    def test_straight_line(self, spline1):
        out = shooting_bvp(spline1, jet1(0.2, 1.0), jet1(0.7, 1.0), 0.5)
        assert abs(out.deriv(2)[0]) <= 1e-11
        assert abs(out.deriv(3)[0]) <= 1e-10

    def test_forward_flow_hits_endpoint(self, spline_potential, rng):
        for _ in range(5):
            start = JetPoint(rng.normal(size=1),
                             tuple(rng.normal(size=1) for _ in range(3)))
            h = 0.3
            target = integrate_el(spline_potential, start, h, 64)
            a = jet1(start.q, start.deriv(1))
            b = jet1(target.q, target.deriv(1))
            jet = shooting_bvp(spline_potential, a, b, h)
            out = integrate_el(spline_potential, jet, h, 64)
            err = max(abs(out.q[0] - b.q[0]), abs(out.deriv(1)[0] - b.deriv(1)[0]))
            assert err <= 1e-10

    def test_settled_solve_is_silent(self, spline_potential):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnsettledSubsteps)
            shooting_bvp(spline_potential, jet1(0.0, 1.0), jet1(0.1, 0.5), 0.5)

    def test_settles_at_the_solves_noise_floor(self):
        # the lifted swing-up model: doublings move the answer about 16x less
        # each down to 256 substeps, then under 4x less on the solves' own
        # stopping noise (above 1e-11), where the doubling stops, silently
        lifted = lift_cost(two_link_problem(N=4))
        start = JetPoint([-1.36, 0.09], ([0.19, 0.03], [-0.16, 0.11], [0.39, 0.28]))
        end = integrate_el(lifted, start, 0.05, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnsettledSubsteps)
            jet, S = shooting_bvp(lifted, JetPoint(start.q, (start.deriv(1),)),
                                  JetPoint(end.q, (end.deriv(1),)), 0.05,
                                  return_substeps=True)
        assert S == 512
        out = integrate_el(lifted, jet, 0.05, 512)
        assert np.max(np.abs(out.as_array()[:4] - end.as_array()[:4])) <= 1e-10

    def test_settles_by_prediction(self):
        # a stiff potential: the doubling from 512 to 1024 substeps still
        # moves the answer by about 2.7e-11 (relative), above 1e-11, but 16x
        # less than the one before, so RK4 predicts about 1.7e-12 for the
        # next doubling and the shooting stops at 1024, silently
        stiff = model_from_expr(1, "ddq0**2/2 + 1e4*q0**2/2")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnsettledSubsteps)
            jet, S = shooting_bvp(stiff, jet1(0.0, 1.0), jet1(0.1, 0.5), 1.0,
                                  return_substeps=True)
        assert S == 1024 and np.all(np.isfinite(jet.as_array()))

    def test_substep_cap_reached_unsettled_warns(self, spline1, monkeypatch):
        # answers whose moves shrink only 8-fold per doubling, from 8.7e-4
        # (relative) down to 2.7e-8 from 512 to 1024 substeps: neither the
        # noise floor nor RK4's prediction settles them before the cap
        import varint.bvp as bvp
        monkeypatch.setattr(bvp, "_shoot", lambda L, left, target, h, S, *rest:
                            np.array([[1e-3 * (16.0 / S) ** 3, 0.0]]))
        with pytest.warns(UnsettledSubsteps, match=r"S = 1024 .* by 2\.67e-08") as record:
            jet, S = shooting_bvp(spline1, jet1(0.0, 1.0), jet1(0.1, 0.5), 1.0,
                                  return_substeps=True)
        assert S == 1024 and np.all(np.isfinite(jet.as_array()))
        # the warning names shooting_bvp's own line, whichever layer called it
        assert record[0].filename.endswith("bvp.py")


def scalar_rk4(L, y, h, S):
    """Classical RK4 on one state through the pointwise model calls
    (``hess_at``, ``el4_at``, ``value_at``), with the running action
    accumulated in Python floats."""
    n, dt, action = L.n, h / S, 0.0

    def rhs(yv):
        q, dq, ddq, d3q = yv.reshape(4, n)
        W = L.hess_at(q, dq, ddq)[2 * n:, 2 * n:]
        q4 = np.linalg.solve(0.5 * (W + W.T), -L.el4_at(q, dq, ddq, d3q, np.zeros(n)))
        return np.concatenate([yv[n:], q4])

    def lag(yv):
        return L.value_at(yv[:n], yv[n:2 * n], yv[2 * n:3 * n])

    for _ in range(S):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        action += dt / 6.0 * (lag(y) + 2.0 * lag(y + 0.5 * dt * k1)
                              + 2.0 * lag(y + 0.5 * dt * k2) + lag(y + dt * k3))
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y, action


@pytest.fixture(scope="module")
def non_identity_W():
    """A constant W = [[2, 1/2], [1/2, 2]]: W^-1 is not diagonal."""
    return model_from_expr(2, "ddq0**2 + ddq0*ddq1/2 + ddq1**2 + q0**2*dq1")


class TestStackedIntegration:
    @pytest.mark.parametrize("model", ["spline1", "spline2", "spline_potential",
                                       "non_identity_W"])
    def test_stack_equals_single_integrations(self, model, rng, request):
        # stacks on both sides of bvp._FLOAT_ROWS: Python floats up to it,
        # numpy columns above, every member equal to its one-member run
        L = request.getfixturevalue(model)
        n, h, S = L.n, 0.3, 24
        for M in (1, 2, 3, 4, 5, 12):
            Y0 = rng.normal(size=(M, 4 * n)) * 10.0 ** rng.integers(-2, 3, size=(M, 4 * n))
            Y, actions = _rk4(L, Y0, h, S, with_action=True)
            Y_plain, no_action = _rk4(L, Y0, h, S)
            assert no_action is None and np.array_equal(Y, Y_plain)
            for y0, y, a in zip(Y0, Y, actions):
                jet0 = JetPoint.from_array(y0, 3, n)
                jet, action = integrate_el(L, jet0, h, S, with_action=True)
                assert np.array_equal(jet.as_array(), y) and action == a
                assert np.array_equal(integrate_el(L, jet0, h, S).as_array(), y)
                if model != "non_identity_W":
                    # scalar_rk4 solves with W, exact for W = I only
                    y_ref, action_ref = scalar_rk4(L, y0, h, S)
                    assert np.array_equal(y_ref, y) and action_ref == a

    @pytest.mark.parametrize("model, M, floats", [
        ("spline1", 1, True), ("spline1", 2, True), ("spline1", 12, False),
        ("lifted", 1, False),   # W depends on the jet
    ])
    def test_path_taken(self, model, M, floats, rng, request, monkeypatch):
        import varint.bvp as bvp
        L = (lift_cost(two_link_problem(N=4)) if model == "lifted"
             else request.getfixturevalue(model))

        class Columns(Exception):
            pass

        def columns(*args):
            raise Columns
        monkeypatch.setattr(bvp, "fourth_order_rhs_raw", columns)
        Y0 = 0.1 * rng.normal(size=(M, 4 * L.n))
        if floats:
            _rk4(L, Y0, 0.3, 8, with_action=True)
        else:
            with pytest.raises(Columns):
                _rk4(L, Y0, 0.3, 8)

    @pytest.mark.parametrize("expr, Y0, match", [
        # math.sqrt raises on the second row, numpy's sqrt gives nan
        ("ddq0**2/2 + sqrt(q0)", [[1.0, 0.1, 0.2, 0.3], [-1.0, 0.1, 0.2, 0.3]],
         "invalid value"),
        # Python floats overflow to inf silently, numpy warns
        ("ddq0**2/2", [[1.5e308, 1.5e308, 0.0, 0.0]], "overflow"),
    ])
    def test_float_failures_rerun_on_columns(self, expr, Y0, match, monkeypatch):
        import varint.bvp as bvp
        L, Y0 = model_from_expr(1, expr), np.array(Y0)
        with pytest.warns(RuntimeWarning, match=match):
            Y, actions = _rk4(L, Y0, 0.3, 8, with_action=True)
        monkeypatch.setattr(bvp, "_FLOAT_ROWS", 0)
        with pytest.warns(RuntimeWarning, match=match):
            Y_ref, actions_ref = _rk4(L, Y0, 0.3, 8, with_action=True)
        np.testing.assert_array_equal(Y, Y_ref)
        np.testing.assert_array_equal(actions, actions_ref)
        assert not np.isfinite(Y[-1]).all()


class TestExactAction:
    def test_unit_displacement(self, spline1):
        a, b = jet1(0, 0), jet1(1, 0)
        assert exact_Ld(spline1, a, b, 1.0) == pytest.approx(6.0, abs=1e-11)
        assert exact_Ld(spline1, a, b, 1.0, method="shooting") == \
            pytest.approx(6.0, abs=1e-11)

    def test_closed_form_sweep(self, spline1, rng):
        worst = 0.0
        for _ in range(100):
            q0, v0 = rng.normal(size=2)
            h = float(rng.uniform(0.1, 1.0))
            q1 = q0 + h * v0 + 0.2 * rng.normal()
            v1 = v0 + 0.5 * rng.normal()
            d = q0 - q1
            ref = (6 / h**3 * d * d + 6 / h**2 * d * (v0 + v1)
                   + 2 / h * (v0 * v0 + v0 * v1 + v1 * v1))
            got = exact_Ld(spline1, jet1(q0, v0), jet1(q1, v1), h, degree=4)
            worst = max(worst, abs(got - ref))
        assert worst <= 1e-10

    def test_free_system_straight_line(self, spline_velocity):
        # exact trajectory through straight-line data is the line itself
        q, v, h = 0.3, 0.8, 0.4
        got = exact_Ld(spline_velocity, jet1(q, v), jet1(q + h * v, v), h, degree=6)
        assert got == pytest.approx(h * 0.5 * v * v, rel=1e-11)

    @pytest.mark.parametrize("h", [0.05, 0.1, 0.2])
    def test_methods_agree(self, spline_potential, h, rng):
        a = jet1(0.3, -0.2)
        b_jet = integrate_el(spline_potential,
                             JetPoint(a.q, (a.deriv(1), np.array([0.4]),
                                            np.array([-0.1]))), h, 64)
        b = jet1(b_jet.q, b_jet.deriv(1))
        reg = exact_Ld(spline_potential, a, b, h, degree=10)
        sho = exact_Ld(spline_potential, a, b, h, method="shooting")
        assert abs(reg - sho) <= 1e-8

    @pytest.mark.parametrize("size", [1e5, 1e7])
    def test_methods_agree_on_large_data(self, spline1, size):
        # the spectral solver's residual cancels terms of the data's size,
        # so its stop floors must rise with them, as the shooting solver's do
        a, b = jet1(size, size), jet1(1.3 * size, 0.7 * size)
        reg = exact_Ld(spline1, a, b, 0.5)
        sho = exact_Ld(spline1, a, b, 0.5, method="shooting")
        assert abs(reg - sho) <= 1e-12 * abs(sho)

    def test_unknown_method(self, spline1):
        with pytest.raises(ValueError):
            exact_Ld(spline1, jet1(0, 0), jet1(1, 0), 1.0, method="nope")



def jet_of(order, n=1, q=0.1):
    return JetPoint(np.full(n, q), tuple(np.full(n, 0.5 + i) for i in range(order)))


class TestEndpointChecks:
    """The exact-action entry points take order-1 jets of the model's
    dimension and a step in (0, H_MAX], and the flow integrator an order-3
    jet and a positive substep count; anything else is a ValueError that
    says what was expected."""

    SOLVES = {
        "shooting": lambda L, a, b, h: shooting_bvp(L, a, b, h),
        "exact-shooting": lambda L, a, b, h: exact_Ld(L, a, b, h, method="shooting"),
        "legendre-match": lambda L, a, b, h: legendre_match_errors(L, a, b, h),
        "regularized": lambda L, a, b, h: solve_regularized(L, a, b, h),
        "exact-regularized": lambda L, a, b, h: exact_Ld(L, a, b, h),
    }

    @pytest.mark.parametrize("order, n", [(0, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("solve", SOLVES)
    def test_solvers_reject_other_jets(self, spline1, solve, order, n):
        with pytest.raises(ValueError, match=f"expected jets of order 1 and dimension 1, "
                                             f"got order {order} and dimension {n}"):
            self.SOLVES[solve](spline1, jet_of(order, n), jet_of(order, n, q=0.2), 0.3)

    @pytest.mark.parametrize("solve", SOLVES)
    def test_solvers_reject_a_step_out_of_range(self, spline1, solve):
        with pytest.raises(ValueError, match=r"step h=5.0 outside \(0, 4.0\]"):
            self.SOLVES[solve](spline1, jet_of(1), jet_of(1, q=0.2), 5.0)

    @pytest.mark.parametrize("order, n", [(1, 1), (2, 1), (3, 2)])
    def test_integrate_el_rejects_other_jets(self, spline1, order, n):
        with pytest.raises(ValueError, match=f"expected jets of order 3 and dimension 1, "
                                             f"got order {order} and dimension {n}"):
            integrate_el(spline1, jet_of(order, n), 0.3, 16)

    @pytest.mark.parametrize("substeps", [0, -2, 1.5])
    def test_integrate_el_rejects_a_substep_count(self, spline1, substeps):
        with pytest.raises(ValueError, match="substeps must be a positive integer"):
            integrate_el(spline1, jet_of(3), 0.3, substeps)
