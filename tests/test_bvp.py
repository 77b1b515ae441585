import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from varint import (JetPoint, PolyCurve, action_gradient, basis_gamma,
                    endpoint_from_w, endpoints_to_w, exact_Ld, integrate_el,
                    project_tangent, reconstruct, shooting_bvp,
                    solve_regularized)


def jet1(q, v):
    to = lambda x: np.atleast_1d(np.asarray(x, dtype=float))
    return JetPoint(to(q), (to(v),))


def quad_inner(f, g):
    """Independent quadrature oracle for inner products on [0, 1]."""
    val, _ = scipy.integrate.quad(lambda s: f(s) * g(s), 0.0, 1.0,
                                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


class TestBasis:
    def test_k2_change_matrix(self):
        pack = basis_gamma(2)
        ref = np.array([[1.0 / (2.0 * math.sqrt(3.0)), 0.5], [0.0, 1.0]])
        assert np.allclose(pack.gamma, ref, atol=1e-14)
        # the b-basis is the documented one
        s = np.linspace(0.0, 1.0, 7)
        assert np.allclose([pack.b[0](x) for x in s], math.sqrt(3.0) * (1 - 2 * s))
        assert np.allclose([pack.b[1](x) for x in s], 1.0)

    def test_k1_trivial(self):
        pack = basis_gamma(1)
        assert np.allclose(pack.gamma, [[1.0]], atol=1e-14)
        assert pack.b[0](0.37) == pytest.approx(1.0)
        assert pack.a[0](0.37) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_orthonormality_quadrature(self, k):
        pack = basis_gamma(k)
        for i in range(k):
            for j in range(k):
                ref = quad_inner(pack.b[i], pack.b[j])
                assert ref == pytest.approx(float(i == j), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gamma_reproduces_constraints(self, k):
        pack = basis_gamma(k)
        s = np.linspace(0.0, 1.0, 11)
        for j in range(k):
            combo = sum(pack.gamma[j, i] * np.array([pack.b[i](x) for x in s])
                        for i in range(k))
            ref = np.array([pack.a[j](x) for x in s])
            assert np.allclose(combo, ref, atol=1e-12)

    def test_extended_basis_orthonormal(self):
        pack = basis_gamma(2)
        funcs = pack.extended(6)
        G = np.array([[quad_inner(f, g) for g in funcs] for f in funcs])
        assert np.allclose(G, np.eye(7), atol=1e-11)


class TestEndpointData:
    def test_straight_line(self):
        ed = endpoints_to_w(jet1(0, 1), jet1(0.5, 1), 0.5)
        assert np.allclose(ed.z, 0.0, atol=1e-14)
        assert np.allclose(ed.w, 0.0, atol=1e-14)

    def test_unit_displacement(self):
        ed = endpoints_to_w(jet1(0, 0), jet1(1, 0), 1.0)
        assert ed.z[0, 0] == pytest.approx(1.0)
        assert ed.z[1, 0] == pytest.approx(0.0)
        assert ed.w[0, 0] == pytest.approx(2.0 * math.sqrt(3.0))
        assert ed.w[1, 0] == pytest.approx(0.0)

    def test_roundtrip(self, rng):
        for _ in range(20):
            a = jet1(rng.normal(), rng.normal())
            b = jet1(rng.normal(), rng.normal())
            h = float(rng.uniform(0.05, 2.0))
            ed = endpoints_to_w(a, b, h)
            back = endpoint_from_w(a, ed.w, h)
            assert np.allclose(back.as_array(), b.as_array(), atol=1e-12)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            endpoints_to_w(jet1(0, 0), jet1(1, 0), 0.0)


class TestReconstruct:
    def curve(self, coeffs, k=2, degree=3):
        pack = basis_gamma(k)
        funcs = tuple(pack.extended(degree))
        return PolyCurve(np.asarray(coeffs, dtype=float)[:, None], funcs, k)

    def test_free_drift(self):
        Qk = self.curve([0.0, 0.0, 0.0, 0.0])
        out = reconstruct(Qk, jet1(0.3, 0.7), 0.5, 0)
        u = np.linspace(0, 1, 5)
        assert np.allclose(out(u)[:, 0], 0.3 + 0.5 * u * 0.7, atol=1e-14)

    def test_constant_curve_single_integral(self):
        # constant curve c: coefficient on the constant basis element (index 1)
        c = 1.7
        Qk = self.curve([0.0, c, 0.0, 0.0])
        out = reconstruct(Qk, jet1(0.3, 0.7), 0.5, 1)
        u = np.linspace(0, 1, 5)
        assert np.allclose(out(u)[:, 0], 0.7 + 0.5 * c * u, atol=1e-13)

    def test_constant_curve_double_integral(self):
        c = 1.7
        Qk = self.curve([0.0, c, 0.0, 0.0])
        out = reconstruct(Qk, jet1(0.3, 0.7), 0.5, 0)
        u = np.linspace(0, 1, 5)
        ref = 0.3 + 0.5 * u * 0.7 + 0.25 * c * u * u / 2.0
        assert np.allclose(out(u)[:, 0], ref, atol=1e-13)

    def test_out_of_range_rejected(self):
        Qk = self.curve([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            reconstruct(Qk, jet1(0, 0), 0.5, 2)


class TestActionGradient:
    def to_curve(self, coeffs):
        pack = basis_gamma(2)
        funcs = tuple(pack.extended(len(coeffs) - 1))
        return PolyCurve(np.asarray(coeffs, dtype=float)[:, None], funcs, 2)

    def test_pure_acceleration_identity(self, spline1, rng):
        # for L = |qddot|^2/2 the gradient is the coefficient vector itself
        coeffs = rng.normal(size=6)
        g = action_gradient(spline1, self.to_curve(coeffs), jet1(0.4, -0.2), 0.7)
        assert np.allclose(g[:, 0], coeffs, atol=1e-12)

    def test_matches_fd_of_action(self, spline_potential, rng):
        from varint.bvp import _ActionAssembler
        coeffs = rng.normal(size=5)
        curve = self.to_curve(coeffs)
        q1 = jet1(0.1, 0.3)
        h = 0.6
        asm = _ActionAssembler(spline_potential, curve.funcs, q1, h)
        g = action_gradient(spline_potential, curve, q1, h)
        step = 1e-6
        for i in range(coeffs.size):
            cp = curve.coeffs.copy(); cp[i, 0] += step
            cm = curve.coeffs.copy(); cm[i, 0] -= step
            ref = (asm.action(cp) - asm.action(cm)) / (2 * step)
            assert g[i, 0] == pytest.approx(ref, abs=1e-6)

    def test_stationary_at_zero(self, spline1):
        g = action_gradient(spline1, self.to_curve(np.zeros(5)), jet1(0.2, 0.9), 0.3)
        assert np.allclose(g, 0.0, atol=1e-14)


class TestProjectTangent:
    def test_constraint_rows_zeroed(self):
        v = np.zeros((5, 1)); v[0] = 1.0; v[1] = -2.0
        assert np.allclose(project_tangent(v, 2), 0.0)

    def test_free_rows_unchanged(self, rng):
        v = np.zeros((5, 2)); v[2:] = rng.normal(size=(3, 2))
        assert np.array_equal(project_tangent(v, 2), v)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        v = np.random.default_rng(seed).normal(size=(6, 2))
        P1 = project_tangent(v, 2)
        assert np.array_equal(project_tangent(P1, 2), P1)
        # complement lives entirely in the first rows
        assert np.array_equal((v - P1)[2:], np.zeros((4, 2)))

    def test_projection_in_function_space(self, rng):
        # the projected curve is orthogonal to every constraint polynomial
        # under the actual integral inner product, and the complement lies in
        # their span; checked by quadrature, independent of the coefficients
        pack = basis_gamma(2)
        funcs = pack.extended(5)
        coeffs = rng.normal(size=(6, 1))
        proj = project_tangent(coeffs, 2)
        for j in range(2):
            def projected(u):
                return sum(proj[i, 0] * funcs[i](u) for i in range(6))
            assert quad_inner(projected, pack.b[j]) == pytest.approx(0.0, abs=1e-12)
        residue = coeffs - proj

        def leftover(u):
            return sum(residue[i, 0] * funcs[i](u) for i in range(6))

        # leftover is reproduced exactly by its projections onto b0, b1
        c0 = quad_inner(leftover, pack.b[0])
        c1 = quad_inner(leftover, pack.b[1])
        for u in np.linspace(0.0, 1.0, 7):
            assert leftover(u) == pytest.approx(
                c0 * pack.b[0](u) + c1 * pack.b[1](u), abs=1e-11)


class TestSolveRegularized:
    def test_recovers_connecting_cubic(self, spline1, rng):
        for _ in range(10):
            a = jet1(rng.normal(), rng.normal())
            b = jet1(rng.normal(), rng.normal())
            h = float(rng.uniform(0.2, 1.5))
            curve = solve_regularized(spline1, a, b, h, degree=5)
            # free coefficients vanish: the solution is the connecting cubic
            assert np.max(np.abs(curve.coeffs[2:])) <= 1e-12
            c2 = (3 * (b.q - a.q) - h * (2 * a.deriv(1) + b.deriv(1))) / h**2
            c3 = (-2 * (b.q - a.q) + h * (a.deriv(1) + b.deriv(1))) / h**3
            u = np.linspace(0, 1, 7)
            ref = 2 * c2[0] + 6 * c3[0] * (h * u)
            assert np.allclose(curve(u)[:, 0], ref, atol=1e-11)

    def test_coincident_endpoints(self, spline1):
        a = jet1(0.4, 0.0)
        curve = solve_regularized(spline1, a, a, 0.05, degree=4)
        u = np.linspace(0, 1, 9)
        assert np.max(np.abs(curve(u))) <= 1e-12

    def test_spectral_exactness(self, spline1):
        a, b = jet1(0.1, -0.4), jet1(0.7, 0.2)
        vals = [exact_Ld(spline1, a, b, 0.8, degree=m) for m in (2, 4, 8, 12)]
        assert np.max(np.abs(np.diff(vals))) <= 1e-12

    def test_converged_last_iteration_accepted(self, spline_potential):
        # one Newton step reaches the tolerance, so the last permitted
        # iteration ends a converged solve rather than a failed one
        curve = solve_regularized(spline_potential, jet1(0.0, 0.3),
                                  jet1(1.0, -0.2), 0.5, max_iter=1)
        gradient = action_gradient(spline_potential, curve, jet1(0.0, 0.3), 0.5)
        assert np.max(np.abs(gradient[2:])) <= 1e-12


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

    def test_unknown_method(self, spline1):
        with pytest.raises(ValueError):
            exact_Ld(spline1, jet1(0, 0), jet1(1, 0), 1.0, method="nope")
