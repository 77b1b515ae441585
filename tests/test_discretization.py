import re

import numpy as np
import pytest
from varint import (JetPoint, LagrangianModel, OCProblem, PairState,
                    control_effort_cost, free_particle_model, lift_cost, make_scheme,
                    midpoint_difference, named_lagrangian, pack, spline_exact,
                    taylor_average, trapezoid_velocity, two_link_model, two_link_problem)

from conftest import model_from_expr


def pair(q0, v0, q1, v1, h):
    to = lambda x: np.atleast_1d(np.asarray(x, dtype=float))
    return PairState(JetPoint(to(q0), (to(v0),)), JetPoint(to(q1), (to(v1),)), h)


from oracles import hermite_action_oracle


class TestTaylorAverage:
    def test_straight_line(self, spline1):
        Ld = taylor_average(spline1)
        assert Ld.value(pair(0, 1, 0.1, 1, 0.1)) == pytest.approx(0.0, abs=1e-15)

    def test_unit_displacement(self, spline1):
        Ld = taylor_average(spline1)
        assert Ld.value(pair(0, 0, 1, 0, 1)) == pytest.approx(2.0)

    def test_closed_form(self, spline1, rng):
        Ld = taylor_average(spline1)
        for _ in range(200):
            q0, v0, q1, v1 = rng.normal(size=4)
            h = float(rng.uniform(0.05, 1.0))
            ref = (h * v1 + q0 - q1) ** 2 / h**3 + (-h * v0 - q0 + q1) ** 2 / h**3
            assert Ld.value(pair(q0, v0, q1, v1, h)) == pytest.approx(ref, rel=1e-13)

    def test_midpoint_variant_matches_for_spline(self, spline1, rng):
        # the spline value ignores position and velocity arguments
        a = taylor_average(spline1)
        b = taylor_average(spline1, midpoint_averages=True)
        for _ in range(10):
            s = pair(*rng.normal(size=4), 0.3)
            assert a.value(s) == pytest.approx(b.value(s), rel=1e-14)

    def test_midpoint_variant_differs_generally(self, spline_potential):
        a = taylor_average(spline_potential)
        b = taylor_average(spline_potential, midpoint_averages=True)
        s = pair(0.0, 0.0, 1.0, 0.0, 0.5)
        assert abs(a.value(s) - b.value(s)) > 1e-3


class TestMidpointDifference:
    def test_straight_line(self, spline1):
        Ld = midpoint_difference(spline1)
        assert Ld.value(pair(0, 1, 0.1, 1, 0.1)) == pytest.approx(0.0, abs=1e-15)

    def test_velocity_jump(self, spline1):
        Ld = midpoint_difference(spline1)
        assert Ld.value(pair(0, 0, 0, 1, 1)) == pytest.approx(0.5)

    def test_linear_decay_coincident_points(self, spline_potential):
        Ld = midpoint_difference(spline_potential)
        vals = [Ld.value(pair(0.7, 0.3, 0.7, 0.3, h)) for h in (0.1, 0.05, 0.025)]
        ratios = [vals[0] / vals[1], vals[1] / vals[2]]
        assert np.allclose(ratios, 2.0, rtol=1e-12)


class TestTrapezoidVelocity:
    def test_equal_velocities(self, spline1):
        Ld = trapezoid_velocity(spline1)
        assert Ld.value(pair(0.3, 1.0, 0.8, 1.0, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_velocity_jump(self, spline1):
        assert trapezoid_velocity(spline1).value(pair(0, 0, 0, 1, 1)) == pytest.approx(0.5)

    def test_h_factor_flag(self, spline1):
        with_h = trapezoid_velocity(spline1, include_h_factor=True)
        without = trapezoid_velocity(spline1, include_h_factor=False)
        s = pair(0, 0, 0, 1, 0.25)
        assert with_h.value(s) == pytest.approx(0.25 * without.value(s))

    def test_swap_symmetry(self, spline1, rng):
        Ld = trapezoid_velocity(spline1)
        for _ in range(10):
            q0, v0, q1, v1 = rng.normal(size=4)
            a = Ld.value(pair(q0, v0, q1, v1, 0.3))
            b = Ld.value(pair(q1, v1, q0, v0, 0.3))
            assert a == pytest.approx(b, rel=1e-13)


class TestSplineExact:
    def test_unit_displacement_against_quadrature(self):
        Ld = spline_exact()
        ref = hermite_action_oracle(0, 0, 1, 0, 1.0)
        assert ref == pytest.approx(6.0, rel=1e-10)
        assert Ld.value(pair(0, 0, 1, 0, 1.0)) == pytest.approx(ref, rel=1e-12)

    def test_random_against_quadrature(self, rng):
        Ld = spline_exact()
        for _ in range(20):
            q0, v0, q1, v1 = rng.normal(size=4)
            h = float(rng.uniform(0.1, 1.5))
            ref = hermite_action_oracle(q0, v0, q1, v1, h)
            assert Ld.value(pair(q0, v0, q1, v1, h)) == pytest.approx(ref, rel=1e-10)

    def test_straight_line_and_rest(self):
        Ld = spline_exact()
        assert Ld.value(pair(0, 1, 0.5, 1, 0.5)) == pytest.approx(0.0, abs=1e-13)
        assert Ld.value(pair(0, 0, 0, 0, 1.0)) == 0.0

    def test_multidimensional_sum(self, rng):
        Ld = spline_exact()
        vals = rng.normal(size=(4, 3))
        h = 0.7
        s = PairState(JetPoint(vals[0], (vals[1],)), JetPoint(vals[2], (vals[3],)), h)
        per_comp = sum(Ld.value(pair(vals[0][a], vals[1][a], vals[2][a],
                                     vals[3][a], h)) for a in range(3))
        assert Ld.value(s) == pytest.approx(per_comp, rel=1e-13)

    def test_second_partials_blocks(self, rng):
        Ld = spline_exact()
        for n, h in ((1, 0.1), (3, 0.1), (3, 0.37), (1, 0.1)):
            vals = rng.normal(size=(4, n))
            s = PairState(JetPoint(vals[0], (vals[1],)), JetPoint(vals[2], (vals[3],)), h)
            H = Ld.second_partials(s)
            I = np.eye(n)
            qq, qv, vv2, vv1 = 12.0 / h**3, 6.0 / h**2, 4.0 / h, 2.0 / h
            ref = np.block([[qq * I, qv * I, -qq * I, qv * I],
                            [qv * I, vv2 * I, -qv * I, vv1 * I],
                            [-qq * I, -qv * I, qq * I, -qv * I],
                            [qv * I, vv1 * I, -qv * I, vv2 * I]])
            assert H.tobytes() == ref.tobytes()      # signed zeros included
            # shared between calls of one step size, so no caller may write
            with pytest.raises(ValueError):
                H[0, 0] = 0.0


class TestBlockPartials:
    def test_spline_exact_values(self):
        Ld = spline_exact()
        D1, D2, D3, D4 = Ld.partials(pair(0, 0, 1, 0, 1.0))
        assert D1[0] == pytest.approx(-12.0)
        assert D2[0] == pytest.approx(-6.0)
        assert D3[0] == pytest.approx(12.0)
        assert D4[0] == pytest.approx(-6.0)

    def test_stationarity_in_right_position(self):
        # D3 is linear in q1 for the exact action; it vanishes at the minimizer
        Ld = spline_exact()
        h, q0, v0, v1 = 0.5, 0.2, 0.4, -0.1
        s0 = Ld.partials(pair(q0, v0, 0.0, v1, h))[2][0]
        s1 = Ld.partials(pair(q0, v0, 1.0, v1, h))[2][0]
        qstar = -s0 / (s1 - s0)
        assert abs(Ld.partials(pair(q0, v0, qstar, v1, h))[2][0]) <= 1e-12

    @pytest.mark.parametrize("maker", [
        lambda L: taylor_average(L),
        lambda L: taylor_average(L, midpoint_averages=True),
        lambda L: midpoint_difference(L),
        lambda L: trapezoid_velocity(L),
    ])
    def test_analytic_vs_fd(self, spline_potential, rng, maker):
        from varint.discretization import DiscreteLagrangian
        Ld = maker(spline_potential)
        fd = DiscreteLagrangian(1)
        fd.value = Ld.value  # FD base implementation on the same value
        for _ in range(10):
            s = pair(*rng.normal(size=4), float(rng.uniform(0.1, 0.8)))
            ana = np.concatenate(Ld.partials(s))
            ref = np.concatenate(fd.partials(s))
            assert np.allclose(ana, ref, rtol=1e-6, atol=1e-6)

    def test_spline_exact_analytic_vs_fd(self, rng):
        from varint.discretization import DiscreteLagrangian
        Ld = spline_exact()
        fd = DiscreteLagrangian(1)
        fd.value = Ld.value
        for _ in range(10):
            s = pair(*rng.normal(size=4), float(rng.uniform(0.2, 0.8)))
            assert np.allclose(np.concatenate(Ld.partials(s)),
                               np.concatenate(fd.partials(s)), rtol=1e-6, atol=1e-6)

    def test_second_partials_vs_fd(self, spline_potential, rng):
        Ld = taylor_average(spline_potential)
        s = pair(*rng.normal(size=4), 0.4)
        H = Ld.second_partials(s)
        assert np.allclose(H, H.T, atol=1e-12)
        from varint.discretization import DiscreteLagrangian
        fd = DiscreteLagrangian(1)
        fd.value = Ld.value
        assert np.allclose(H, fd.second_partials(s), rtol=1e-5, atol=1e-5)


class TestBaselines:
    @pytest.mark.parametrize("name", ["taylor", "taylor-midpoint",
                                      "midpoint-difference", "trapezoid-velocity"])
    def test_straight_line_baseline(self, spline_velocity, name, rng):
        # on a straight line every scheme reduces to h * L(q, v, 0)
        Ld = make_scheme(name, spline_velocity)
        for _ in range(5):
            q, v = rng.normal(size=2)
            h = float(rng.uniform(0.1, 1.0))
            s = pair(q, v, q + h * v, v, h)
            assert Ld.value(s) == pytest.approx(h * 0.5 * v * v, rel=1e-12)

    def test_make_scheme_rejects_unknown(self, spline1):
        with pytest.raises(KeyError):
            make_scheme("does-not-exist", spline1)

    def test_spline_exact_only_for_the_spline_lagrangian(self, spline2, spline_potential):
        free = OCProblem(free_particle_model(2), control_effort_cost(), qa=[0, 0],
                         va=[0, 0], qb=[1, 0], vb=[0, 0], T=1.0, N=4)
        for L in (spline2, model_from_expr(1, "ddq0**2/2"), lift_cost(free)):
            assert make_scheme("spline-exact", L).name == "spline-exact"
        others = [spline_potential, model_from_expr(1, "ddq0**2"),
                  lift_cost(two_link_problem(N=4)), two_link_model(),
                  LagrangianModel(1, lambda q, dq, ddq: 0.5 * float(ddq @ ddq)),
                  spline2.with_position_term(lambda q: 0.0, lambda q: 0 * q,
                                             lambda q: np.zeros((2, 2)))]
        for L in others:
            with pytest.raises(ValueError, match=f"^spline-exact .* not {re.escape(L.name)}$"):
                make_scheme("spline-exact", L)
            make_scheme("taylor", L)

    def test_make_scheme_refuses_spline_exact_with_a_potential(self):
        # the registry itself refuses, so no caller can get the spline action
        # for another Lagrangian by forgetting a separate check
        with pytest.raises(ValueError, match="^spline-exact discretizes only .* not "):
            make_scheme("spline-exact", named_lagrangian("spline-potential", 1))


def _block_reference(Ld, s):
    """Value, partials and second partials of an affine scheme, summed term
    by term from the block calls at the jets kron(C, I_n) @ pack(s)."""
    L, n = Ld.L, s.n
    value, g, H = 0, np.zeros(4 * n), np.zeros((4 * n, 4 * n))
    for w, C in Ld._terms(s.h):
        P = np.kron(C, np.eye(n))
        blocks = (P @ pack(s)).reshape(3, n)
        value += w * L.value_at(*blocks)
        g += w * (P.T @ np.concatenate(L.grad_at(*blocks)))
        H += w * (P.T @ L.hess_at(*blocks) @ P)
    return float(value), g, H


class TestAffineSchemesOnFlatJets:
    @pytest.fixture(scope="class")
    def models(self, spline_potential):
        return [
            model_from_expr(2, "cos(q0)*ddq0**2/2 + ddq1**2/2 + dq0*dq1*q1 + q0**3"),
            lift_cost(two_link_problem(N=4)),
            spline_potential.with_position_term(
                lambda q: float(q[0] ** 4), lambda q: 4 * q ** 3,
                lambda q: np.diag(12 * q ** 2)),
            LagrangianModel(2, lambda q, dq, ddq: 0.5 * float(ddq @ ddq)
                            + float(np.sin(q[0]) * dq[1] ** 2)),
        ]

    @pytest.mark.parametrize("name", ["taylor", "taylor-midpoint",
                                      "midpoint-difference", "trapezoid-velocity"])
    def test_equal_to_block_calls(self, models, name, rng):
        for L in models:
            Ld = make_scheme(name, L)
            n = L.n
            for _ in range(4):
                x = rng.normal(size=4 * n) * 10.0 ** rng.integers(-3, 4, size=4 * n)
                s = PairState(JetPoint(x[:n], (x[n:2 * n],)),
                              JetPoint(x[2 * n:3 * n], (x[3 * n:],)),
                              float(rng.uniform(0.05, 0.5)))
                value, g, H = _block_reference(Ld, s)
                assert Ld.value(s) == value, (name, L.name)
                assert np.concatenate(Ld.partials(s)).tobytes() == g.tobytes(), L.name
                assert Ld.second_partials(s).tobytes() == H.tobytes(), L.name
