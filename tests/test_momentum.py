import hashlib

import numpy as np
import pytest

from varint import (JetPoint, MomentaState, PairState, SingularWd, fminus,
                    fminus_inverse, fplus, fplus_inverse, hamiltonian_step,
                    integrate_el, legendre, legendre_match_errors, make_scheme,
                    named_lagrangian, pack, shooting_bvp, spline_exact, step,
                    symplectic_defect, taylor_average)
from varint.discretization import SCHEMES
from varint.order import cubic_trajectory


def jet1(q, v):
    to = lambda x: np.atleast_1d(np.asarray(x, dtype=float))
    return JetPoint(to(q), (to(v),))


def pair(q0, v0, q1, v1, h):
    return PairState(jet1(q0, v0), jet1(q1, v1), h)


def nearby_pairs(rng, count, h=0.3):
    for _ in range(count):
        q0, v0 = rng.normal(size=2)
        q1 = q0 + h * v0 + 0.1 * h * rng.normal()
        v1 = v0 + 0.5 * rng.normal()
        yield pair(q0, v0, q1, v1, h)


class TestMomentumMaps:
    def test_fplus_closed_form(self):
        out = fplus(spline_exact(), pair(0, 0, 1, 0, 1.0))
        assert np.allclose(out.as_array(), [1.0, 0.0, 12.0, -6.0])

    def test_fminus_closed_form(self):
        out = fminus(spline_exact(), pair(0, 0, 1, 0, 1.0))
        assert np.allclose(out.as_array(), [0.0, 0.0, 12.0, 6.0])

    def test_rest_state(self):
        Ld = spline_exact()
        assert np.allclose(fplus(Ld, pair(0.4, 0, 0.4, 0, 0.5)).as_array(),
                           [0.4, 0, 0, 0])
        assert np.allclose(fminus(Ld, pair(0.4, 0, 0.4, 0, 0.5)).as_array(),
                           [0.4, 0, 0, 0])

    def test_exact_action_matches_continuous_map(self, spline1, rng):
        # the minus/plus maps of the exact action coincide with the
        # continuous momentum map at the flow's boundary jets
        Ld = spline_exact()
        for s in nearby_pairs(rng, 10, h=0.4):
            j0 = shooting_bvp(spline1, s.left, s.right, s.h)
            jh = integrate_el(spline1, j0, s.h, 16)
            cont0 = legendre(spline1, j0)
            conth = legendre(spline1, jh)
            mm = fminus(Ld, s)
            mp = fplus(Ld, s)
            assert np.allclose(mm.p, cont0.p, atol=1e-9)
            assert np.allclose(mm.pt, cont0.pt, atol=1e-9)
            assert np.allclose(mp.p, conth.p, atol=1e-9)
            assert np.allclose(mp.pt, conth.pt, atol=1e-9)

    def test_relation_along_recursion(self, spline1, rng):
        for Ld in (spline_exact(), taylor_average(spline1)):
            for s in nearby_pairs(rng, 25, h=0.3):
                nxt = step(Ld, s.left, s.right, s.h)
                lhs = fplus(Ld, s).as_array()
                rhs = fminus(Ld, PairState(s.right, nxt, s.h)).as_array()
                assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestInverses:
    def test_minus_inverse_roundtrip(self, spline1, rng):
        for Ld in (spline_exact(), taylor_average(spline1)):
            for s in nearby_pairs(rng, 10):
                m = fminus(Ld, s)
                back = fminus_inverse(Ld, m, s.h)
                assert np.allclose(back.right.as_array(), s.right.as_array(),
                                   atol=1e-10)

    def test_plus_inverse_roundtrip(self, spline1, rng):
        for Ld in (spline_exact(), taylor_average(spline1)):
            for s in nearby_pairs(rng, 10):
                m = fplus(Ld, s)
                back = fplus_inverse(Ld, m, s.h)
                assert np.allclose(back.left.as_array(), s.left.as_array(),
                                   atol=1e-10)


class TestHamiltonianStep:
    def test_equilibrium_fixed_point(self):
        Ld = spline_exact()
        m = MomentaState([0.3], [0.0], [0.0], [0.0])
        out = hamiltonian_step(Ld, m, 0.5)
        assert np.allclose(out.as_array(), m.as_array(), atol=1e-12)

    def test_first_momentum_conserved_exact_scheme(self, rng):
        # continuous p = -q3 is constant along cubics, and the exact action
        # reproduces the flow, so p is unchanged per step
        Ld = spline_exact()
        for s in nearby_pairs(rng, 10, h=0.4):
            m = fminus(Ld, s)
            out = hamiltonian_step(Ld, m, s.h)
            assert out.p[0] == pytest.approx(m.p[0], abs=1e-10)

    def test_three_constructions_agree(self, spline1, rng):
        # all three compositions are applied to the same momenta point m:
        # plus-after-minus-inverse, minus-after-step-after-minus-inverse, and
        # plus-after-step-after-plus-inverse (which walks one pair backward)
        for Ld in (spline_exact(), taylor_average(spline1)):
            for s in nearby_pairs(rng, 20, h=0.3):
                m = fminus(Ld, s)
                direct = hamiltonian_step(Ld, m, s.h).as_array()
                sm = fminus_inverse(Ld, m, s.h)
                # the step is the plus map of the minus inverse, bit for bit
                assert direct.tobytes() == fplus(Ld, sm).as_array().tobytes()
                nxt = step(Ld, sm.left, sm.right, s.h)
                via_minus = fminus(Ld, PairState(sm.right, nxt, s.h)).as_array()
                sp = fplus_inverse(Ld, m, s.h)
                nxt2 = step(Ld, sp.left, sp.right, s.h)
                via_plus = fplus(Ld, PairState(sp.right, nxt2, s.h)).as_array()
                assert np.max(np.abs(direct - via_minus)) <= 1e-10
                assert np.max(np.abs(direct - via_plus)) <= 1e-10

    def test_iterated_step_matches_continuous_flow(self, spline1):
        # push the initial jet through the continuous momentum map, iterate
        # the discrete step, and compare against the flow at every node
        Ld = spline_exact()
        h, N = 0.05, 100
        traj = cubic_trajectory(np.array([[0.2], [-0.3], [0.8], [0.5]]))
        j0 = JetPoint(traj(0.0).q, (traj(0.0).deriv(1), np.array([0.8]),
                                    np.array([0.5])))
        m = legendre(spline1, j0)
        state = MomentaState(m.q, m.v, m.p, m.pt)
        worst = 0.0
        jet = j0
        for k in range(1, N + 1):
            state = hamiltonian_step(Ld, state, h)
            jet = integrate_el(spline1, jet, h, 4)
            ref = legendre(spline1, jet)
            worst = max(worst, np.max(np.abs(state.as_array() - ref.as_array())))
        assert worst <= 1e-9


class TestSymplecticDefect:
    def test_variational_schemes_near_zero(self, spline1, rng):
        for Ld in (spline_exact(), taylor_average(spline1)):
            for s in nearby_pairs(rng, 5, h=0.4):
                m = fminus(Ld, s)
                assert symplectic_defect(Ld, m, s.h) <= 1e-5

    def test_corrupted_map_detected(self, spline1, rng):
        # drifting the configuration output breaks the canonical two-form
        Ld = spline_exact()

        class Corrupted:
            n = None
            name = "corrupted"

            def partials(self, s):
                D1, D2, D3, D4 = Ld.partials(s)
                return D1, D2, D3, D4

            def second_partials(self, s):
                return Ld.second_partials(s)

            def residual_scale(self, s):
                return Ld.residual_scale(s)

            def value(self, s):
                return Ld.value(s)

        import varint.momentum as momentum

        base = momentum.hamiltonian_step
        s = next(nearby_pairs(rng, 1, h=0.5))
        m = fminus(Ld, s)

        def corrupt_step(Ld_, m_, h_, **kw):
            out = base(Ld_, m_, h_, **kw)
            return MomentaState(out.q + 1e-3 * m_.q, out.v, out.p, out.pt)

        # finite-difference the corrupted map directly
        n = m.n
        x = m.as_array()
        J = np.empty((4 * n, 4 * n))
        for i in range(4 * n):
            d = 1e-6 * (1.0 + abs(x[i]))
            xp = x.copy(); xp[i] += d
            xm = x.copy(); xm[i] -= d
            op = corrupt_step(Ld, MomentaState.from_array(xp, n), s.h)
            om = corrupt_step(Ld, MomentaState.from_array(xm, n), s.h)
            J[:, i] = (op.as_array() - om.as_array()) / (2 * d)
        I = np.eye(2 * n)
        Z = np.zeros((2 * n, 2 * n))
        Omega = np.block([[Z, I], [-I, Z]])
        defect = np.max(np.abs(J.T @ Omega @ J - Omega))
        assert defect >= 1e-4


class TestLegendreMatch:
    def test_spline_closed_forms(self, spline1, rng):
        worst = 0.0
        for s in nearby_pairs(rng, 3, h=0.3):
            le, re = legendre_match_errors(spline1, s.left, s.right, s.h)
            worst = max(worst, le, re)
        assert worst <= 1e-8

    def test_straight_line_zero_momenta(self, spline1):
        le, re = legendre_match_errors(spline1, jet1(0.0, 1.0), jet1(0.1, 1.0), 0.1)
        assert max(le, re) <= 1e-8

    def test_with_potential(self, spline_potential, rng):
        worst = 0.0
        for s in nearby_pairs(rng, 3, h=0.1):
            le, re = legendre_match_errors(spline_potential, s.left, s.right, s.h)
            worst = max(worst, le, re)
        assert worst <= 1e-6


class TestPinnedOutputs:
    def test_momentum_layer_digest(self):
        # the outputs of every momentum-map solve, for every scheme, pinned to
        # the last bit; trapezoid-velocity's cross block is singular, so its
        # pinned output is the error message of each solve
        L = named_lagrangian("spline-potential", 2)
        rng = np.random.default_rng(2024)
        h = 0.3
        pairs = []
        for _ in range(3):
            q0, v0 = rng.normal(size=2), rng.normal(size=2)
            q1 = q0 + h * v0 + 0.1 * h * rng.normal(size=2)
            v1 = v0 + 0.5 * rng.normal(size=2)
            pairs.append(PairState(JetPoint(q0, (v0,)), JetPoint(q1, (v1,)), h))
        digest = hashlib.sha256()
        for name in sorted(SCHEMES):
            Ld = make_scheme(name, L)
            for s in pairs:
                m = fminus(Ld, s)
                for f in (lambda: [symplectic_defect(Ld, m, h)],
                          lambda: hamiltonian_step(Ld, m, h).as_array(),
                          lambda: pack(fminus_inverse(Ld, m, h)),
                          lambda: pack(fplus_inverse(Ld, fplus(Ld, s), h)),
                          lambda: step(Ld, s.left, s.right, h).as_array()):
                    try:
                        digest.update(np.asarray(f(), dtype=float).tobytes())
                    except SingularWd as exc:
                        digest.update(str(exc).encode())
        assert digest.hexdigest() == (
            "147d49b3a9dc436087aba79975e47e1abf06da0cb72ff60000dab310e280ac44")

    def test_defect_builds_no_jets_or_momenta(self, spline1, monkeypatch):
        # the 8n differenced steps run on flat arrays
        Ld = taylor_average(spline1)
        m = fminus(Ld, pair(0.1, 0.4, 0.25, 0.6, 0.4))
        made = []
        for cls in (JetPoint, MomentaState):
            def counted(self, _post_init=cls.__post_init__):
                made.append(type(self))
                _post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        assert symplectic_defect(Ld, m, 0.4) <= 1e-5
        assert made == []
