"""End-to-end acceptance checks.

Each test pins one acceptance criterion at its stated tolerance and prints a
single PASS line with the measured values (visible with ``pytest -s``).
Reference values come from independent oracles: hand-derived closed forms,
symbolic differentiation performed inside the test, dense linear solves, and
quadrature.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import varint as vi
from varint.jets import JetPoint, PairState, uniform_grid

from oracles import dense_taylor_bvp_oracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def jet1(q, v):
    to = lambda x: np.asarray(x, dtype=float).reshape(-1)
    return JetPoint(to(q), (to(v),))


def nearby_pairs(rng, count, n=1, h=0.3, spread=0.1):
    for _ in range(count):
        q0 = rng.normal(size=n)
        v0 = rng.normal(size=n)
        q1 = q0 + h * v0 + spread * h * rng.normal(size=n)
        v1 = v0 + 0.5 * rng.normal(size=n)
        yield jet1(q0, v0), jet1(q1, v1), h


def spline_exact_closed_form(q0, v0, q1, v1, h):
    d = q0 - q1
    return float(np.sum(6 / h**3 * d * d + 6 / h**2 * d * (v0 + v1)
                        + 2 / h * (v0 * v0 + v0 * v1 + v1 * v1)))


def taylor_closed_form(q0, v0, q1, v1, h):
    return float(np.sum((h * v1 + q0 - q1) ** 2 / h**3
                        + (-h * v0 - q0 + q1) ** 2 / h**3))


def test_criterion_01_spline_closed_forms(spline1, rng):
    start = time.perf_counter()
    Ld = vi.taylor_average(spline1)
    err_scheme = 0.0
    err_exact = 0.0
    for a, b, h in nearby_pairs(rng, 1000, h=0.4, spread=0.3):
        ref = taylor_closed_form(a.q, a.deriv(1), b.q, b.deriv(1), h)
        err_scheme = max(err_scheme, abs(Ld.value(PairState(a, b, h)) - ref))
    for a, b, h in nearby_pairs(rng, 1000, h=0.4, spread=0.3):
        ref = spline_exact_closed_form(a.q, a.deriv(1), b.q, b.deriv(1), h)
        err_exact = max(err_exact, abs(vi.exact_Ld(spline1, a, b, h, degree=4) - ref))
    elapsed = time.perf_counter() - start
    assert err_scheme <= 1e-10
    assert err_exact <= 1e-10
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: scheme err {err_scheme:.2e}, exact-action err "
          f"{err_exact:.2e} over 1000+1000 states in {elapsed:.2f}s (tol 1e-10, 5s)")


def test_criterion_02_update_rules(spline1, rng):
    Ld_t = vi.taylor_average(spline1)
    Ld_e = vi.spline_exact()
    h = 0.1
    worst_t = worst_e = 0.0
    for _ in range(50):
        q0, v0, q1, v1 = rng.normal(size=4)
        nt = vi.step(Ld_t, jet1(q0, v0), jet1(q1, v1), h)
        worst_t = max(worst_t,
                      abs(nt.q[0] - (q0 + 2 * h * v1)),
                      abs(nt.deriv(1)[0] - (v0 + 4 * (v1 - (q1 - q0) / h))))
        ne = vi.step(Ld_e, jet1(q0, v0), jet1(q1, v1), h)
        q2 = 5 * q0 - 4 * q1 + 2 * h * (v0 + 2 * v1)
        worst_e = max(worst_e,
                      abs(ne.q[0] - q2),
                      abs(ne.deriv(1)[0] - (v0 + 2 / h * (q0 - 2 * q1 + q2))))
    assert worst_t <= 1e-11
    assert worst_e <= 1e-11
    print(f"\nPASS criterion 2: update-rule deviation {worst_t:.2e} (averaged), "
          f"{worst_e:.2e} (exact) per step (tol 1e-11)")


def test_criterion_03_conserved_quantity(spline1):
    h = 1.0 / 64.0
    grid = uniform_grid(0.0, 1000 * h, 1000)
    traj = vi.cubic_trajectory(np.array([[0.2], [0.05], [4e-3], [1.5e-3]]))
    drifts = {}
    for name, Ld in (("averaged", vi.taylor_average(spline1)),
                     ("exact", vi.spline_exact())):
        path = vi.run(Ld, traj(0.0), traj(grid.h), grid)
        phi = path.diagnostics["phi"]
        drifts[name] = float(np.max(np.abs(phi - phi[0])))
        assert np.max(np.abs(path.positions())) < 3.0  # unit-scale data
    assert max(drifts.values()) <= 1e-12
    print(f"\nPASS criterion 3: phi drift over N=1000: "
          f"{drifts['averaged']:.2e} (averaged), {drifts['exact']:.2e} (exact)"
          f" (tol 1e-12)")


def test_criterion_04_momentum_map_identities(spline1, spline_potential, rng):
    worst_spline = 0.0
    for a, b, h in nearby_pairs(rng, 20, h=0.3):
        le, re = vi.legendre_match_errors(spline1, a, b, h)
        worst_spline = max(worst_spline, le, re)
    worst_quad = 0.0
    for a, b, h in nearby_pairs(rng, 20, h=0.1):
        le, re = vi.legendre_match_errors(spline_potential, a, b, h)
        worst_quad = max(worst_quad, le, re)
    assert worst_spline <= 1e-8
    assert worst_quad <= 1e-6
    print(f"\nPASS criterion 4: momentum-map errors {worst_spline:.2e} "
          f"(spline, tol 1e-8), {worst_quad:.2e} (with potential, tol 1e-6)")


def test_criterion_05_oracle_agreement(spline1, spline_potential, rng):
    lifted = vi.lift_cost(vi.two_link_problem(N=4))
    problems = [(spline1, 6, np.array([0.3])),
                (spline_potential, 12, np.array([0.3])),
                (lifted, 12, np.array([-math.pi / 2 + 0.2, 0.1]))]
    worst = 0.0
    for L, degree, q_base in problems:
        n = q_base.size
        for h in (0.05, 0.1, 0.2):
            start = JetPoint(q_base + 0.05 * rng.normal(size=n),
                             tuple(0.3 * rng.normal(size=n) for _ in range(3)))
            target = vi.integrate_el(L, start, h, 64)
            a = jet1(start.q, start.deriv(1))
            b = jet1(target.q, target.deriv(1))
            reg = vi.exact_Ld(L, a, b, h, method="regularized", degree=degree)
            sho = vi.exact_Ld(L, a, b, h, method="shooting")
            worst = max(worst, abs(reg - sho))
    assert worst <= 1e-8

    herm = 0.0
    for a, b, h in nearby_pairs(rng, 20, h=0.5):
        coeffs = vi.solve_regularized(spline1, a, b, h, degree=6)
        herm = max(herm, float(np.max(np.abs(coeffs[2:]))))
    assert herm <= 1e-12
    print(f"\nPASS criterion 5: spectral/shooting agreement {worst:.2e} "
          f"(tol 1e-8); connecting-cubic recovery {herm:.2e} (tol 1e-12)")


def test_criterion_06_regularity_scaling(rng):
    # independent oracle: symbolic differentiation of the closed-form action,
    # assembled here from scratch
    q0s, v0s, q1s, v1s, hs = sp.symbols("q0 v0 q1 v1 h", real=True)
    Le = (6 / hs**3 * (q0s - q1s) ** 2 + 6 / hs**2 * (q0s - q1s) * (v0s + v1s)
          + 2 / hs * (v0s**2 + v0s * v1s + v1s**2))
    Wd_sym = sp.Matrix([
        [sp.diff(Le, q0s, q1s), sp.diff(Le, q0s, v1s)],
        [sp.diff(Le, v0s, q1s), sp.diff(Le, v0s, v1s)],
    ])
    det_sym = sp.simplify(Wd_sym.det())
    oracle_constant = float(sp.simplify(det_sym * hs**4))  # one dimension

    Ld = vi.spline_exact()
    hs_vals = np.array([0.4, 0.2, 0.1, 0.05])
    lines = []
    for n in (1, 2):
        dets = []
        for h in hs_vals:
            q0 = rng.normal(size=n)
            v0 = rng.normal(size=n)
            s = PairState(jet1(q0, v0), jet1(q0 + h * v0, v0 + 0.1), float(h))
            dets.append(np.linalg.det(vi.Wd_matrix(Ld, s)))
        dets = np.array(dets)
        slope = np.polyfit(np.log(hs_vals), np.log(np.abs(dets)), 1)[0]
        assert abs(slope - (-4.0 * n)) <= 0.02 * 4.0 * n
        constants = np.abs(dets) * hs_vals ** (4 * n)
        measured = float(np.mean(constants))
        assert measured == pytest.approx(abs(oracle_constant) ** n, rel=1e-9)
        # the asymptotic block analysis reports a leading constant of (-12)^n;
        # the directly differentiated closed form gives +12^n: equal in
        # magnitude, opposite in sign for odd n -- recorded here
        assert measured == pytest.approx(abs((-12.0) ** n), rel=1e-9)
        assert np.all(dets > 0)
        lines.append(f"n={n}: slope {slope:+.4f}, constant {measured:.6f}")
    print(f"\nPASS criterion 6: {'; '.join(lines)}; symbolic oracle constant "
          f"{oracle_constant:.1f} per dimension (asymptotic block analysis "
          f"quotes -12 per dimension: magnitude matches, sign differs)")


def test_criterion_07_symplecticity(spline1, rng):
    worst = 0.0
    for Ld in (vi.spline_exact(), vi.taylor_average(spline1)):
        for a, b, h in nearby_pairs(rng, 10, h=0.4):
            m = vi.fminus(Ld, PairState(a, b, h))
            worst = max(worst, vi.symplectic_defect(Ld, m, h))
    assert worst <= 1e-5

    # negative control: configuration drift glued onto the step map
    Ld = vi.spline_exact()
    a, b, h = next(nearby_pairs(rng, 1, h=0.5))
    m = vi.fminus(Ld, PairState(a, b, h))
    x = m.as_array()
    J = np.empty((4, 4))
    for i in range(4):
        d = 1e-6 * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += d
        xm = x.copy(); xm[i] -= d
        op = vi.hamiltonian_step(Ld, vi.MomentaState.from_array(xp, 1), h)
        om = vi.hamiltonian_step(Ld, vi.MomentaState.from_array(xm, 1), h)
        col = (op.as_array() - om.as_array()) / (2 * d)
        col[0] += (1e-3 * xp[0] - 1e-3 * xm[0]) / (2 * d)
        J[:, i] = col
    Omega = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    control = np.max(np.abs(J.T @ Omega @ J - Omega))
    assert control >= 1e-4
    print(f"\nPASS criterion 7: defect {worst:.2e} (tol 1e-5); corrupted "
          f"control {control:.2e} (must exceed 1e-4)")


def test_criterion_08_compatibility_relations(spline1, rng):
    worst_rel = 0.0
    worst_com = 0.0
    for Ld in (vi.spline_exact(), vi.taylor_average(spline1)):
        for a, b, h in nearby_pairs(rng, 50, h=0.3):
            s = PairState(a, b, h)
            nxt = vi.step(Ld, a, b, h)
            lhs = vi.fplus(Ld, s).as_array()
            rhs = vi.fminus(Ld, PairState(b, nxt, h)).as_array()
            worst_rel = max(worst_rel, np.max(np.abs(lhs - rhs)))

            m = vi.fminus(Ld, s)
            direct = vi.hamiltonian_step(Ld, m, h).as_array()
            sm = vi.fminus_inverse(Ld, m, h)
            n1 = vi.step(Ld, sm.left, sm.right, h)
            via_minus = vi.fminus(Ld, PairState(sm.right, n1, h)).as_array()
            sp_ = vi.fplus_inverse(Ld, m, h)
            n2 = vi.step(Ld, sp_.left, sp_.right, h)
            via_plus = vi.fplus(Ld, PairState(sp_.right, n2, h)).as_array()
            worst_com = max(worst_com, np.max(np.abs(direct - via_minus)),
                            np.max(np.abs(direct - via_plus)))
    assert worst_rel <= 1e-10
    assert worst_com <= 1e-10
    print(f"\nPASS criterion 8: step/momentum relation {worst_rel:.2e}, "
          f"three step-map constructions {worst_com:.2e} (tol 1e-10, "
          f"100 states x 2 schemes)")


def test_criterion_09_measured_orders(spline1):
    traj = vi.cubic_trajectory(np.array([[0.1], [0.4], [0.6], [1.1]]))
    coarse = [0.64, 0.32, 0.16, 0.08]
    fine = [0.04, 0.02, 0.01, 0.005]
    lines = []
    for name, Ld, const in (("averaged", vi.taylor_average(spline1), 1.0 / 36.0),
                            ("midpoint", vi.midpoint_difference(spline1), 1.0 / 24.0)):
        r1 = vi.estimate_order(Ld, spline1, traj, coarse, degree=4)
        r2 = vi.estimate_order(Ld, spline1, traj, fine, degree=4)
        assert abs(r1.r_hat - r2.r_hat) <= 0.1
        for rep in (r1, r2):
            ratios = rep.errors[:-1] / rep.errors[1:]
            assert np.allclose(ratios, 2.0 ** (rep.r_hat + 1.0), rtol=0.05)
        # series oracle: error = jerk^2 h^3 * const exactly on cubic data
        jerk = 1.1
        for h in coarse:
            err = vi.local_error(Ld, spline1, traj(0.0), traj(h), h, degree=4)
            assert err == pytest.approx(jerk**2 * h**3 * const, rel=1e-6)
        lines.append(f"{name}: r_hat {r1.r_hat:.3f}/{r2.r_hat:.3f}")
    print(f"\nPASS criterion 9: {'; '.join(lines)} (stable within 0.1; error "
          f"ratios within 5% of 2^(r+1); series constants 1/36 and 1/24 hit)")


def test_criterion_10_two_link_swing_up():
    start = time.perf_counter()
    P = vi.two_link_problem(N=200)
    res = vi.solve_ocp(P)
    elapsed = time.perf_counter() - start
    q = res.path.positions()
    v = res.path.velocities()
    end_err = max(np.max(np.abs(q[0] - P.qa)), np.max(np.abs(v[0] - P.va)),
                  np.max(np.abs(q[-1] - P.qb)), np.max(np.abs(v[-1] - P.vb)))
    resid = float(np.max(res.path.diagnostics["del_residual"]))
    assert end_err <= 1e-9
    assert resid <= 1e-8
    # the benchmark's verified costs: another stationary path fails here
    assert res.cost == pytest.approx(1.7164151686393838, rel=1e-8)
    assert elapsed < 60.0

    pstart = time.perf_counter()
    pen = vi.JointLimitPenalty(n=2)
    resp = vi.solve_ocp(vi.two_link_problem(N=200, penalty=pen))
    pelapsed = time.perf_counter() - pstart
    th2 = resp.path.positions()[:, 1]
    eps_lo = max(0.0, -float(th2.min()))
    eps_hi = max(0.0, float(th2.max()) - math.radians(170.0))
    assert max(eps_lo, eps_hi) <= 0.02
    assert resp.cost == pytest.approx(2.7300769043819693, rel=1e-6)
    print(f"\nPASS criterion 10: N=200 solve {elapsed:.1f}s (limit 60s), "
          f"endpoints {end_err:.1e} (tol 1e-9), residual {resid:.1e} (tol 1e-8), "
          f"cost {res.cost:.4f}; limited variant {pelapsed:.1f}s keeps the elbow "
          f"within [{-eps_lo:.2e}, 170deg+{eps_hi:.2e}] rad (tol 0.02)")


def test_criterion_11_figure_scenario(tmp_path, capsys):
    from varint.cli import main
    rc = main(["bvp", "--config", str(CONFIGS / "spline_bvp_figure.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "spline-bvp-figure_trajectory.csv").read_text().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    ref = dense_taylor_bvp_oracle(
        JetPoint([0.0, 0.0], ([10.0, 10.0],)),
        JetPoint([10.0, 0.0], ([10.0, 20.0],)),
        uniform_grid(0.0, 1.0, 21))
    dev = float(np.max(np.abs(rows[:, 1:] - ref)))
    assert dev <= 1e-9
    print(f"\nPASS criterion 11: boundary scenario (N=21) vs dense linear "
          f"solve: {dev:.2e} (tol 1e-9)")
