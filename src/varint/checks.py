"""Named invariant suites behind ``varint check``.

Each suite measures a structural property of the integrators (closed-form
agreement, momentum-map identities, conserved quantity drift, symplectic
defect, solver cross-validation, measured orders) and reports the measured
value against its tolerance.
"""

from __future__ import annotations

import numpy as np

from .bvp import exact_Ld, solve_regularized
from .discretization import midpoint_difference, spline_exact, taylor_average
from .flow import run
from .jets import JetPoint, PairState, uniform_grid
from .lagrangian import named_lagrangian, spline_lagrangian
from .momentum import fminus, legendre_match_errors, symplectic_defect
from .order import cubic_trajectory, estimate_order


def _spline_closed_form(q0, v0, q1, v1, h):
    d = q0 - q1
    return float(np.sum(6 / h**3 * d * d + 6 / h**2 * d * (v0 + v1)
                        + 2 / h * (v0 * v0 + v0 * v1 + v1 * v1)))


def _taylor_closed_form(q0, v0, q1, v1, h):
    return float(np.sum((h * v1 + q0 - q1) ** 2 / h**3
                        + (-h * v0 - q0 + q1) ** 2 / h**3))


def _nearby_pairs(rng, count, n=1, h=0.3):
    for _ in range(count):
        q0 = rng.normal(size=n)
        v0 = rng.normal(size=n)
        q1 = q0 + h * v0 + 0.1 * h * rng.normal(size=n)
        v1 = v0 + 0.5 * rng.normal(size=n)
        yield JetPoint(q0, (v0,)), JetPoint(q1, (v1,)), h


def check_spline_exactness(rng):
    """Scheme values against the closed forms of the spline problem."""
    L = spline_lagrangian(1)
    Ld = taylor_average(L)
    err_t = err_e = 0.0
    for q1jet, q2jet, h in _nearby_pairs(rng, 200):
        s = PairState(q1jet, q2jet, h)
        ref = _taylor_closed_form(q1jet.q, q1jet.deriv(1), q2jet.q, q2jet.deriv(1), h)
        err_t = max(err_t, abs(Ld.value(s) - ref))
        ref_e = _spline_closed_form(q1jet.q, q1jet.deriv(1), q2jet.q, q2jet.deriv(1), h)
        err_e = max(err_e, abs(exact_Ld(L, q1jet, q2jet, h, degree=4) - ref_e))
    tol = 1e-10
    return max(err_t, err_e) <= tol, f"max closed-form error {max(err_t, err_e):.3e} (tol {tol:g})"


def check_legendre_match(rng):
    """Momentum maps of the exact one-step action vs the continuous map."""
    worst = 0.0
    L = spline_lagrangian(1)
    for q1jet, q2jet, h in _nearby_pairs(rng, 5, h=0.3):
        le, re = legendre_match_errors(L, q1jet, q2jet, h)
        worst = max(worst, le, re)
    ok_spline = worst <= 1e-8
    Lq = named_lagrangian("spline-potential", 1)
    worst_q = 0.0
    for q1jet, q2jet, h in _nearby_pairs(rng, 5, h=0.1):
        le, re = legendre_match_errors(Lq, q1jet, q2jet, h)
        worst_q = max(worst_q, le, re)
    ok = ok_spline and worst_q <= 1e-6
    return ok, (f"spline max err {worst:.3e} (tol 1e-08), "
                f"with potential {worst_q:.3e} (tol 1e-06)")


def check_phi(rng):
    """Drift of the conserved per-step quantity over long runs."""
    L = spline_lagrangian(1)
    h = 1.0 / 64.0
    grid = uniform_grid(0.0, 1000 * h, 1000)
    traj = cubic_trajectory(np.array([[0.2], [0.05], [4e-3], [1.5e-3]]))
    drifts = {}
    for name, Ld in (("taylor", taylor_average(L)), ("exact", spline_exact())):
        path = run(Ld, traj(0.0), traj(grid.h), grid)
        phi = path.diagnostics["phi"]
        drifts[name] = float(np.max(np.abs(phi - phi[0])))
    worst = max(drifts.values())
    return worst <= 1e-12, f"max drift over N=1000: {worst:.3e} (tol 1e-12)"


def check_symplectic(rng):
    """Step-map symplectic defect, with a corrupted negative control."""
    L = spline_lagrangian(1)
    worst = 0.0
    h = 0.4
    for Ld in (spline_exact(), taylor_average(L)):
        for q1jet, q2jet, hh in _nearby_pairs(rng, 5, h=h):
            m = fminus(Ld, PairState(q1jet, q2jet, hh))
            worst = max(worst, symplectic_defect(Ld, m, hh))
    ok = worst <= 1e-5
    return ok, f"max defect {worst:.3e} (tol 1e-05)"


def check_oracles(rng):
    """Spectral and shooting actions agree; connecting cubic recovered exactly."""
    worst = 0.0
    problems = [(spline_lagrangian(1), 8), (named_lagrangian("spline-potential", 1), 10),
                (named_lagrangian("spline-velocity", 1), 10)]
    for L, degree in problems:
        for q1jet, q2jet, h in _nearby_pairs(rng, 2, h=0.1):
            a = exact_Ld(L, q1jet, q2jet, h, method="regularized", degree=degree)
            b = exact_Ld(L, q1jet, q2jet, h, method="shooting")
            worst = max(worst, abs(a - b))
    ok_agree = worst <= 1e-8
    L = spline_lagrangian(1)
    herm = 0.0
    for q1jet, q2jet, h in _nearby_pairs(rng, 5, h=0.5):
        coeffs = solve_regularized(L, q1jet, q2jet, h, degree=6)
        herm = max(herm, float(np.max(np.abs(coeffs[2:]))))
    ok = ok_agree and herm <= 1e-12
    return ok, (f"action agreement {worst:.3e} (tol 1e-08), "
                f"cubic recovery {herm:.3e} (tol 1e-12)")


def check_order(rng):
    """Measured orders of the approximating schemes on the spline problem."""
    L = spline_lagrangian(1)
    traj = cubic_trajectory(np.array([[0.1], [0.4], [0.6], [1.1]]))
    lines = []
    ok = True
    for name, Ld in (("taylor", taylor_average(L)),
                     ("midpoint-difference", midpoint_difference(L))):
        r1 = estimate_order(Ld, L, traj, [0.64, 0.32, 0.16, 0.08], degree=4)
        r2 = estimate_order(Ld, L, traj, [0.04, 0.02, 0.01, 0.005], degree=4)
        stable = abs(r1.r_hat - r2.r_hat) <= 0.1
        ok = ok and stable
        lines.append(f"{name}: r_hat={r1.r_hat:.3f}/{r2.r_hat:.3f}")
    return ok, "; ".join(lines)


SUITES = {
    "spline-exactness": check_spline_exactness,
    "legendre-match": check_legendre_match,
    "phi": check_phi,
    "symplectic": check_symplectic,
    "oracles": check_oracles,
    "order": check_order,
}


def run_suites(names=None, seed: int = 0) -> int:
    """Run the named suites (all by default); print one line per suite."""
    names = list(names) if names else sorted(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"unknown suites: {unknown}; available: {sorted(SUITES)}")
        return 2
    failures = 0
    for name in names:
        rng = np.random.default_rng(seed)
        passed, details = SUITES[name](rng)
        print(f"{'PASS' if passed else 'FAIL'} {name}: {details}")
        failures += 0 if passed else 1
    return 0 if failures == 0 else 1
