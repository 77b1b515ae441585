"""Named invariant suites behind ``varint check``.

Each suite measures a structural property of the integrators (closed-form
agreement, momentum-map identities, conserved quantity drift, symplectic
defect, solver cross-validation, measured orders) and reports the measured
value against its tolerance.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal

import numpy as np

from .bvp import exact_Ld, solve_regularized
from .discretization import midpoint_difference, spline_exact, taylor_average
from .errors import ConfigError, VarintError
from .flow import run
from .jets import JetPoint, PairState, uniform_grid
from .lagrangian import named_lagrangian
from .momentum import fminus, legendre_match_errors, symplectic_defect
from .order import cubic_trajectory, estimate_order


#: The named models, each built once in this process for every suite it runs
_model = functools.cache(named_lagrangian)


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
    L = _model("spline")
    Ld = taylor_average(L)
    worst = 0.0
    for a, b, h in _nearby_pairs(rng, 200):
        ends = (a.q, a.deriv(1), b.q, b.deriv(1), h)
        worst = max(worst, abs(Ld.value(PairState(a, b, h)) - _taylor_closed_form(*ends)),
                    abs(exact_Ld(L, a, b, h, degree=4) - _spline_closed_form(*ends)))
    return worst <= 1e-10, f"max closed-form error {worst:.3e} (tol 1e-10)"


def check_legendre_match(rng):
    """Momentum maps of the exact one-step action vs the continuous map."""
    worst = [max(max(legendre_match_errors(L, a, b, step))
                 for a, b, step in _nearby_pairs(rng, 5, h=h))
             for L, h in ((_model("spline"), 0.3), (_model("spline-potential"), 0.1))]
    return worst[0] <= 1e-8 and worst[1] <= 1e-6, (
        f"spline max err {worst[0]:.3e} (tol 1e-08), "
        f"with potential {worst[1]:.3e} (tol 1e-06)")


def check_phi(rng):
    """Drift of the conserved per-step quantity over long runs."""
    L = _model("spline")
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
    L = _model("spline")
    worst = max(symplectic_defect(Ld, fminus(Ld, PairState(a, b, h)), h)
                for Ld in (spline_exact(), taylor_average(L))
                for a, b, h in _nearby_pairs(rng, 5, h=0.4))
    return worst <= 1e-5, f"max defect {worst:.3e} (tol 1e-05)"


def check_oracles(rng):
    """Spectral and shooting actions agree; connecting cubic recovered exactly."""
    spline = _model("spline")
    problems = [(spline, 8), (_model("spline-potential"), 10), (_model("spline-velocity"), 10)]
    worst = max(abs(exact_Ld(L, a, b, h, method="regularized", degree=degree)
                    - exact_Ld(L, a, b, h, method="shooting"))
                for L, degree in problems for a, b, h in _nearby_pairs(rng, 2, h=0.1))
    herm = max(float(np.max(np.abs(solve_regularized(spline, a, b, h, degree=6)[2:])))
               for a, b, h in _nearby_pairs(rng, 5, h=0.5))
    return worst <= 1e-8 and herm <= 1e-12, (
        f"action agreement {worst:.3e} (tol 1e-08), "
        f"cubic recovery {herm:.3e} (tol 1e-12)")


def check_order(rng):
    """Measured orders of the approximating schemes on the spline problem."""
    L = _model("spline")
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


#: The suites that the forked child of ``run_suites`` runs, the caller
#: running the rest.  Cold, in seconds on a 2-core x86-64 host: phi 0.25,
#: legendre-match 0.23, oracles 0.11; after phi, the caller's short suites
#: take 0.05 to 0.10 s, so the two processes end together.  A caller that
#: ran oracles peaked 0.3 to 0.5 MB higher after the CLI's spline commands.
_CHILD = ("oracles", "legendre-match")

SUITES = {
    "phi": check_phi,
    "oracles": check_oracles,
    "legendre-match": check_legendre_match,
    "spline-exactness": check_spline_exactness,
    "symplectic": check_symplectic,
    "order": check_order,
}


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _outcomes(names, seed):
    """Run the named suites and yield each name with its outcome:
    ``(passed, details)`` or the exception raised."""
    for name in names:
        try:
            outcome = SUITES[name](np.random.default_rng(seed))
        except Exception as exc:  # raised where the requested order reaches it
            outcome = exc
        yield name, outcome


def _forked(mine, theirs, seed: int) -> dict:
    """The outcomes of the suites ``mine``, run by this process, and
    ``theirs``, run by one forked child that pickles them into a pipe as
    one message, so its share arrives whole or not at all.  The child is
    reaped on every path, and killed first if this process raises."""
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into its caller
        try:
            os.close(result_r)
            with open(result_w, "wb") as out:
                pickle.dump(dict(_outcomes(theirs, seed)), out)
        finally:
            os._exit(0)
    os.close(result_w)
    with open(result_r, "rb") as results:
        try:
            outcomes = dict(_outcomes(mine, seed))
            try:
                outcomes.update(pickle.load(results))
            except (EOFError, pickle.UnpicklingError):
                pass  # the child died before or while sending its share
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)
    return outcomes


def run_suites(names=None, seed: int = 0) -> int:
    """Run the named suites (all by default); print one line per suite, in
    sorted order or the order requested, repeats kept.

    Unknown names raise :class:`ConfigError` before any suite runs.  Each
    distinct suite runs once, on its own ``np.random.default_rng(seed)``, so
    the suites are independent: if the request holds suites both in and
    out of ``_CHILD``, two or more CPUs are available and ``os.fork``
    exists, one forked child runs those in ``_CHILD`` and this process the
    rest; otherwise all run here.  The lines are printed once all have run,
    the same bytes either way, and a suite's exception is raised after the
    lines before it.  The child's share arrives whole or not at all: a
    child that ends without sending it raises :class:`VarintError` naming
    all of its share.  Python 3.12 and later warn when a process with other
    threads forks; the CLI has none under one-thread BLAS.
    """
    names = list(names) if names else sorted(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suites: {unknown}; available: {sorted(SUITES)}")
    distinct = [n for n in SUITES if n in names]
    theirs = [n for n in distinct if n in _CHILD]
    mine = [n for n in distinct if n not in _CHILD]
    if mine and theirs and _cpus() > 1 and hasattr(os, "fork"):
        outcomes = _forked(mine, theirs, seed)
    else:
        outcomes = dict(_outcomes(distinct, seed))
    failures = 0
    for name in names:
        if name not in outcomes:
            held = sorted(set(names) - set(outcomes))
            raise VarintError(f"check: the child process running suites {held} "
                              "ended without their results")
        outcome = outcomes[name]
        if isinstance(outcome, Exception):
            raise outcome
        passed, details = outcome
        print(f"{'PASS' if passed else 'FAIL'} {name}: {details}")
        failures += 0 if passed else 1
    return 0 if failures == 0 else 1
