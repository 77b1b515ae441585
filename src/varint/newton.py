"""Damped Newton for the small dense stationarity systems.

The momentum-map inverses (and through them the one-step recursion) and
both exact-action solvers each drive a residual in a few unknowns to zero.  The residuals
difference large cancelling terms, so they cannot always be driven below a
roundoff floor that the caller estimates: ``tight`` ends a regular solve,
``loose`` is the level at which a stalled or exhausted solve is still
accepted.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def newton(residual, jacobian, z0, tight, loose, max_iter, singular, what):
    """Solve ``residual(z) = 0`` from ``z0``; return the root and its residual.

    Each step solves ``jacobian(z, r) @ delta = -r`` and halves the step (at
    most 30 times) until the max-norm residual reaches ``tight`` or drops by
    the factor 1 - 1e-4 * alpha.  When no halving makes progress, or after
    ``max_iter`` steps, the iterate is accepted only at or below ``loose``;
    otherwise :class:`NoConvergence` is raised.  A singular Jacobian raises
    ``singular``, chained from the ``LinAlgError``.  ``what`` names the solve
    in error messages.
    """
    z = np.array(z0, dtype=float)
    r = residual(z)
    rnorm = np.max(np.abs(r))
    for it in range(max_iter):
        if rnorm <= tight:
            return z, r
        try:
            delta = np.linalg.solve(jacobian(z, r), -r)
        except np.linalg.LinAlgError as exc:
            raise singular(f"{what}: Jacobian is singular") from exc
        alpha = 1.0
        for _ in range(30):
            zt = z + alpha * delta
            rt = residual(zt)
            rt_norm = np.max(np.abs(rt))
            if rt_norm <= tight or rt_norm < (1.0 - 1e-4 * alpha) * rnorm:
                break
            alpha *= 0.5
        else:
            if rnorm <= loose:
                return z, r
            raise NoConvergence(f"{what} stalled", iterations=it,
                                residual_norm=rnorm)
        z, r, rnorm = zt, rt, rt_norm
    if rnorm <= loose:
        return z, r
    raise NoConvergence(f"{what} did not reach tolerance", iterations=max_iter,
                        residual_norm=rnorm)
