"""Damped Newton for stacks of small dense stationarity systems.

The momentum-map inverses (and through them the one-step recursion) and
both exact-action solvers each drive a residual in a few unknowns to zero,
and the shooting solver's outer differences pose many such systems at once.
One kernel solves a stack of independent systems, and a single solve runs
its rule on plain vectors, with the same iterates.  The residuals
difference large cancelling terms, so they cannot always be driven below a
roundoff floor, which :func:`floors` sets from the caller's scale
estimate: ``tight`` ends a regular solve, ``loose`` is the level at which a
stalled or exhausted solve is still accepted.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def floors(tol, scale):
    """(tight, loose): ``tol``, raised to 2 eps and 64 eps times ``scale``,
    elementwise for arrays of levels."""
    eps = np.finfo(float).eps
    return np.maximum(tol, 2.0 * eps * scale), np.maximum(tol, 64.0 * eps * scale)


def solve_rows(A, b):
    """Solve ``A[i] @ x[i] = b[i]`` for each row: (M, k, k) and (M, k) in.

    Returns the (M, k) solutions and None, or, when some ``A[i]`` is
    singular, the solutions (NaN in singular rows) and a list holding each
    row's LinAlgError or None.
    """
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        x, errors = np.full(b.shape, np.nan), [None] * len(b)
        for i in range(len(b)):
            try:
                x[i] = np.linalg.solve(A[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError as exc:
                errors[i] = exc
        return x, errors


def newton(residual, jacobian, z0, tight, loose, max_iter, singular, what):
    """Solve the independent systems ``residual(z_i) = 0`` from the rows of
    the (M, k) start ``z0``; return the roots, their residuals and failures.

    ``residual(Z, rows)`` gives the (len(rows), k) residuals of the members
    ``rows`` at the rows of Z and ``jacobian(Z, R, rows)`` their
    (len(rows), k, k) Jacobians; each row must depend on its own member
    only.  ``tight`` and ``loose`` are numbers or one level per member.

    Each member steps by ``jacobian @ delta = -r`` and halves its step (at
    most 30 times) until its max-norm residual reaches ``tight`` or drops by
    the factor 1 - 1e-4 * alpha.  When no halving makes progress, or after
    ``max_iter`` steps, the member is accepted only at or below ``loose``;
    otherwise its failure is a :class:`NoConvergence`.  A singular Jacobian
    fails the member with ``singular``, chained from the ``LinAlgError``.
    ``what`` names the solve in messages.  Members stop on their own, so
    each one's iterates are exactly those of its solve alone; errors raised
    by ``residual`` or ``jacobian`` propagate at once.

    Returns (Z, R, failures): the last iterates and residuals, (M, k) each,
    and per member None or the exception its solve alone would raise.
    """
    Z = np.array(z0, dtype=float)
    ids = np.arange(len(Z))
    R = np.array(residual(Z, ids), dtype=float)
    failures = [None] * len(Z)
    # the members still iterating: their ids, iterates, residuals and levels
    z, r, rn = Z, R, np.abs(R).max(axis=1)
    tt, lo = np.zeros(ids.size) + tight, np.zeros(ids.size) + loose

    def leave(gone, message=None, iterations=None):
        # members ``gone`` (a mask) stop at their iterate, failed if a
        # message is given and their residual is above ``loose``
        nonlocal z, r, rn, tt, lo, ids
        Z[ids[gone]], R[ids[gone]] = z[gone], r[gone]
        if message is not None:
            for i, norm, floor in zip(ids[gone], rn[gone], lo[gone]):
                if not norm <= floor:
                    failures[i] = NoConvergence(message, iterations=iterations,
                                                residual_norm=norm)
        keep = ~gone
        z, r, rn, tt, lo, ids = z[keep], r[keep], rn[keep], tt[keep], lo[keep], ids[keep]

    for it in range(max_iter):
        converged = rn <= tt
        if converged.any():
            leave(converged)
        if not ids.size:
            break
        delta, errors = solve_rows(jacobian(z, r, ids), -r)
        if errors is not None:
            bad = np.array([e is not None for e in errors])
            for i, exc in zip(ids[bad], (e for e in errors if e is not None)):
                failures[i] = singular(f"{what}: Jacobian is singular")
                failures[i].__cause__ = exc
            delta = delta[~bad]
            leave(bad)
            if not ids.size:
                break
        # the full step for all, then halvings for the members it fails
        zt = z + delta
        rt = residual(zt, ids)
        rtn = np.abs(rt).max(axis=1)
        s = np.flatnonzero(~((rtn <= tt) | (rtn < (1.0 - 1e-4) * rn)))
        if s.size:
            zt, rt, alpha = zt.copy(), np.array(rt, dtype=float), np.ones(ids.size)
            for _ in range(29):
                alpha[s] *= 0.5
                zs = z[s] + alpha[s, None] * delta[s]
                rs = residual(zs, ids[s])
                rsn = np.abs(rs).max(axis=1)
                zt[s], rt[s], rtn[s] = zs, rs, rsn
                s = s[~((rsn <= tt[s]) | (rsn < (1.0 - 1e-4 * alpha[s]) * rn[s]))]
                if not s.size:
                    break
        if s.size:
            # no halving made progress: these members stay where they were
            zt[s], rt[s], rtn[s] = z[s], r[s], rn[s]
            stalled = np.zeros(ids.size, dtype=bool)
            stalled[s] = True
            z, r, rn = zt, rt, rtn
            leave(stalled, f"{what} stalled", it)
        else:
            z, r, rn = zt, rt, rtn
    if ids.size:
        leave(np.ones(ids.size, dtype=bool), f"{what} did not reach tolerance", max_iter)
    return Z, R, failures


def newton_one(residual, jacobian, z0, tight, loose, max_iter, singular, what):
    """:func:`newton`'s rule for one member, with ``residual(z)`` and
    ``jacobian(z, r)`` on plain vectors and numbers for ``tight`` and
    ``loose``; returns (z, r) or raises the failure :func:`newton` would
    report for the one-member stack of ``z0``.

    The iterates, residuals, exits, messages and ``iterations`` are those
    of that stack, bit for bit: the step is the same ``np.linalg.solve``
    call on a one-row stack.  It is a loop of its own because the stacked
    kernel's masks and compaction cost about 23 us a solve (36 against 12
    us for one iteration on a trivial system): a sixth of a one-step map,
    which ``varint check`` runs thousands of times.
    """
    z = np.array(z0, dtype=float)
    r = np.asarray(residual(z), dtype=float)
    rn = np.abs(r).max()
    message, iterations = f"{what} did not reach tolerance", max_iter
    for it in range(max_iter):
        if rn <= tight:
            return z, r
        try:
            delta = np.linalg.solve(jacobian(z, r)[None], -r[None, :, None])[0, :, 0]
        except np.linalg.LinAlgError as exc:
            raise singular(f"{what}: Jacobian is singular") from exc
        # the full step, then at most 29 halvings while it fails
        alpha, zt = 1.0, z + delta
        for halving in range(30):
            if halving:
                alpha *= 0.5
                zt = z + alpha * delta
            rt = np.asarray(residual(zt), dtype=float)
            rtn = np.abs(rt).max()
            if rtn <= tight or rtn < (1.0 - 1e-4 * alpha) * rn:
                break
        else:
            # no halving made progress: the member stays where it was
            message, iterations = f"{what} stalled", it
            break
        z, r, rn = zt, rt, rtn
    if not rn <= loose:
        raise NoConvergence(message, iterations=iterations, residual_norm=rn)
    return z, r
