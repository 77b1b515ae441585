"""Damped Newton for stacks of small dense stationarity systems.

The momentum-map inverses (and through them the one-step recursion) and
both exact-action solvers each drive a residual in a few unknowns to zero,
and the shooting solver's outer differences pose many such systems at once.
The rule is written once, as the generator :func:`_rule`; :func:`newton_one`
answers one rule and :func:`newton` one rule per member of a stack.  The
residuals difference large cancelling terms, so they cannot always be
driven below a roundoff floor, which :func:`floors` sets from the caller's
scale estimate: ``tight`` ends a regular solve, ``loose`` is the level at
which a stalled or exhausted solve is still accepted.
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


def _rule(z0, tight, loose, max_iter, singular, what):
    """One damped Newton solve from ``z0``, as a generator.

    It yields a point ``z`` whose residual it needs, or a pair ``(z, r)``
    whose Newton step ``delta`` (``J(z) @ delta = -r``) it needs, and is
    sent back the residual, the step, or the ``LinAlgError`` of a singular
    J.  Each step is halved (at most 29 times) until the max-norm residual
    reaches ``tight`` or drops by the factor 1 - 1e-4 * alpha.  When no
    halving makes progress, or after ``max_iter`` steps, the solve is
    accepted only at or below ``loose``; otherwise it raises
    :class:`NoConvergence`.  A singular J raises ``singular``, chained from
    the ``LinAlgError``; ``what`` names the solve in messages.  Returns the
    root and its residual.
    """
    z = np.array(z0, dtype=float)
    r = np.asarray((yield z), dtype=float)
    rn = np.abs(r).max()
    message, iterations = f"{what} did not reach tolerance", max_iter
    for it in range(max_iter):
        if rn <= tight:
            return z, r
        delta = yield z, r
        if isinstance(delta, np.linalg.LinAlgError):
            raise singular(f"{what}: Jacobian is singular") from delta
        alpha, zt = 1.0, z + delta
        for halving in range(30):
            if halving:
                alpha *= 0.5
                zt = z + alpha * delta
            rt = np.asarray((yield zt), dtype=float)
            rtn = np.abs(rt).max()
            if rtn <= tight or rtn < (1.0 - 1e-4 * alpha) * rn:
                break
        else:
            # no halving made progress: the solve stays where it was
            message, iterations = f"{what} stalled", it
            break
        z, r, rn = zt, rt, rtn
    if not rn <= loose:
        raise NoConvergence(message, iterations=iterations, residual_norm=rn)
    return z, r


def newton(residual, jacobian, z0, tight, loose, max_iter, singular, what):
    """Solve the independent systems ``residual(z_i) = 0`` from the rows of
    the (M, k) start ``z0``; return the roots, their residuals and failures.

    ``residual(Z, rows)`` gives the (len(rows), k) residuals of the members
    ``rows`` at the rows of Z and ``jacobian(Z, R, rows)`` their
    (len(rows), k, k) Jacobians; each row must depend on its own member
    only.  ``tight`` and ``loose`` are numbers or one level per member.

    Each member runs its own :func:`_rule`, so its iterates are exactly
    those of its solve alone.  A round answers every member that asks for
    a residual with one ``residual`` call or, when none does, every member
    that asks for a step with one ``jacobian`` call and one
    :func:`solve_rows`.  Errors raised by ``residual`` or ``jacobian``
    propagate at once.

    Returns (Z, R, failures): the roots and their residuals, (M, k) each,
    and per member None or the exception its solve alone would raise.  A
    failed member's rows of Z and R hold NaN.
    """
    Z0 = np.array(z0, dtype=float)
    Z, R, failures = np.full_like(Z0, np.nan), np.full_like(Z0, np.nan), [None] * len(Z0)
    tight, loose = np.broadcast_to(tight, len(Z0)), np.broadcast_to(loose, len(Z0))
    rules = [_rule(z, tight[i], loose[i], max_iter, singular, what) for i, z in enumerate(Z0)]
    asks = {i: next(rule) for i, rule in enumerate(rules)}
    while asks:
        rows = [i for i, ask in asks.items() if not isinstance(ask, tuple)]
        if rows:
            answers = residual(np.array([asks[i] for i in rows]), np.array(rows))
        else:
            rows = list(asks)
            Zs = np.array([asks[i][0] for i in rows])
            Rs = np.array([asks[i][1] for i in rows])
            answers, errors = solve_rows(jacobian(Zs, Rs, np.array(rows)), -Rs)
            if errors is not None:
                answers = [d if e is None else e for d, e in zip(answers, errors)]
        for i, answer in zip(rows, answers):
            try:
                asks[i] = rules[i].send(answer)
            except StopIteration as stop:
                Z[i], R[i] = stop.value
                del asks[i]
            except (NoConvergence, singular) as exc:
                failures[i] = exc
                del asks[i]
    return Z, R, failures


def newton_one(residual, jacobian, z0, tight, loose, max_iter, singular, what):
    """:func:`_rule` for one system, with ``residual(z)`` and
    ``jacobian(z, r)`` on plain vectors and numbers for ``tight`` and
    ``loose``; returns (z, r) or raises the rule's failure.  Each step is
    the :func:`solve_rows` of a one-row stack, so the iterates are those
    :func:`newton` gives the one-member stack of ``z0``, bit for bit.
    """
    rule = _rule(z0, tight, loose, max_iter, singular, what)
    ask = next(rule)
    while True:
        if isinstance(ask, tuple):
            delta, errors = solve_rows(jacobian(*ask)[None], -ask[1][None])
            answer = delta[0] if errors is None else errors[0]
        else:
            answer = residual(ask)
        try:
            ask = rule.send(answer)
        except StopIteration as stop:
            return stop.value
