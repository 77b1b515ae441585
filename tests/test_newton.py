import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from varint.errors import NoConvergence, SingularWd
from varint.newton import floors, newton, newton_one


def _no_jacobian(z, r):
    raise AssertionError("a converged start takes no step")


# (residual, jacobian, z0, tight, loose, max_iter, expected root or error)
CASES = {
    # z^2 = 2: quadratic convergence to sqrt(2)
    "converges": (lambda z: z**2 - 2.0, lambda z, r: np.diag(2.0 * z),
                  [1.0], 1e-14, 1e-14, 50, np.sqrt(2.0)),
    # a start already at the root takes no step
    "converged-start": (lambda z: z - 3.0, _no_jacobian,
                        [3.0], 1e-12, 1e-12, 50, 3.0),
    # the residual cannot drop below its floor of 1e-9; the stall is
    # accepted there because loose allows it
    "stall-accepted": (lambda z: np.maximum(np.abs(z - 1.0), 1e-9),
                       lambda z, r: np.eye(1), [1.5], 1e-12, 1e-8, 50, 1.0),
    # the same floor above loose is a failure at the stalled iteration
    "stall-raises": (lambda z: np.maximum(np.abs(z - 1.0), 1e-9),
                     lambda z, r: np.eye(1), [1.5], 1e-12, 1e-10, 50,
                     (NoConvergence, 1, 1e-9)),
    # a wrong Jacobian halves the error per step: 3 steps leave 1/8
    "max-iter-exhausted": (lambda z: z, lambda z, r: 2.0 * np.eye(1),
                           [1.0], 1e-12, 1e-12, 3, (NoConvergence, 3, 0.125)),
    # exhaustion at or below loose is a converged solve
    "max-iter-accepted": (lambda z: z, lambda z, r: 2.0 * np.eye(1),
                          [1.0], 1e-12, 0.2, 3, 0.125),
    "singular": (lambda z: z - 1.0, lambda z, r: np.zeros((2, 2)),
                 [0.0, 0.0], 1e-12, 1e-12, 50, (SingularWd, None, None)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_newton(case):
    residual, jacobian, z0, tight, loose, max_iter, expected = CASES[case]
    z0 = np.asarray(z0, dtype=float)
    if isinstance(expected, tuple):
        error, iterations, residual_norm = expected
        with pytest.raises(error) as info:
            newton_one(residual, jacobian, z0, tight, loose, max_iter, error, "toy")
        if error is NoConvergence:
            assert info.value.iterations == iterations
            assert info.value.residual_norm == pytest.approx(residual_norm)
        else:
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        return
    z, r = newton_one(residual, jacobian, z0, tight, loose, max_iter, SingularWd, "toy")
    assert np.allclose(z, expected, rtol=0.0, atol=max(loose, 1e-8))
    assert np.array_equal(r, residual(z))
    assert np.max(np.abs(r)) <= loose
    assert z is not z0


# one-unknown members of one stack: (residual, jacobian, z0, tight, loose)
MEMBERS = [
    # x^3 = 2 from far away: damped steps, then quadratic convergence
    (lambda z: z**3 - 2.0, lambda z, r: np.diag(3.0 * z**2), [6.0], 1e-14, 1e-14),
    # a start at the root: no step at all
    (lambda z: z - 3.0, lambda z, r: np.eye(1), [3.0], 1e-12, 1e-12),
    # z^2 = 2: converges in a few undamped steps
    (lambda z: z**2 - 2.0, lambda z, r: np.diag(2.0 * z), [1.0], 1e-14, 1e-14),
    # stalls at its floor of 1e-9 and is accepted there, below loose
    (lambda z: np.maximum(np.abs(z - 1.0), 1e-9), lambda z, r: np.eye(1),
     [1.5], 1e-12, 1e-8),
    # the same stall above loose: NoConvergence at iteration 1
    (lambda z: np.maximum(np.abs(z - 1.0), 1e-9), lambda z, r: np.eye(1),
     [1.5], 1e-12, 1e-10),
    # a wrong Jacobian halves the residual per step: exhausted at max_iter
    (lambda z: z, lambda z, r: 2.0 * np.eye(1), [1.0], 1e-12, 1e-12),
    # exhausted too, but accepted at loose
    (lambda z: z, lambda z, r: 2.0 * np.eye(1), [1.0], 1e-12, 1e-3),
    # a singular Jacobian
    (lambda z: z - 1.0, lambda z, r: np.zeros((1, 1)), [0.0], 1e-12, 1e-12),
]


def _recorded(members):
    """Stacked residual and Jacobian over ``members``, and the list of
    points each member is evaluated at."""
    seen = [[] for _ in members]

    def residual(Z, rows):
        for z, i in zip(Z, rows):
            seen[i].append(z.tolist())
        return np.array([members[i][0](z) for z, i in zip(Z, rows)])

    def jacobian(Z, R, rows):
        return np.array([members[i][1](z, r) for z, r, i in zip(Z, R, rows)])

    return residual, jacobian, seen


def test_stacked_members_match_their_solo_solves():
    max_iter = 12
    residual, jacobian, seen = _recorded(MEMBERS)
    Z, R, failures = newton(residual, jacobian, [m[2] for m in MEMBERS],
                            np.array([m[3] for m in MEMBERS]),
                            np.array([m[4] for m in MEMBERS]), max_iter,
                            SingularWd, "toy")
    iterations = set()
    for i, (res, jac, z0, tight, loose) in enumerate(MEMBERS):
        solo_res, solo_jac, solo_seen = _recorded([(res, jac)])
        try:
            z, r = newton_one(lambda z: solo_res(z[None], [0])[0],
                              lambda z, r: solo_jac(z[None], r[None], [0])[0],
                              np.array(z0, dtype=float), tight, loose, max_iter,
                              SingularWd, "toy")
        except (NoConvergence, SingularWd) as exc:
            assert type(failures[i]) is type(exc)
            assert str(failures[i]) == str(exc)
            if isinstance(exc, NoConvergence):
                assert failures[i].iterations == exc.iterations
                assert failures[i].residual_norm == exc.residual_norm
            else:
                assert isinstance(failures[i].__cause__, np.linalg.LinAlgError)
        else:
            assert failures[i] is None
            assert np.array_equal(Z[i], z) and np.array_equal(R[i], r)
        # the member saw exactly the points of its solo solve, in order
        assert seen[i] == solo_seen[0]
        iterations.add(len(seen[i]))
    assert [type(f).__name__ for f in failures] == [
        "NoneType", "NoneType", "NoneType", "NoneType", "NoConvergence",
        "NoConvergence", "NoneType", "SingularWd"]
    assert failures[4].iterations == 1 and failures[4].residual_norm == 1e-9
    assert failures[5].iterations == max_iter
    assert failures[5].residual_norm == 0.5 ** max_iter
    assert np.max(np.abs(R[6])) == 0.5 ** max_iter
    # the members stopped at different iterations
    assert len(iterations) >= 4


def test_floors_rise_above_tol_only_for_roundoff():
    eps = np.finfo(float).eps
    assert floors(1e-10, 1.0) == (1e-10, 1e-10)
    assert floors(1e-12, 1e3) == (1e-12, 64.0 * eps * 1e3)
    assert floors(0.0, 1e6) == (2.0 * eps * 1e6, 64.0 * eps * 1e6)


# -- newton_one against newton on one-row stacks ------------------------------------

def _family(kind, c, m):
    """(residual, jacobian) on vectors: ``c`` is the root, ``m`` a family
    parameter (power, Jacobian factor or residual floor)."""
    if kind == "power":        # z^m = c^m, from anywhere: full steps or halvings
        return (lambda z: z ** m - c ** m, lambda z, r: np.diag(m * z ** (m - 1)))
    if kind == "arctan":       # overshoots from |z - c| > 1.4: halvings
        return (lambda z: np.arctan(z - c), lambda z, r: np.diag(1.0 / (1.0 + (z - c) ** 2)))
    if kind == "floor":        # cannot drop below m: a stall at iteration 1 or 2
        return (lambda z: np.maximum(np.abs(z - c), m), lambda z, r: np.eye(z.size))
    if kind == "wrong":        # a Jacobian m times too large: linear convergence
        return (lambda z: z - c, lambda z, r: m * np.eye(z.size))
    if kind == "creep":        # 1 at distance m from c and beyond, 2 within m/4,
        # and 1 - 7.5e-5 between: from c + m, the full step fails and the half
        # step passes the decrease test at alpha = 1/2 (1 - 5e-5), not at 1
        def residual(z):
            d = np.abs(z - c)
            return np.where(d >= 0.9 * m, 1.0, np.where(d < 0.25 * m, 2.0, 1.0 - 7.5e-5))
        return residual, lambda z, r: np.eye(z.size) / m
    return (lambda z: z - c, lambda z, r: np.outer(z * 0.0 + 1.0, z * 0.0 + m))  # singular


def _solves(kind, c, m, z0, tight, loose, max_iter):
    """The outcomes of newton_one and of newton on the one-row stack, each
    with the points its residual was evaluated at, and the exit the solo
    solve took."""
    residual, jacobian = _family(kind, np.asarray(c, dtype=float), m)
    calls = {"residual": 0, "jacobian": 0}

    def outcome(solve):
        seen = []

        def seen_residual(z):
            seen.append(z.tobytes())
            return residual(z)

        try:
            z, r = solve(seen_residual)
        except (NoConvergence, SingularWd) as exc:
            return (type(exc), str(exc), getattr(exc, "iterations", None),
                    getattr(exc, "residual_norm", None), type(exc.__cause__), seen)
        return z.tobytes(), r.tobytes(), seen

    def counted_jacobian(z, r):
        calls["jacobian"] += 1
        return jacobian(z, r)

    def stacked(residual):
        Z, R, failures = newton(lambda Z, rows: residual(Z[0])[None],
                                lambda Z, R, rows: jacobian(Z[0], R[0])[None],
                                z0[None], tight, loose, max_iter, SingularWd, "toy")
        if failures[0] is not None:
            raise failures[0]
        return Z[0], R[0]

    z0 = np.asarray(z0, dtype=float)
    with np.errstate(all="ignore"):    # far starts of the powers overflow
        one = outcome(lambda residual: newton_one(residual, counted_jacobian, z0, tight,
                                                  loose, max_iter, SingularWd, "toy"))
        two = outcome(stacked)
    calls["residual"] = len(one[-1])

    if one[0] is SingularWd:
        exit = "singular"
    elif one[0] is NoConvergence:
        exit = "stall-raises" if one[1] == "toy stalled" else "max-iter-raises"
    elif not np.abs(np.frombuffer(one[1])).max() <= tight:
        exit = "stall-accepted" if calls["residual"] >= 30 else "max-iter-accepted"
    elif calls["jacobian"] == 0:
        exit = "converged-start"
    else:
        exit = "halvings" if calls["residual"] > calls["jacobian"] + 1 else "full-steps"
    return one, two, exit


# (exit, (kind, root, parameter, start, tight, loose, max_iter))
EXITS = [
    ("converged-start", ("power", [1.5, 2.0], 2, [1.5, 2.0], 1e-12, 1e-12, 50)),
    ("full-steps", ("power", [1.5, 2.0], 2, [1.0, 3.0], 1e-12, 1e-12, 50)),
    ("halvings", ("arctan", [0.5], 0, [3.0], 1e-12, 1e-12, 50)),
    ("stall-accepted", ("floor", [1.0], 1e-9, [1.5], 1e-12, 1e-8, 50)),
    ("stall-raises", ("floor", [1.0], 1e-9, [1.5], 1e-12, 1e-10, 50)),
    ("max-iter-accepted", ("wrong", [1.0, -2.0], 2.0, [0.0, 0.0], 1e-12, 0.2, 4)),
    # one iteration, whose half step decreases the residual by 7.5e-5 only
    ("max-iter-accepted", ("creep", [0.0], 1.0, [1.0], 1e-12, 1.0, 1)),
    ("max-iter-raises", ("wrong", [1.0, -2.0], 2.0, [0.0, 0.0], 1e-12, 1e-3, 4)),
    ("singular", ("singular", [1.0, 2.0], 1.0, [0.0, 0.0], 1e-12, 1e-12, 50)),
]


@pytest.mark.parametrize("exit, case", EXITS)
def test_one_member_loop_takes_each_exit_as_the_stack(exit, case):
    one, stacked, taken = _solves(*case)
    assert taken == exit
    assert one == stacked
    if exit == "singular":
        assert one[4] is np.linalg.LinAlgError
    if case[0] == "creep":
        assert np.frombuffer(one[0]).tolist() == [0.5]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["power", "arctan", "floor", "wrong", "creep", "singular"]),
       k=st.integers(1, 3), data=st.data(),
       tight=st.sampled_from([0.0, 1e-14, 1e-12, 1e-9]),
       loose=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-2, 1.0]),
       max_iter=st.integers(0, 20))
def test_one_member_loop_equals_the_one_row_stack(kind, k, data, tight, loose, max_iter):
    c = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k)))
    # the start at the root, or off it by 0.05 to 4 in each entry
    offset = st.floats(0.05, 4.0) | st.floats(-4.0, -0.05)
    z0 = c if data.draw(st.integers(0, 9)) == 7 else c + data.draw(
        st.lists(offset, min_size=k, max_size=k))
    m = {"power": data.draw(st.sampled_from([2, 3])), "arctan": 0,
         "floor": data.draw(st.sampled_from([1e-12, 1e-9, 1e-6])),
         "wrong": data.draw(st.floats(1.2, 4.0)),
         "creep": data.draw(st.floats(0.1, 4.0)),
         "singular": data.draw(st.floats(-2.0, 2.0))}[kind]
    one, stacked, exit = _solves(kind, c, m, z0, tight, loose, max_iter)
    event(exit)
    assert one == stacked
