"""Property tests over the scheme registry.

Every name in SCHEMES is built through make_scheme on a few seeded
polynomial Lagrangians 1/2 |qddot|^2 + V(q, qdot), V cubic with small
coefficients, and on 1/2 |qddot|^2 itself; hypothesis draws the seed states
and the step h.  V keeps the quadratic 1/2 |qdot|^2: midpoint-difference
sets the next position only through the velocity Hessian of L, which must
stay definite (for 1/2 |qddot|^2 alone that scheme's Wd is singular).
"""

import itertools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from varint import (JetPoint, LagrangianModel, PairState, SingularWd, Wd_matrix,
                    del_residual, fminus, fplus, hamiltonian_step, lift_cost, make_scheme,
                    named_lagrangian, phi_values, run, step, symplectic_defect,
                    two_link_problem, uniform_grid)
from varint.discretization import SCHEMES, _AffineJetScheme
from varint.flow import _pairs_of
from varint.jets import pack, unpack

from conftest import model_from_expr


def polynomial_model(n, seed):
    """1/2 |qddot|^2 + 1/2 |qdot|^2 plus every monomial of degree 2 and 3 in
    (q, qdot), with coefficients of size about 0.03."""
    rng = np.random.default_rng(seed)
    q = sp.symbols(f"q0:{n}", real=True)
    dq = sp.symbols(f"dq0:{n}", real=True)
    ddq = sp.symbols(f"ddq0:{n}", real=True)
    V = sum(v**2 for v in dq) / 2 + sum(
        sp.Float(round(0.03 * rng.normal(), 3)) * sp.Mul(*m)
        for d in (2, 3) for m in itertools.combinations_with_replacement(q + dq, d))
    return LagrangianModel.from_sympy(n, sum(a**2 for a in ddq) / 2 + V, q, dq, ddq,
                                      poly_degree=3, name=f"cubic-{n}-{seed}")


MODELS = [polynomial_model(1, 1), polynomial_model(2, 2), polynomial_model(2, 3)]
SPLINES = [named_lagrangian("spline", 1), named_lagrangian("spline", 2)]
#: (model, scheme) pairs whose one-step map is regular
REGULAR = ([(L, name) for L in MODELS
            for name in ("taylor", "taylor-midpoint", "midpoint-difference")]
           + [(L, name) for L in SPLINES for name in ("taylor", "spline-exact")])
IDS = [f"{L.name}-{L.n}-{name}" for L, name in REGULAR]
STEPS = 8


@st.composite
def seeds(draw, n):
    """Seed states (x0, x1) one step h apart along a smooth motion: x1 is
    x0 advanced by h under a constant acceleration a."""
    unit = st.floats(-1.0, 1.0)
    h = draw(st.floats(0.08, 0.15))
    q0, v0, a = (np.array(draw(st.lists(unit, min_size=n, max_size=n))) for _ in range(3))
    return JetPoint(q0, (v0,)), JetPoint(q0 + h * v0 + 0.5 * h * h * a, (v0 + h * a,)), h


def test_registry_builds_every_scheme_and_refuses_spline_exact():
    for L in MODELS:
        for name in SCHEMES:
            if name == "spline-exact":
                with pytest.raises(ValueError, match=f"not {L.name}$"):
                    make_scheme(name, L)
            else:
                assert make_scheme(name, L).name == name
    for L in SPLINES:
        assert make_scheme("spline-exact", L).name == "spline-exact"


@pytest.mark.parametrize("L, name", REGULAR, ids=IDS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_recursion_along_run(L, name, data):
    # fplus of each pair is fminus of the next; the cubic-spline schemes
    # conserve phi on 1/2 |qddot|^2
    x0, x1, h = data.draw(seeds(L.n))
    Ld = make_scheme(name, L)
    path = run(Ld, x0, x1, uniform_grid(0.0, STEPS * h, STEPS))
    X = path.states
    for k in range(STEPS - 1):
        plus = fplus(Ld, PairState(X[k], X[k + 1], h)).as_array()
        minus = fminus(Ld, PairState(X[k + 1], X[k + 2], h)).as_array()
        assert np.max(np.abs(plus - minus)) <= 1e-10 * max(1.0, np.max(np.abs(plus)))
    if L.name == "spline":
        phi = phi_values(path)
        assert np.max(np.abs(phi - phi[0])) <= 1e-12


#: every scheme on the spline models, spline-exact only on 1/2 |qddot|^2
SPLINE_SCHEMES = [(L, name) for L in SPLINES + [named_lagrangian("spline-potential")]
                  for name in SCHEMES if (L.name, name) != ("spline-potential", "spline-exact")]


@pytest.mark.parametrize("L, name", SPLINE_SCHEMES,
                         ids=[f"{L.name}-{L.n}-{name}" for L, name in SPLINE_SCHEMES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_del_residual_is_the_sum_of_both_pairs_partials(L, name, data):
    # the momenta of F+ at (prev, cur) less those of F- at (cur, nxt) are,
    # bit for bit, (D3 + D1, D4 + D2) from the partials of the two pairs
    vector = st.lists(st.floats(-1.0, 1.0), min_size=L.n, max_size=L.n).map(np.array)
    prev, cur, nxt = (JetPoint(data.draw(vector), (data.draw(vector),)) for _ in range(3))
    h = data.draw(st.floats(0.05, 0.5))
    Ld = make_scheme(name, L)
    a, b = (np.concatenate(Ld.partials(PairState(x, y, h))) for x, y in ((prev, cur), (cur, nxt)))
    expected = a[a.size // 2:] + b[:b.size // 2]
    assert del_residual(Ld, prev, cur, nxt, h).tobytes() == expected.tobytes()


@pytest.mark.parametrize("L, name", REGULAR, ids=IDS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_one_step_maps_agree(L, name, data):
    # step is the (q, v) of hamiltonian_step from the pair's plus momenta,
    # it zeroes the DEL residual, and the momentum step map is symplectic
    # up to its difference noise
    x0, x1, h = data.draw(seeds(L.n))
    Ld = make_scheme(name, L)
    first = PairState(x0, x1, h)
    m = fplus(Ld, first)
    scale = max(1.0, np.max(np.abs(m.as_array())))
    x2 = step(Ld, x0, x1, h)
    moved = hamiltonian_step(Ld, m, h).as_array()[:2 * L.n]
    assert np.max(np.abs(moved - x2.as_array())) <= 1e-10
    assert np.max(np.abs(del_residual(Ld, x0, x1, x2, h))) <= 1e-10 * scale
    assert symplectic_defect(Ld, fminus(Ld, first), h) <= 1e-5


@pytest.mark.parametrize("L", MODELS, ids=lambda L: f"{L.name}-{L.n}")
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_trapezoid_velocity_step_is_singular(L, data):
    # q0 enters only the first term and q1 only the second, and L couples
    # neither to qddot, so the first block row (D13, D14) of Wd is zero: the
    # first DEL block at x1 does not depend on the next node, and the step
    # raises, also where its start already solves the inversion
    x0, x1, h = data.draw(seeds(L.n))
    Ld = make_scheme("trapezoid-velocity", L)
    assert not np.any(Wd_matrix(Ld, PairState(x0, x1, h))[:L.n])
    with pytest.raises(SingularWd):
        step(Ld, x0, x1, h)


#: the lifted two-link model, which the swing-up solves, and a sympy model
#: with a transcendental term
SWEPT = [lift_cost(two_link_problem(N=4)),
         model_from_expr(2, "ddq0**2/2 + ddq1**2/2 + cos(q0)*dq1**2")]
AFFINE = [name for name in SCHEMES if name != "spline-exact"]


def _bytes(r):
    return np.concatenate(r).tobytes() if isinstance(r, tuple) else np.float64(r).tobytes()


@pytest.mark.parametrize("N", [2, 3, 25, 200])
@pytest.mark.parametrize("L", SWEPT, ids=lambda L: L.name)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.floats(0.5, 10.0))
def test_sweep_rows_equal_per_pair_calls(L, N, seed, T):
    # the pairs of a path sweep are answered from one evaluation on their
    # pair array; each row has the bytes of the per-pair code, run on a
    # copy of the row and on a PairState built from jets
    nodes = np.random.default_rng(seed).normal(size=(N + 1, 2 * L.n))
    h, n = T / N, L.n
    for name in AFFINE:
        Ld = make_scheme(name, L)
        assert isinstance(Ld, _AffineJetScheme)
        evaluations, evaluate = [], Ld._sum

        def rows_of(kind, x, *args):
            if x.ndim == 2:
                evaluations.append(kind)
            return evaluate(kind, x, *args)

        Ld._sum = rows_of
        for method, kind in [("value", "value"), ("partials", "partials"),
                             ("second_partials", "second_partials"),
                             ("residual_scale", "second_partials")]:
            pairs = list(_pairs_of(nodes, h))
            swept = [_bytes(getattr(Ld, method)(s)) for s in pairs]
            assert evaluations == [kind]
            evaluations.clear()
            for s, b in zip(pairs, swept):
                x = pack(s).copy()
                jets = (JetPoint.from_array(x[:2 * n], 1, n),
                        JetPoint.from_array(x[2 * n:], 1, n))
                for alone in (unpack(x, 2, n, h), PairState(*jets, h)):
                    assert alone._sweep is None
                    assert _bytes(getattr(Ld, method)(alone)) == b, (name, method)
