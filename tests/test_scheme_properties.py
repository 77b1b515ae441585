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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varint import (JetPoint, LagrangianModel, PairState, SingularWd, Wd_matrix,
                    del_residual, fminus, fplus, hamiltonian_step, make_scheme,
                    named_lagrangian, phi_values, run, step, symplectic_defect,
                    uniform_grid)
from varint.discretization import SCHEMES


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
    # raises wherever that block is not zero already
    x0, x1, h = data.draw(seeds(L.n))
    Ld = make_scheme("trapezoid-velocity", L)
    assert not np.any(Wd_matrix(Ld, PairState(x0, x1, h))[:L.n])
    assume(np.max(np.abs(del_residual(Ld, x0, x1, x1, h)[:L.n])) > 1e-6)
    with pytest.raises(SingularWd):
        step(Ld, x0, x1, h)
