import numpy as np
import pytest
import sympy as sp
from hypothesis import settings

from varint import LagrangianModel, named_lagrangian, spline_lagrangian

# ``--hypothesis-profile=ci`` (as CI runs Tier-1) draws each property test's
# examples from a seed fixed by the test, so a failure in CI fails the same
# way locally, and prints the ``@reproduce_failure`` blob that replays it
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session")
def spline1():
    return spline_lagrangian(1)


@pytest.fixture(scope="session")
def spline2():
    return spline_lagrangian(2)


@pytest.fixture(scope="session")
def spline_potential():
    """L = |qddot|^2/2 + |q|^2/2 (one dimension)."""
    return named_lagrangian("spline-potential", 1)


@pytest.fixture(scope="session")
def spline_velocity():
    return named_lagrangian("spline-velocity", 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def model_from_expr(n, expr_str, poly_degree=None):
    """Helper to build small symbolic test Lagrangians from a string."""
    q = sp.symbols(f"q0:{n}", real=True)
    dq = sp.symbols(f"dq0:{n}", real=True)
    ddq = sp.symbols(f"ddq0:{n}", real=True)
    expr = sp.sympify(expr_str, locals={f"q{i}": q[i] for i in range(n)}
                      | {f"dq{i}": dq[i] for i in range(n)}
                      | {f"ddq{i}": ddq[i] for i in range(n)})
    return LagrangianModel.from_sympy(n, expr, q, dq, ddq, poly_degree=poly_degree)
