import numpy as np
import pytest

from varint.errors import NoConvergence, SingularWd
from varint.newton import newton


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
            newton(residual, jacobian, z0, tight, loose, max_iter, error, "toy")
        if error is NoConvergence:
            assert info.value.iterations == iterations
            assert info.value.residual_norm == pytest.approx(residual_norm)
        else:
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        return
    z, r = newton(residual, jacobian, z0, tight, loose, max_iter, SingularWd, "toy")
    assert np.allclose(z, expected, rtol=0.0, atol=max(loose, 1e-8))
    assert np.array_equal(r, residual(z))
    assert np.max(np.abs(r)) <= loose
    assert z is not z0
