"""Empirical order analysis of discrete Lagrangians.

A scheme of order r differs from the exact one-step action by O(h^(r+1))
along exact trajectories, so the reported order is the fitted log-log slope
of the error minus one.  Boundary data are regenerated per h from one fixed
exact trajectory, sampled at t = 0 and t = h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bvp import exact_Ld
from .discretization import DiscreteLagrangian
from .jets import JetPoint, PairState
from .lagrangian import LagrangianModel

#: Errors below this are treated as exact reproduction of the one-step action.
EXACT_FLOOR = 1e-13


@dataclass(frozen=True, eq=False)
class OrderReport:
    """Measured errors over a step sweep and the fitted order."""

    h_values: np.ndarray
    errors: np.ndarray
    r_hat: float | None
    fit_residual: float | None
    exact: bool
    scheme: str = ""

    def __post_init__(self):
        h = np.asarray(self.h_values, dtype=float)
        e = np.asarray(self.errors, dtype=float)
        if h.size != e.size:
            raise ValueError("h_values and errors must have equal length")
        if not np.all(np.diff(h) < 0):
            raise ValueError("h_values must be strictly decreasing")
        if not self.exact and not np.all(e > 0):
            raise ValueError("errors must be positive unless the scheme is exact")
        object.__setattr__(self, "h_values", h)
        object.__setattr__(self, "errors", e)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "h": list(self.h_values),
            "errors": list(self.errors),
            "r_hat": self.r_hat,
            "fit_residual": self.fit_residual,
            "exact": self.exact,
        }


def local_error(Ld: DiscreteLagrangian, L: LagrangianModel, q1jet: JetPoint,
                q2jet: JetPoint, h: float, **solver_opts) -> float:
    """|scheme value - exact one-step action| at the given endpoint data;
    ``solver_opts`` go to :func:`exact_Ld`."""
    approx = Ld.value(PairState(q1jet, q2jet, h))
    exact = exact_Ld(L, q1jet, q2jet, h, **solver_opts)
    return abs(approx - exact)


def estimate_order(Ld: DiscreteLagrangian, L: LagrangianModel, boundary,
                   h_list, **solver_opts) -> OrderReport:
    """Fit the error exponent over a geometric step sweep.

    ``boundary(t)`` samples an exact trajectory as an order-1 jet; the pair
    (boundary(0), boundary(h)) feeds each evaluation.  Needs at least four
    decreasing h values.  When every error sits below the exactness floor the
    scheme is reported as exact instead of fitted.  The report carries the
    scheme's ``name``.
    """
    h_arr = np.asarray(sorted(h_list, reverse=True), dtype=float)
    if h_arr.size < 4:
        raise ValueError("need at least 4 step sizes")
    errs = np.array([local_error(Ld, L, boundary(0.0), boundary(h), h,
                                 **solver_opts) for h in h_arr])
    if np.all(errs < EXACT_FLOOR):
        return OrderReport(h_arr, errs, None, None, True, Ld.name)
    slope, intercept = np.polyfit(np.log(h_arr), np.log(errs), 1)
    fit = slope * np.log(h_arr) + intercept
    residual = float(np.max(np.abs(fit - np.log(errs))))
    return OrderReport(h_arr, errs, float(slope - 1.0), residual, False, Ld.name)


def cubic_trajectory(coeffs) -> "callable":
    """Boundary family along a componentwise cubic q = a + b t + c t^2/2 + d t^3/6.

    ``coeffs`` has shape (4, n); these curves solve the spline system exactly,
    with jerk equal to the last coefficient row.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[0] != 4:
        raise ValueError("coeffs must have four rows (value..jerk)")

    def boundary(t: float) -> JetPoint:
        q = c[0] + c[1] * t + c[2] * t**2 / 2.0 + c[3] * t**3 / 6.0
        v = c[1] + c[2] * t + c[3] * t**2 / 2.0
        return JetPoint(q, (v,))

    return boundary
