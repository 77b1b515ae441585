import json

import numpy as np
import pytest

from varint import (OrderReport, cubic_trajectory, estimate_order, local_error,
                    midpoint_difference, spline_exact, taylor_average)
from varint.jets import JetPoint


def jet1(q, v):
    to = lambda x: np.atleast_1d(np.asarray(x, dtype=float))
    return JetPoint(to(q), (to(v),))


class TestLocalError:
    def test_exact_scheme_zero(self, spline1):
        err = local_error(spline_exact(), spline1, jet1(0, 0), jet1(1, 0), 1.0,
                          degree=4)
        assert err <= 1e-12

    def test_taylor_unit_displacement(self, spline1):
        err = local_error(taylor_average(spline1), spline1,
                          jet1(0, 0), jet1(1, 0), 1.0, degree=4)
        assert err == pytest.approx(4.0, abs=1e-10)

    def test_straight_line(self, spline1):
        for maker in (taylor_average, midpoint_difference):
            err = local_error(maker(spline1), spline1,
                              jet1(0.0, 1.0), jet1(0.25, 1.0), 0.25, degree=4)
            assert err <= 1e-13

    def test_series_constants(self, spline1):
        # along a cubic with jerk d the errors are d^2 h^3 / 36 (endpoint
        # Taylor average) and d^2 h^3 / 24 (midpoint difference); derived by
        # expanding both closed forms on an exact cubic
        d = 1.3
        traj = cubic_trajectory(np.array([[0.2], [-0.4], [0.7], [d]]))
        for h in (0.5, 0.25):
            e_t = local_error(taylor_average(spline1), spline1,
                              traj(0.0), traj(h), h, degree=4)
            e_m = local_error(midpoint_difference(spline1), spline1,
                              traj(0.0), traj(h), h, degree=4)
            assert e_t == pytest.approx(d * d * h**3 / 36.0, rel=1e-8)
            assert e_m == pytest.approx(d * d * h**3 / 24.0, rel=1e-8)


class TestEstimateOrder:
    def test_exact_scheme_flagged(self, spline1):
        traj = cubic_trajectory(np.array([[0.1], [0.4], [0.6], [1.1]]))
        rep = estimate_order(spline_exact(), spline1, traj,
                             [0.4, 0.2, 0.1, 0.05], degree=4)
        assert rep.exact and rep.r_hat is None

    def test_taylor_order_two_stable(self, spline1):
        traj = cubic_trajectory(np.array([[0.1], [0.4], [0.6], [1.1]]))
        Ld = taylor_average(spline1)
        r1 = estimate_order(Ld, spline1, traj, [0.64, 0.32, 0.16, 0.08], degree=4)
        r2 = estimate_order(Ld, spline1, traj, [0.04, 0.02, 0.01, 0.005], degree=4)
        assert r1.r_hat == pytest.approx(2.0, abs=0.05)
        assert abs(r1.r_hat - r2.r_hat) <= 0.1

    def test_error_ratios_match_order(self, spline1):
        traj = cubic_trajectory(np.array([[0.0], [0.2], [-0.5], [0.9]]))
        for maker in (taylor_average, midpoint_difference):
            rep = estimate_order(maker(spline1), spline1, traj,
                                 [0.4, 0.2, 0.1, 0.05], degree=4)
            ratios = rep.errors[:-1] / rep.errors[1:]
            assert np.allclose(ratios, 2.0 ** (rep.r_hat + 1.0), rtol=0.05)

    def test_translation_invariance(self, spline1):
        base = np.array([[0.1], [0.4], [0.6], [1.1]])
        shifted = base.copy()
        shifted[0] += 17.0
        Ld = midpoint_difference(spline1)
        hs = [0.4, 0.2, 0.1, 0.05]
        r0 = estimate_order(Ld, spline1, cubic_trajectory(base), hs, degree=4)
        r1 = estimate_order(Ld, spline1, cubic_trajectory(shifted), hs, degree=4)
        assert abs(r0.r_hat - r1.r_hat) <= 0.05

    def test_needs_four_steps(self, spline1):
        with pytest.raises(ValueError):
            estimate_order(taylor_average(spline1), spline1,
                           cubic_trajectory(np.ones((4, 1))), [0.4, 0.2, 0.1])


class TestOrderReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            OrderReport(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 2.0, 0.0, False)
        with pytest.raises(ValueError):
            OrderReport(np.array([0.2, 0.1]), np.array([1.0, -2.0]), 2.0, 0.0, False)

    def test_json_and_csv(self, spline1):
        traj = cubic_trajectory(np.array([[0.1], [0.4], [0.6], [1.1]]))
        rep = estimate_order(taylor_average(spline1), spline1, traj,
                             [0.4, 0.2, 0.1, 0.05], degree=4)
        # the CLI writes this document as the order JSON and its (h, error)
        # pairs as the order CSV, whose bytes TestGoldenOutputs pins
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["scheme"] == "taylor"
        assert len(doc["h"]) == 4 and len(doc["errors"]) == 4
        assert doc["h"][0] == 0.4 and doc["errors"][0] == rep.errors[0]
