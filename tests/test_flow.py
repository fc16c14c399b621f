"""Closed-form flow against independent oracles.

Expected values marked as frozen were computed beforehand with mpmath
(40 digits) for the closed forms, scipy.optimize.brentq for crossing
times, and mpmath quadrature for the membrane integrals.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from pelletsim import (
    PlantParams,
    flow_x,
    flow_xi,
    sat_crossing_time,
    zero_crossing_time,
)
from pelletsim.oracle import integrate_flow_rk4


def rel(a, b, alpha=1e19):
    return abs(a - b) / max(abs(a), abs(b), alpha)


class TestFlowX:
    def test_equilibrium_is_fixed_point(self, plant):
        assert flow_x(5e19, 0.5, plant) == 5e19

    def test_one_time_constant_from_zero(self, plant):
        # frozen: 5e19*(1 - e^-1)
        assert flow_x(0.0, 0.1, plant) == pytest.approx(3.1606027941427884e19, rel=1e-14)

    def test_inverse_of_zero_crossing(self, plant):
        # flowing for exactly the zero-crossing time lands on zero
        t0 = zero_crossing_time(-1e19, plant)
        assert abs(flow_x(-1e19, t0, plant)) <= 1e-9 * plant.r

    def test_capped_at_reference_once_expm1_rounds_to_minus_one(self):
        # dt = 42.7 tau: expm1 rounds to -1, and x0 + (r - x0) lands one ulp
        # above r unless the result is capped
        plant = PlantParams(tau=0.01171875, r=1.1000000000000001e18, alpha=1e18)
        assert flow_x(4.447382346072437e17, 0.5, plant) == plant.r


class TestCrossingTimes:
    def test_zero_crossing_closed_form(self, plant):
        # frozen: 0.1*ln(1.2), brentq agrees to 1e-15
        assert zero_crossing_time(-1e19, plant) == pytest.approx(
            0.018232155679395463, rel=1e-14
        )

    def test_zero_crossing_matches_bisection(self, plant):
        for x0 in (-3e19, -1e19, -1e15):
            t_closed = zero_crossing_time(x0, plant)
            t_bisect = brentq(lambda t: flow_x(x0, t, plant), 0.0, 10 * plant.tau, xtol=1e-18)
            assert t_closed == pytest.approx(t_bisect, abs=1e-12)

    def test_zero_crossing_boundaries(self, plant):
        assert zero_crossing_time(0.0, plant) == 0.0
        assert zero_crossing_time(2e19, plant) is None

    def test_sat_crossing_closed_form(self, plant):
        # frozen: 0.1*ln(1.25)
        assert sat_crossing_time(0.0, 1e19, plant) == pytest.approx(
            0.022314355131420976, rel=1e-14
        )

    def test_sat_crossing_matches_bisection(self, plant):
        for x0, x_sat in ((0.0, 1e19), (-2e19, 3e18), (1e18, 4.9e19)):
            t_closed = sat_crossing_time(x0, x_sat, plant)
            t_bisect = brentq(
                lambda t: flow_x(x0, t, plant) - x_sat, 0.0, 20 * plant.tau, xtol=1e-18
            )
            assert t_closed == pytest.approx(t_bisect, abs=1e-12)

    def test_sat_crossing_boundaries(self, plant):
        assert sat_crossing_time(2e19, 1e19, plant) == 0.0
        assert sat_crossing_time(0.0, 6e19, plant) is None  # beyond the flow limit


class TestFlowXi:
    def test_constant_error_at_reference(self, plant):
        # x pinned at r: integral degenerates to r*dt (frozen 5e19/70)
        assert flow_xi(5e19, 0.0, 1 / 70, plant) == pytest.approx(7.142857142857143e17, rel=1e-14)

    def test_quadrature_oracle_positive_segment(self, plant):
        # frozen mpmath quadrature of the flow from x0=1e19 over one tick
        assert flow_xi(1e19, 0.0, 1 / 70, plant) == pytest.approx(1.817973132864408e17, rel=1e-12)

    def test_negative_error_contributes_nothing(self, plant):
        # dt shorter than the zero crossing at 0.0182s
        assert flow_xi(-1e19, 3e15, 0.01, plant) == 3e15

    def test_quadrature_oracle_with_zero_crossing(self, plant):
        # frozen: integral over (t_zero, 0.05] from x0=-1e19
        assert flow_xi(-1e19, 0.0, 0.05, plant) == pytest.approx(2.2757617430602741e17, rel=1e-12)

    def test_quadrature_oracle_clipped(self, plant):
        # frozen: unsaturated rise to 1e19 then clipped until 0.05s
        got = flow_xi(0.0, 0.0, 0.05, plant, x_sat=1e19)
        assert got == pytest.approx(3.9257420525683902e17, rel=1e-12)

    def test_saturated_tick_gains_exactly_one_threshold(self, plant):
        delta, t_c = 2.755e16, 1 / 140
        x_sat = delta / t_c
        for x0 in (x_sat, 5e18, 2e19, 5e19):
            gain = flow_xi(x0, 1e15, t_c, plant, x_sat=x_sat) - 1e15
            # up to one round-off each in delta/t_c and the product
            assert gain == pytest.approx(delta, rel=1e-15)

    def test_zero_duration_is_identity(self, plant):
        assert flow_xi(1e19, 5e16, 0.0, plant) == 5e16


class TestAgainstRK4:
    def test_thousand_random_inputs_within_1e6(self, plant):
        rng = np.random.default_rng(42)
        t_c = 1 / 70
        n_bad = 0
        for i in range(1000):
            x0 = plant.r - rng.uniform(0.0, 2.0) * plant.r
            xi0 = rng.uniform(0.0, 1e18)
            clipped = i % 2 == 1
            x_sat = rng.uniform(1e17, 6e19) if clipped else None
            x_ref, xi_ref = integrate_flow_rk4(x0, xi0, t_c, plant, x_sat, 1000)
            x_got = flow_x(x0, t_c, plant)
            xi_got = flow_xi(x0, xi0, t_c, plant, x_sat)
            if rel(x_got, x_ref, plant.alpha) > 1e-6 or rel(xi_got, xi_ref, plant.alpha) > 1e-6:
                n_bad += 1
        assert n_bad == 0
