"""Tuning bounds: golden values, algebraic edge cases, monotonicity.

Frozen values were computed with mpmath at 40 digits.
"""

import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from pelletsim import (
    ActuatorSpec,
    ControllerSpec,
    PlantParams,
    Variant,
    certify,
    delta_max,
    envelope,
    r_max,
    tc_max,
    ub_ic_slow,
)


class TestTcMax:
    def test_reset_family_value(self, plant):
        assert tc_max(plant, Variant.NM) == pytest.approx(0.0223143551, rel=1e-6)
        assert tc_max(plant, Variant.SDM_JM) == tc_max(plant, Variant.NM)

    def test_clipped_variant_needs_double_speed(self, plant):
        assert tc_max(plant, Variant.SDM_IC) == pytest.approx(0.011157177565710488, rel=1e-12)

    def test_reference_twice_alpha(self):
        plant = PlantParams(tau=0.1, r=2e19, alpha=1e19)
        assert tc_max(plant, Variant.NM) == pytest.approx(0.1 * math.log(2.0), rel=1e-14)

    def test_prep_ticks_divide_the_budget(self, plant):
        assert tc_max(plant, Variant.NM, l=3) == pytest.approx(0.0074381183771403252, rel=1e-12)


class TestDeltaMax:
    def test_reset_family_value(self, plant):
        assert delta_max(plant, 1 / 70, Variant.NM) == pytest.approx(1.5692e16, rel=1e-3)
        assert delta_max(plant, 1 / 70, Variant.NM) == pytest.approx(
            1.5692021865765507e16, rel=1e-12
        )

    def test_clipped_variant_value(self, plant):
        assert delta_max(plant, 1 / 140, Variant.SDM_IC) == pytest.approx(2.7553e16, rel=1e-3)

    def test_vanishes_at_the_tick_limit(self, plant):
        # substituting e^(t_c/tau) = r/(r-alpha) cancels every term
        dm = delta_max(plant, tc_max(plant, Variant.NM), Variant.NM)
        assert abs(dm) <= 1e-10 * plant.r * plant.tau

    def test_clipped_range_empties_beyond_the_tick_limit(self, plant):
        # the reset-family expression touches 0 at its tick limit but turns
        # positive again beyond it, so feasibility gates on t_c as well; the
        # clipped variant's range genuinely empties
        assert delta_max(plant, 0.012, Variant.SDM_IC) < 0.0
        assert delta_max(plant, 0.03, Variant.NM) >= 0.0

    def test_strictly_decreasing_up_to_the_limit(self, plant):
        grid = np.linspace(1e-4, tc_max(plant, Variant.NM), 200)
        values = [delta_max(plant, t, Variant.NM) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_empty_far_past_the_tick_limit(self, plant):
        # y = l*t_c/tau = 1000, where e**y is past the float range: the
        # preparation gate of 100 s at t_c = 0.007 (l = 14286), and a 100 s tick
        assert delta_max(plant, 0.007, Variant.NM, l=14286) == 0.0
        for variant in (Variant.NM, Variant.SDM_IC):
            for t_c in (100.0, 1e300):
                assert delta_max(plant, t_c, variant) == 0.0

    def test_prep_example(self, plant):
        # frozen: l=3 at t_c=0.007 leaves a thin but nonempty threshold range
        assert delta_max(plant, 0.007, Variant.NM, l=3) == pytest.approx(
            4.2999639802178336e14, rel=1e-10
        )


class TestRMax:
    def test_reference_ceiling(self, plant):
        assert r_max(plant, 1 / 70) == pytest.approx(7.5119007146325756e19, rel=1e-12)

    def test_slow_actuator_limit_approaches_alpha(self, plant):
        assert r_max(plant, 10 * plant.tau) == pytest.approx(plant.alpha, rel=1e-3)

    def test_monotone_in_prep_ticks(self, plant):
        assert r_max(plant, 1 / 70, l=2) < r_max(plant, 1 / 70, l=1)

    def test_fast_actuator_keeps_every_digit(self, plant):
        # alpha*e**y/(e**y - 1) = alpha*(1/y + 1/2 + y/12 - ...); e**y - 1
        # rounded from e**y keeps only about 4 digits at y = 1e-12
        t_c = 1e-12 * plant.tau
        y = t_c / plant.tau
        assert r_max(plant, t_c) == pytest.approx(plant.alpha * (1.0 / y + 0.5), rel=1e-12)

    def test_alpha_far_past_the_tick_limit(self, plant):
        # past y = 37, alpha*e**y/(e**y - 1) rounds to alpha, though
        # exp(y)/expm1(y) reads 1 + 2**-52 at y = 37.01 and 1 - 2**-53 at
        # y = 38.417; at y = 1000 e**y is past the float range
        for t_c in (3.701, 3.8417, 100.0, 1e300):  # y = 37.01, 38.417, 1000, 1e301
            assert r_max(plant, t_c) == plant.alpha
        assert r_max(plant, 0.007, l=14286) == plant.alpha

    def test_finite_where_e_to_the_y_rounds_to_1(self, plant):
        # y = t_c/tau = 1e-16: e**y rounds to 1.0, so e**y - 1 would be 0
        assert math.isfinite(r_max(plant, 1e-17))


class TestEnvelope:
    def test_initial_upper_bound(self, plant):
        lower, upper = envelope(0.0, 5e19, plant)
        assert lower == -plant.alpha
        assert upper == pytest.approx(7.25e19, rel=1e-12)

    def test_converges_to_ultimate_interval(self, plant):
        lower, upper = envelope(1e6, 5e19, plant)
        assert lower == -plant.alpha
        assert upper == pytest.approx(plant.alpha, rel=1e-12)

    def test_negative_start_lower_branch(self, plant):
        lower, upper = envelope(0.0, -2e19, plant)
        assert lower == -2e19
        assert upper == plant.alpha

    def test_negative_start_array_matches_scalar(self, plant):
        # the lower bound climbs through zero near t = 0.1; an array of times
        # gives the scalar values bit for bit
        ts = np.concatenate((np.linspace(0.0, 0.3, 301), [1e-300, 0.1, 10.0]))
        lower, upper = envelope(ts, -1.5e19, plant)
        assert lower.tolist() == [envelope(float(t), -1.5e19, plant)[0] for t in ts]
        assert upper == plant.alpha

    def test_climb_from_far_below_the_reference_keeps_its_own_precision(self, plant):
        # x0 - (r - x0)*expm1 would cancel to a few ulps of x0 = -1e28, 1.3e-7
        # of the climb near -alpha at t = 1.8; the bound keeps 1e-14 of it
        ts = np.linspace(0.0, 1.8, 181)
        lower, _ = envelope(ts, -1e28, plant)
        assert lower.tolist() == [envelope(float(t), -1e28, plant)[0] for t in ts]
        r, tau = Decimal(plant.r), Decimal(plant.tau)
        with localcontext(Context(prec=40)):
            exact = [r + (Decimal(-1e28) - r) * (-Decimal(t) / tau).exp() for t in ts]
        assert exact[-1] < -plant.alpha
        assert all(abs(Decimal(lo) / ex - 1) <= Decimal(1e-14) for lo, ex in zip(lower, exact))

    def test_upper_strictly_decreasing_for_positive_start(self, plant):
        ts = np.linspace(0.0, 1.0, 300)
        uppers = [envelope(t, 5e19, plant)[1] for t in ts]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        assert all(u > plant.alpha for u in uppers)


def test_ub_ic_slow_values(plant, plant_high_ref):
    assert ub_ic_slow(plant_high_ref) == pytest.approx(1.8571e19, rel=1e-3)
    assert ub_ic_slow(plant) == pytest.approx(1.8e19, rel=1e-12)
    # degenerate limit alpha -> r collapses onto the basic bound alpha
    near = PlantParams(tau=0.1, r=1e19 * (1 + 1e-9), alpha=1e19)
    assert ub_ic_slow(near) == pytest.approx(near.alpha, rel=1e-8)


class TestCertify:
    def test_reference_config_feasible(self, plant):
        cert = certify(plant, ActuatorSpec(t_c=1 / 70), ControllerSpec(Variant.NM, 1.569e16))
        assert cert.feasible
        assert cert.bound_interval == (-plant.alpha, plant.alpha)
        assert cert.bound_scope == "trajectory"
        assert 0.0 < cert.gamma < 1.0

    def test_slow_tick_infeasible(self, plant):
        cert = certify(plant, ActuatorSpec(t_c=0.03), ControllerSpec(Variant.NM, 1e15))
        assert not cert.feasible
        assert cert.bound_interval is None

    def test_threshold_above_range_infeasible(self, plant):
        cert = certify(plant, ActuatorSpec(t_c=1 / 70), ControllerSpec(Variant.NM, 2e16))
        assert not cert.feasible

    def test_reset_family_certificates_identical(self, plant):
        act, delta = ActuatorSpec(t_c=1 / 70), 1.569e16
        a = certify(plant, act, ControllerSpec(Variant.NM, delta))
        b = certify(plant, act, ControllerSpec(Variant.SDM_JM, delta))
        assert (a.tc_max, a.delta_max, a.tau_d, a.gamma, a.r_max, a.feasible) == (
            b.tc_max, b.delta_max, b.tau_d, b.gamma, b.r_max, b.feasible
        )

    def test_plain_sdm_never_certified(self, plant):
        cert = certify(plant, ActuatorSpec(t_c=0.001), ControllerSpec(Variant.SDM, 1.0))
        assert not cert.feasible
        assert "wind-up" in cert.reason

    def test_clipped_variant_open_interval_endpoint_rejected(self, plant):
        at_limit = tc_max(plant, Variant.SDM_IC)
        cert = certify(plant, ActuatorSpec(t_c=at_limit), ControllerSpec(Variant.SDM_IC, 1e10))
        assert not cert.feasible or cert.bound_scope == "steady_state"
        just_under = at_limit * (1.0 - 1e-9)
        dm = delta_max(plant, just_under, Variant.SDM_IC)
        cert2 = certify(plant, ActuatorSpec(t_c=just_under), ControllerSpec(Variant.SDM_IC, dm))
        assert cert2.feasible and cert2.bound_scope == "trajectory"

    def test_clipped_variant_widened_bound(self, plant_high_ref):
        cert = certify(
            plant_high_ref, ActuatorSpec(t_c=1 / 70), ControllerSpec(Variant.SDM_IC, 1.0)
        )
        assert cert.feasible
        assert cert.bound_scope == "steady_state"
        assert cert.bound_interval[1] == pytest.approx(ub_ic_slow(plant_high_ref), rel=1e-12)

    def test_prep_gate_example_feasible(self, plant):
        cert = certify(
            plant, ActuatorSpec(t_c=0.007, t_prep=0.0175), ControllerSpec(Variant.NM, 4e14)
        )
        assert cert.l == 3
        assert cert.feasible
        assert cert.tc_max == pytest.approx(0.0074381183771403252, rel=1e-12)

    def test_prep_time_beyond_dwell_bound_infeasible(self, plant):
        cert = certify(
            plant, ActuatorSpec(t_c=0.001, t_prep=0.05), ControllerSpec(Variant.NM, 1e12)
        )
        assert not cert.feasible

    def test_clipped_variant_with_multi_tick_prep_flagged(self, plant):
        cert = certify(
            plant, ActuatorSpec(t_c=0.005, t_prep=0.02), ControllerSpec(Variant.SDM_IC, 1e14)
        )
        assert not cert.feasible
        assert cert.nonstandard

    def test_plain_sdm_with_multi_tick_prep_flagged(self, plant):
        cert = certify(
            plant, ActuatorSpec(t_c=0.005, t_prep=0.02), ControllerSpec(Variant.SDM, 1e14)
        )
        assert not cert.feasible
        assert cert.nonstandard

    def test_gas_gun_configuration(self, plant):
        cert = certify(
            plant,
            ActuatorSpec(t_c=0.001, t_prep=0.02, mode="gas_gun"),
            ControllerSpec(Variant.NM, 4e14),
        )
        assert cert.l == 20
        assert cert.feasible
