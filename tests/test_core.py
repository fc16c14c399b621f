import math

import pytest

from pelletsim import (
    ActuatorMode,
    ActuatorSpec,
    ControllerSpec,
    HybridState,
    HybridTime,
    NonPositiveParam,
    PlantParams,
    RNotAboveAlpha,
    ValidationError,
    Variant,
    validate,
)


def test_valid_reference_setup_passes(plant):
    validate(plant, ActuatorSpec(t_c=1 / 70), ControllerSpec(Variant.NM, 1.569e16))


def test_infinite_reference_rejected():
    with pytest.raises(NonPositiveParam, match="r must be finite"):
        PlantParams(tau=0.1, r=math.inf, alpha=1e19)


def test_reference_equal_to_alpha_rejected():
    with pytest.raises(RNotAboveAlpha):
        PlantParams(tau=0.1, r=1e19, alpha=1e19)


def test_reference_below_alpha_rejected():
    with pytest.raises(RNotAboveAlpha):
        PlantParams(tau=0.1, r=5e18, alpha=1e19)


@pytest.mark.parametrize("tau", [-0.1, 0.0])
def test_nonpositive_tau_rejected(tau):
    with pytest.raises(NonPositiveParam):
        PlantParams(tau=tau, r=5e19, alpha=1e19)


def test_nonpositive_tick_and_threshold_rejected():
    with pytest.raises(NonPositiveParam):
        ActuatorSpec(t_c=0.0)
    with pytest.raises(NonPositiveParam):
        ControllerSpec(Variant.NM, 0.0)
    with pytest.raises(NonPositiveParam):
        ActuatorSpec(t_c=0.01, t_prep=-0.1)


def test_gas_gun_requires_prep_time():
    with pytest.raises(NonPositiveParam):
        ActuatorSpec(t_c=0.001, mode=ActuatorMode.GAS_GUN)
    ActuatorSpec(t_c=0.001, t_prep=0.02, mode=ActuatorMode.GAS_GUN)


def test_tau_times_r_beyond_the_float_range_rejected():
    # the flow's tau*(r - x) would be inf, and with it every membrane increment
    with pytest.raises(ValidationError, match="overflows"):
        PlantParams(tau=1e308, r=5e19, alpha=1e19)
    PlantParams(tau=1e288, r=5e19, alpha=1e19)


def test_prep_time_beyond_the_float_range_of_ticks_rejected():
    # prep_ticks could not count t_prep/t_c = inf ticks
    with pytest.raises(ValidationError, match="too long"):
        ActuatorSpec(t_c=1e-300, t_prep=1e300)
    assert ActuatorSpec(t_c=1e-300, t_prep=1e7).prep_ticks() > 10**306


def test_tick_that_vanishes_against_tau_rejected():
    # t_c/tau rounds to 0, where r_max's e**y - 1 would be 0
    plant = PlantParams(tau=1e30, r=5e19, alpha=1e19)
    controller = ControllerSpec(Variant.NM, 1.569e16)
    with pytest.raises(ValidationError, match="rounds to 0"):
        validate(plant, ActuatorSpec(t_c=1e-300), controller)
    # t_c/tau = 1e-280, where r_max = 1e299; at 1e-320, above 0 too, r_max
    # overflows (test_reference_ceiling_beyond_the_float_range_rejected)
    validate(plant, ActuatorSpec(t_c=1e-250), controller)


@pytest.mark.parametrize("tau, r, alpha, t_c", [
    (0.1, 5e19, 1e19, 1e-300),     # nm_tracking's plant: alpha*tau/t_c = 1e318
    (1e30, 5e19, 1e19, 1e-290),    # t_c/tau = 1e-320: 1/(e**y - 1) overflows
    (0.1, 1.7e308, 1.2e308, 0.1),  # y = 1: r_max = 1.58*alpha, while alpha/y is a float
])
def test_reference_ceiling_beyond_the_float_range_rejected(tau, r, alpha, t_c):
    # the certificate would carry r_max = inf, which JSON cannot hold
    plant = PlantParams(tau=tau, r=r, alpha=alpha)
    with pytest.raises(ValidationError, match="r_max overflows"):
        validate(plant, ActuatorSpec(t_c=t_c), ControllerSpec(Variant.NM, 1.569e16))


def test_reference_ceiling_just_inside_the_float_range_passes():
    # y = 1: r_max = 1.58*alpha = 1.74e308
    plant = PlantParams(tau=0.1, r=1.7e308, alpha=1.1e308)
    validate(plant, ActuatorSpec(t_c=0.1), ControllerSpec(Variant.NM, 1.569e16))


def test_alpha_from_pellet_mass_and_volume():
    plant = PlantParams.from_pellet(tau=0.1, r=5e19, m_p=1.3e20, volume=13.0)
    assert plant.alpha == pytest.approx(1e19, rel=1e-15)


def test_gamma_in_unit_interval(plant):
    assert 0.0 < plant.gamma < 1.0
    assert plant.gamma == pytest.approx(0.8, rel=1e-15)


def test_tau_d_positive(plant):
    assert plant.tau_d == pytest.approx(0.022314355131420976, rel=1e-12)


def test_hybrid_state_rejects_negative_membrane():
    with pytest.raises(ValidationError):
        HybridState(x=0.0, xi=-1.0)


def test_hybrid_time_lexicographic_order():
    assert HybridTime(0.1, 2) < HybridTime(0.2, 2)
    assert HybridTime(0.1, 1) < HybridTime(0.1, 2)
    with pytest.raises(ValidationError):
        HybridTime(-0.1, 0)


def test_prep_ticks_rounding():
    assert ActuatorSpec(t_c=0.007, t_prep=0.0175).prep_ticks() == 3
    assert ActuatorSpec(t_c=0.007, t_prep=0.014).prep_ticks() == 2
    assert ActuatorSpec(t_c=0.007, t_prep=0.0).prep_ticks() == 1
    assert ActuatorSpec(t_c=0.007, t_prep=0.004).prep_ticks() == 1
