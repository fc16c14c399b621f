import math

import pytest

from pelletsim import (
    ActuatorSpec,
    ControllerSpec,
    HybridState,
    Variant,
    tick_jump,
)

T_C = 1 / 70
DELTA = 1.569e16


def jump(state, variant, delta=DELTA, t_prep=0.0, plant=None, since_fire=70):
    actuator = ActuatorSpec(t_c=T_C, t_prep=t_prep)
    return tick_jump(state, since_fire, plant, ControllerSpec(variant, delta), actuator)


def test_nm_fire_resets_membrane(plant):
    out = jump(HybridState(2e19, 1.6e16), Variant.NM, plant=plant)
    assert out.fired
    assert out.state_after.x == pytest.approx(1e19, rel=1e-12)
    assert out.state_after.xi == 0.0


@pytest.mark.parametrize("variant", list(Variant))
def test_below_threshold_only_resets_timer(plant, variant):
    # the tick clock T is the only part of the model's state the jump
    # changes; it is derived from t and j, so (x, xi) carry over as they are
    before = HybridState(2e19, 0.5 * DELTA)
    out = jump(before, variant, plant=plant, since_fire=21)
    assert not out.fired
    assert out.state_after.x == before.x
    assert out.state_after.xi == before.xi


def test_jm_subtracts_whole_multiples(plant):
    out = jump(HybridState(2e19, 3.5 * DELTA), Variant.SDM_JM, plant=plant)
    assert out.fired
    assert out.state_after.xi == math.fmod(3.5 * DELTA, DELTA)
    assert out.state_after.xi == pytest.approx(0.5 * DELTA, rel=1e-12)
    assert 0.0 <= out.state_after.xi < DELTA


def test_sdm_keeps_residue(plant):
    out = jump(HybridState(2e19, 3.5 * DELTA), Variant.SDM, plant=plant)
    assert out.fired
    assert out.state_after.xi == pytest.approx(2.5 * DELTA, rel=1e-12)


def test_tie_break_at_threshold_fires(plant):
    for variant in Variant:
        out = jump(HybridState(2e19, DELTA), variant, plant=plant)
        assert out.fired, variant


def test_prep_gate_blocks_while_preparing(plant):
    t_prep = 0.1  # l = 7 ticks
    before = HybridState(2e19, 2 * DELTA)
    out = jump(before, Variant.NM, t_prep=t_prep, plant=plant, since_fire=4)
    assert not out.fired
    assert out.state_after.xi == before.xi


def test_prep_gate_opens_at_equality(plant):
    t_prep = 0.1  # l = 7 ticks
    out = jump(HybridState(2e19, 2 * DELTA), Variant.NM, t_prep=t_prep, plant=plant, since_fire=7)
    assert out.fired


def test_disabled_gate_equals_gate_free(plant):
    with_gate = jump(HybridState(2e19, 2 * DELTA), Variant.NM, t_prep=0.0, plant=plant,
                     since_fire=1)
    assert with_gate.fired  # t_prep=0 never blocks, even one tick after a pellet


def test_error_moves_by_exactly_one_pellet(plant):
    before = HybridState(3e18, 2 * DELTA)
    out = jump(before, Variant.SDM_JM, plant=plant)
    assert before.x - out.state_after.x == pytest.approx(plant.alpha, rel=1e-12)


def test_pure_function(plant):
    before = HybridState(2e19, 3.5 * DELTA)
    a = jump(before, Variant.SDM_JM, plant=plant)
    b = jump(before, Variant.SDM_JM, plant=plant)
    assert a == b


def test_prep_gate_counts_whole_ticks(plant):
    # seven ticks of 3 ms sum to 0.020999999999999998 < 0.021 in floating
    # point; the gate counts whole ticks, so it opens after exactly l = 7
    summed = 0.0
    for _ in range(7):
        summed += 0.003
    assert summed < 0.021
    actuator = ActuatorSpec(t_c=0.003, t_prep=0.021)
    controller = ControllerSpec(Variant.NM, DELTA)
    assert actuator.prep_ticks() == 7

    def fires(since_fire):
        return tick_jump(HybridState(2e19, 2 * DELTA), since_fire, plant, controller,
                         actuator).fired

    assert fires(7)
    assert not fires(6)
