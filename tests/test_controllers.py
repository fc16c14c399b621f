import pytest

from pelletsim import (
    ActuatorSpec,
    ControllerSpec,
    HybridState,
    TickNotDue,
    Variant,
    tick_jump,
)

T_C = 1 / 70
DELTA = 1.569e16


def at_tick(x, xi, t_prep_timer=1.0):
    return HybridState(x=x, xi=xi, t_timer=T_C, t_prep_timer=t_prep_timer)


def jump(state, variant, delta=DELTA, t_prep=0.0, plant=None):
    actuator = ActuatorSpec(t_c=T_C, t_prep=t_prep)
    return tick_jump(state, plant, ControllerSpec(variant, delta), actuator)


def test_nm_fire_resets_membrane(plant):
    out = jump(at_tick(2e19, 1.6e16), Variant.NM, plant=plant)
    assert out.fired
    assert out.state_after.x == pytest.approx(1e19, rel=1e-12)
    assert out.state_after.xi == 0.0
    assert out.state_after.t_timer == 0.0
    assert out.state_after.t_prep_timer == 0.0


@pytest.mark.parametrize("variant", list(Variant))
def test_below_threshold_only_resets_timer(plant, variant):
    before = at_tick(2e19, 0.5 * DELTA, t_prep_timer=0.3)
    out = jump(before, variant, plant=plant)
    assert not out.fired
    assert out.state_after.x == before.x
    assert out.state_after.xi == before.xi
    assert out.state_after.t_timer == 0.0
    assert out.state_after.t_prep_timer == 0.3  # keeps running


def test_jm_subtracts_whole_multiples(plant):
    out = jump(at_tick(2e19, 3.5 * DELTA), Variant.SDM_JM, plant=plant)
    assert out.fired
    assert out.k_multiples == 3
    assert out.state_after.xi == pytest.approx(0.5 * DELTA, rel=1e-12)
    assert 0.0 <= out.state_after.xi < DELTA


def test_sdm_keeps_residue(plant):
    out = jump(at_tick(2e19, 3.5 * DELTA), Variant.SDM, plant=plant)
    assert out.fired
    assert out.k_multiples == 0
    assert out.state_after.xi == pytest.approx(2.5 * DELTA, rel=1e-12)


def test_tie_break_at_threshold_fires(plant):
    for variant in Variant:
        out = jump(at_tick(2e19, DELTA), variant, plant=plant)
        assert out.fired, variant


def test_prep_gate_blocks_while_preparing(plant):
    t_prep = 0.1
    before = at_tick(2e19, 2 * DELTA, t_prep_timer=0.5 * t_prep)
    out = jump(before, Variant.NM, t_prep=t_prep, plant=plant)
    assert not out.fired
    assert out.state_after.xi == before.xi


def test_prep_gate_opens_at_equality(plant):
    t_prep = 0.1
    out = jump(at_tick(2e19, 2 * DELTA, t_prep_timer=t_prep), Variant.NM, t_prep=t_prep, plant=plant)
    assert out.fired


def test_disabled_gate_equals_gate_free(plant):
    with_gate = jump(at_tick(2e19, 2 * DELTA, t_prep_timer=0.0), Variant.NM, t_prep=0.0, plant=plant)
    assert with_gate.fired  # t_prep=0 never blocks, even with a fresh timer


def test_away_from_tick_raises(plant):
    state = HybridState(x=0.0, xi=2 * DELTA, t_timer=0.5 * T_C)
    with pytest.raises(TickNotDue):
        jump(state, Variant.NM, plant=plant)


def test_error_moves_by_exactly_one_pellet(plant):
    before = at_tick(3e18, 2 * DELTA)
    out = jump(before, Variant.SDM_JM, plant=plant)
    assert before.x - out.state_after.x == pytest.approx(plant.alpha, rel=1e-12)


def test_pure_function(plant):
    before = at_tick(2e19, 3.5 * DELTA)
    a = jump(before, Variant.SDM_JM, plant=plant)
    b = jump(before, Variant.SDM_JM, plant=plant)
    assert a == b


def test_prep_gate_counts_whole_ticks(plant):
    # seven ticks of 3 ms sum to 0.020999999999999998 < 0.021 in floating
    # point; the gate counts ticks, so it opens after exactly l = 7 of them
    summed = 0.0
    for _ in range(7):
        summed += 0.003
    assert summed < 0.021
    actuator = ActuatorSpec(t_c=0.003, t_prep=0.021)
    controller = ControllerSpec(Variant.NM, DELTA)
    assert actuator.prep_ticks() == 7

    def fires(t_prep_timer):
        state = HybridState(x=2e19, xi=2 * DELTA, t_timer=0.003, t_prep_timer=t_prep_timer)
        return tick_jump(state, plant, controller, actuator).fired

    assert fires(summed)
    assert not fires(6 * 0.003)
