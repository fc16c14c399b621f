import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pelletsim import (
    EmptyTrajectory,
    certify,
    report,
    Scenario,
    Trajectory,
    ValidationError,
    Variant,
    flow_x,
    simulate,
    steady_state_window,
)
from conftest import make_scenario


def test_first_pellet_fires_at_first_tick(nm_small_threshold):
    # from an empty plasma the membrane reaches any small threshold within
    # one tick: xi(t_c) = r*t_c >> 1
    traj = simulate(nm_small_threshold)
    first = traj.jump_rows()[0]
    assert traj.fired[first]
    assert traj.t[first] == pytest.approx(1 / 70, rel=1e-12)


def test_unreachable_threshold_gives_open_loop(plant):
    sc = make_scenario(plant, Variant.NM, 1e40, 1 / 70, x0=2e19, t_end=0.5)
    traj = simulate(sc)
    assert not traj.fired.any()
    for t, x in zip(traj.t.tolist(), traj.x.tolist()):
        assert x == pytest.approx(flow_x(2e19, t, plant), rel=1e-12)


def test_windup_variant_undershoots(sdm_windup):
    traj = simulate(sdm_windup)
    assert float(traj.x.min()) < -traj.plant.alpha


def test_jumps_only_at_tick_multiples(nm_tracking):
    traj = simulate(nm_tracking)
    t_c = nm_tracking.actuator.t_c
    for t in traj.t[traj.jump_rows()].tolist():
        k = round(t / t_c)
        assert k >= 1
        assert abs(t - k * t_c) <= 1e-12 * t_c


def test_state_invariants_hold_on_every_sample(nm_tracking):
    traj = simulate(nm_tracking)
    r = traj.plant.r
    assert np.all(traj.xi >= 0.0)
    assert np.all(traj.x <= r)
    assert np.all(r - traj.x >= 0.0)  # n_e nonnegative


def test_zeno_bound(jm_tracking):
    traj = simulate(jm_tracking)
    t_c = jm_tracking.actuator.t_c
    for t, j in zip(traj.t.tolist(), traj.j.tolist()):
        assert j <= math.floor(t / t_c + 1e-9) + 1


def test_hybrid_times_lexicographically_nondecreasing(nm_prep_gate):
    traj = simulate(nm_prep_gate)
    times = list(zip(traj.t.tolist(), traj.j.tolist()))
    for a, b in zip(times, times[1:]):
        assert a <= b
        assert b[1] - a[1] in (0, 1)


def test_fired_sample_drops_error_by_alpha(nm_tracking):
    traj = simulate(nm_tracking)
    after = np.flatnonzero(traj.fired[1:]) + 1
    assert len(after) > 0
    for before_x, after_x in zip(traj.x[after - 1].tolist(), traj.x[after].tolist()):
        assert before_x - after_x == pytest.approx(traj.plant.alpha, rel=1e-12)


def test_bitwise_reproducible(nm_tracking):
    a, b = simulate(nm_tracking), simulate(nm_tracking)
    assert len(a) == len(b)
    for name in ("t", "j", "x", "xi", "fired"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_sampling_density_does_not_change_decisions(plant):
    coarse = make_scenario(plant, Variant.SDM_JM, 1.569e16, 1 / 70, 5e19, samples_per_tick=1)
    fine = make_scenario(plant, Variant.SDM_JM, 1.569e16, 1 / 70, 5e19, samples_per_tick=25)
    a, b = simulate(coarse), simulate(fine)
    ra, rb = a.jump_rows(), b.jump_rows()
    assert len(ra) == len(rb)
    assert np.array_equal(a.fired[ra], b.fired[rb])
    # the pre-jump states, and the timers at them, agree exactly
    (ta, tpa), (tb, tpb) = a.timers(), b.timers()
    for col_a, col_b in ((a.x, b.x), (a.xi, b.xi), (ta, tb), (tpa, tpb)):
        assert np.array_equal(col_a[ra - 1], col_b[rb - 1])


def test_peak_memory_at_one_sample_a_tick_is_the_columns(nm_tracking):
    # every row is then a boundary state of the tick loop, which writes them
    # straight into the columns; these keep 33 B a sample
    t_c = nm_tracking.actuator.t_c
    scenario = replace(nm_tracking, samples_per_tick=1, t_end=t_c * 100_000)
    tracemalloc.start()
    try:
        traj = simulate(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 200_001
    assert peak / len(traj) <= 60


def test_time_invariance_from_post_fire_state(nm_tracking):
    """Restarting from any post-fire state reproduces the shifted tail bitwise."""
    traj = simulate(nm_tracking)
    anchor = np.flatnonzero(traj.fired)[5]
    tail = Scenario(
        plant=nm_tracking.plant,
        actuator=nm_tracking.actuator,
        controller=nm_tracking.controller,
        x0=float(traj.x[anchor]),
        xi0=float(traj.xi[anchor]),
        t_end=nm_tracking.t_end - float(traj.t[anchor]),
        samples_per_tick=nm_tracking.samples_per_tick,
    )
    shifted = simulate(tail)
    # rows are in hybrid-time order, so the tail from the anchor on is a slice
    n = min(300, len(traj) - anchor, len(shifted))
    assert np.array_equal(traj.x[anchor:anchor + n], shifted.x[:n])
    assert np.array_equal(traj.xi[anchor:anchor + n], shifted.xi[:n])


def test_prep_within_one_tick_changes_nothing(plant):
    base = make_scenario(plant, Variant.NM, 1.569e16, 1 / 70, 5e19)
    gated = make_scenario(plant, Variant.NM, 1.569e16, 1 / 70, 5e19, t_prep=0.01)
    a, b = simulate(base), simulate(gated)
    assert len(a) == len(b)
    for name in ("x", "xi", "fired"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_prep_gate_spaces_fires(nm_prep_gate):
    traj = simulate(nm_prep_gate)
    fire_times = traj.t[traj.fired]
    t_c = nm_prep_gate.actuator.t_c
    gaps = np.diff(fire_times)
    assert gaps.min() >= 3 * t_c - 1e-12  # l = ceil(0.0175/0.007) = 3


def test_nonzero_initial_membrane_allowed(plant):
    sc = make_scenario(plant, Variant.NM, 1.569e16, 1 / 70, x0=1e19, xi0=5e16, t_end=0.1)
    traj = simulate(sc)
    assert traj.fired[traj.jump_rows()[0]]  # xi0 already above threshold


def test_scenario_rejects_x0_above_reference(plant):
    with pytest.raises(ValidationError):
        make_scenario(plant, Variant.NM, 1.0, 1 / 70, x0=6e19)


@pytest.mark.parametrize("field, value", [
    ("samples_per_tick", True),
    ("samples_per_tick", 2.5),
    ("samples_per_tick", 2.0),
    ("seed_note", 3),
    ("seed_note", b"note"),
])
def test_scenario_rejects_fields_of_the_wrong_type(nm_tracking, field, value):
    # a scenario that constructs must simulate, and emit a document that
    # parses back to it
    with pytest.raises(ValidationError):
        replace(nm_tracking, **{field: value})


def test_steady_state_window_arithmetic(nm_tracking):
    # the window is the trailing half of (0, 1.0]: its first row is the first
    # at or after t = 0.5
    traj = simulate(nm_tracking)
    first = steady_state_window(traj)
    assert traj.t_end == pytest.approx(1.0, rel=1e-12)
    assert traj.t[first] >= 0.5 * traj.t_end > traj.t[first - 1]
    assert traj.t[first] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("t_end, t_c, samples_per_tick", [
    (float.fromhex("0x1.fffffffffffffp+1023"), 1e-10, 10),  # t_end/t_c overflows
    (1e300, 1 / 70, 10),  # more ticks than an array has rows
    (1.0, 1e-300, 1),
    (1e17, 1.0, 2**60),  # few ticks, too many samples
])
def test_scenario_rejects_a_horizon_no_array_can_hold(nm_tracking, t_end, t_c, samples_per_tick):
    # tau is so short that even the 1e-300 tick keeps r_max a float
    plant = replace(nm_tracking.plant, tau=1e-290)
    with pytest.raises(ValidationError, match="t_end"):
        replace(nm_tracking, plant=plant, t_end=t_end,
                actuator=replace(nm_tracking.actuator, t_c=t_c), samples_per_tick=samples_per_tick)


def test_steady_state_window_rejects_empty(nm_tracking):
    empty = Trajectory((), (), (), (), (), nm_tracking.plant, nm_tracking.controller,
                       nm_tracking.actuator)
    with pytest.raises(EmptyTrajectory):
        steady_state_window(empty)


def test_partial_final_interval_sampled(plant):
    sc = make_scenario(plant, Variant.NM, 1e40, 1 / 70, x0=1e19, t_end=0.05)
    traj = simulate(sc)
    assert traj.t_end == pytest.approx(0.05, rel=1e-12)
    assert traj.j[-1] == len(traj.jump_rows())


def test_long_horizon_has_no_tick_drift(plant):
    # tick times come from k*t_c, not accumulation: exact even after 700 ticks
    sc = make_scenario(plant, Variant.SDM_JM, 1.569e16, 1 / 70, x0=5e19, t_end=10.0,
                       samples_per_tick=1)
    traj = simulate(sc)
    t_c = sc.actuator.t_c
    for i, t in enumerate(traj.t[traj.jump_rows()].tolist()):
        assert t == (i + 1) * t_c
    assert np.all((-plant.alpha < traj.x) & (traj.x <= plant.r))


def test_exact_multiple_prep_time_agrees_with_certificate(plant):
    # t_prep = 7 * t_c exactly as written: the certificate counts l = 7, and
    # the run must fire no less often than that, or it leaves the envelope
    sc = make_scenario(plant, Variant.NM, 1.0, 0.003, 5e19, t_prep=0.021)
    cert = certify(sc.plant, sc.actuator, sc.controller)
    assert cert.feasible and cert.l == 7
    traj = simulate(sc)
    fire_ticks = np.rint(traj.t[traj.fired] / 0.003).astype(int)
    assert np.diff(fire_ticks).min() == 7
    assert report(traj, cert).all_applicable_pass()


def test_columns_are_read_only(nm_tracking):
    traj = simulate(nm_tracking)
    for column in (traj.t, traj.j, traj.x, traj.xi, traj.fired):
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_samples_mirror_the_columns(nm_prep_gate):
    traj = simulate(nm_prep_gate)
    T, T_p = traj.timers()
    for i, s in enumerate(traj.samples):
        assert (s.time.t, s.time.j, s.state.x, s.state.xi, s.fired) == (
            traj.t[i], traj.j[i], traj.x[i], traj.xi[i], traj.fired[i])
    assert np.all(T[traj.fired] == 0.0) and np.all(T_p[traj.fired] == 0.0)
