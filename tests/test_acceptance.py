"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to stream them).

Randomized suites use seeded generators so the run is reproducible.  They
are the release record of claims whose one home is a hypothesis test in
test_properties.py, which explores further.  Both take their random plants
and certified setups from the ranges in conftest.py.
"""

import math

import numpy as np
import pytest

from pelletsim import (
    ActuatorSpec,
    ControllerSpec,
    HybridState,
    PlantParams,
    RNotAboveAlpha,
    Scenario,
    Variant,
    certify,
    check_contraction,
    check_dwell,
    check_envelope,
    compare,
    compute_metrics,
    delta_max,
    detect_windup,
    envelope,
    flow_x,
    flow_xi,
    report,
    simulate,
    simulate_numeric,
    tc_max,
    tick_jump,
)

from conftest import (ALPHA_RANGE, FRACTION_RANGE, R_RANGE, TAU_RANGE, TC_RANGE, make_scenario,
                      short_scenario)

ALPHA = 1e19


def ok(name):
    print(f"PASS {name}")


def steady_rows(traj, t_start=0.5):
    """The t and x columns from t_start on, as lists."""
    rows = traj.t >= t_start - 1e-12
    return traj.t[rows].tolist(), traj.x[rows].tolist()


# -- 1 ------------------------------------------------------------------


def test_criterion_1_certificate_golden_numbers(plant):
    assert tc_max(plant, Variant.NM) == pytest.approx(0.0223143551, rel=1e-6)
    assert delta_max(plant, 1 / 70, Variant.NM) == pytest.approx(1.5692e16, rel=1e-3)
    assert delta_max(plant, 1 / 140, Variant.SDM_IC) == pytest.approx(2.7553e16, rel=1e-3)
    ok("criterion 1: certificate golden numbers")


# -- 2 ------------------------------------------------------------------


def test_criterion_2_reset_controller_threshold_placement(nm_tracking, nm_small_threshold):
    m = {}
    for name, scenario in (("top", nm_tracking), ("bottom", nm_small_threshold)):
        traj = simulate(scenario)
        for t, x in zip(*steady_rows(traj)):
            assert -ALPHA < x <= ALPHA + 1e-9 * traj.plant.r, (name, t, x)
        m[name] = compute_metrics(traj).mean_x_steady
    assert m["top"] - m["bottom"] >= 0.05 * ALPHA
    ok("criterion 2: steady error inside (-alpha, alpha], larger threshold sits higher")


# -- 3 ------------------------------------------------------------------


def test_criterion_3_windup_undershoot(sdm_windup):
    traj = simulate(sdm_windup)
    r = traj.plant.r
    assert float(traj.x.min()) < -ALPHA
    _, steady_x = steady_rows(traj)
    assert min(steady_x) < -ALPHA
    assert max(steady_x) <= ALPHA + 1e-9 * r
    ok("criterion 3: plain sigma-delta undershoots persistently, upper bound intact")


# -- 4 ------------------------------------------------------------------


def test_criterion_4_clipped_fast_actuator_envelope(ic_fast):
    traj = simulate(ic_fast)
    plant = traj.plant
    eps = 1e-9 * plant.r
    x0 = float(traj.x[0])
    for t, x in zip(traj.t.tolist(), traj.x.tolist()):
        lower, upper = envelope(t, x0, plant)
        assert lower - eps < x <= upper + eps, (t, x)
    cert = certify(plant, ic_fast.actuator, ic_fast.controller)
    assert check_envelope(traj, cert) == (True, None)
    ok("criterion 4: input clipping with double-speed actuator stays in the envelope")


# -- 5 ------------------------------------------------------------------


def test_criterion_5_clipped_slow_actuator_wider_bound(ic_slow):
    traj = simulate(ic_slow)
    plant = traj.plant
    widened = plant.alpha * (2.0 - plant.alpha / plant.r)
    assert widened == pytest.approx(1.8571e19, rel=1e-3)
    for x in steady_rows(traj)[1]:
        assert x <= widened + 1e-9 * plant.r
        assert x > -plant.alpha
    ok("criterion 5: slow actuator with near-zero threshold keeps the widened bound")


# -- 6 ------------------------------------------------------------------


def test_criterion_6_multi_subtraction_limit_cycle(jm_tracking):
    traj = simulate(jm_tracking)
    for x in steady_rows(traj)[1]:
        assert -ALPHA < x <= ALPHA + 1e-9 * traj.plant.r
    assert not detect_windup(traj)
    ok("criterion 6: multi-threshold subtraction reaches the reset-family limit cycle")


# -- 7 ------------------------------------------------------------------


def test_criterion_7_oracle_equivalence(nm_tracking, ic_fast, jm_tracking):
    for scenario in (nm_tracking, ic_fast, jm_tracking):
        analytic = simulate(scenario)
        numeric = simulate_numeric(scenario, 1000)
        result = compare(analytic, numeric)
        assert result.max_rel_x <= 1e-6, scenario.controller.variant
        assert result.max_rel_xi <= 1e-6, scenario.controller.variant
        assert result.fire_mismatch is None, scenario.controller.variant
    ok("criterion 7: analytic and RK4 runs agree to 1e-6 with identical fire ticks")


# -- 8 ------------------------------------------------------------------


def _random_plant(rng):
    alpha = rng.uniform(*ALPHA_RANGE)
    return PlantParams(tau=rng.uniform(*TAU_RANGE), r=alpha * rng.uniform(*R_RANGE), alpha=alpha)


def _random_certified(rng, variant=Variant.NM):
    while True:
        plant = _random_plant(rng)
        t_c = rng.uniform(*TC_RANGE) * plant.tau_d
        dm = delta_max(plant, t_c, variant)
        if dm <= 0.0:
            continue
        delta = rng.uniform(*FRACTION_RANGE) * dm
        x0 = rng.uniform(*FRACTION_RANGE) * plant.r
        return plant, ActuatorSpec(t_c=t_c), ControllerSpec(variant, delta), x0


def test_criterion_8_zeno_bound_1000():
    rng = np.random.default_rng(801)
    variants = list(Variant)
    for i in range(1000):
        plant = _random_plant(rng)
        t_c = rng.uniform(0.05, 1.5) * plant.tau_d
        controller = ControllerSpec(variants[i % 4], rng.uniform(1e10, 1e18))
        x0 = plant.r * rng.uniform(-1.0, 1.0)
        scenario = Scenario(plant, ActuatorSpec(t_c=t_c), controller, x0=x0,
                            t_end=rng.uniform(3.0, 20.0) * t_c, samples_per_tick=1)
        traj = simulate(scenario)
        for t, j in zip(traj.t.tolist(), traj.j.tolist()):
            assert j <= math.floor(t / t_c + 1e-9) + 1
    ok("criterion 8a: zeno bound j <= floor(t/t_c)+1 over 1000 random runs")


def test_criterion_8_semigroup_1000():
    rng = np.random.default_rng(802)
    for _ in range(1000):
        plant = _random_plant(rng)
        x0 = plant.r * (1.0 - rng.uniform(0.0, 2.0))
        a, b = rng.uniform(0.0, 3.0 * plant.tau, size=2)
        chained = flow_x(flow_x(x0, a, plant), b, plant)
        direct = flow_x(x0, a + b, plant)
        assert abs(chained - direct) <= 1e-12 * max(abs(chained), abs(direct), plant.alpha)
    ok("criterion 8b: flow semigroup law at 1e-12 over 1000 random inputs")


def test_criterion_8_membrane_monotone_1000():
    rng = np.random.default_rng(803)
    for _ in range(1000):
        plant = _random_plant(rng)
        x0 = plant.r * (1.0 - rng.uniform(0.0, 2.0))
        xi0 = rng.uniform(0.0, 1e18)
        d1, d2 = np.sort(rng.uniform(0.0, 3.0 * plant.tau, size=2))
        assert flow_xi(x0, xi0, d1, plant) <= flow_xi(x0, xi0, d2, plant)
        if x0 < 0.0:
            crossing = plant.tau * math.log1p(-x0 / plant.r)
            assert flow_xi(x0, xi0, 0.99 * crossing, plant) == xi0
    ok("criterion 8c: membrane nondecreasing during flow, frozen while x < 0")


def test_criterion_8_multi_subtraction_residue_1000():
    rng = np.random.default_rng(804)
    for _ in range(1000):
        plant = _random_plant(rng)
        delta = rng.uniform(1e10, 1e18)
        t_c = 0.01
        state = HybridState(x=0.0, xi=delta * rng.uniform(1.0, 80.0))
        out = tick_jump(state, 1, plant, ControllerSpec(Variant.SDM_JM, delta), ActuatorSpec(t_c=t_c))
        assert out.fired
        assert 0.0 <= out.state_after.xi < delta
    ok("criterion 8d: multi-threshold fires leave the residue in [0, delta)")


def test_criterion_8_contraction_1000():
    rng = np.random.default_rng(805)
    for _ in range(1000):
        plant, actuator, controller, x0 = _random_certified(rng)
        cert = certify(plant, actuator, controller)
        assert cert.feasible
        traj = simulate(short_scenario(plant, actuator, controller, x0))
        verdict, witness = check_contraction(traj, cert)
        assert verdict is True, witness
    ok("criterion 8e: certified reset cycles contract by gamma over 1000 random runs")


def test_criterion_8_dwell_1000():
    rng = np.random.default_rng(806)
    for _ in range(1000):
        plant, actuator, controller, x0 = _random_certified(rng)
        cert = certify(plant, actuator, controller)
        traj = simulate(short_scenario(plant, actuator, controller, x0))
        verdict, witness = check_dwell(traj, cert)
        assert verdict is True, witness
    ok("criterion 8f: certified inter-pellet gaps within tau_d over 1000 random runs")


# -- 9 ------------------------------------------------------------------


def test_criterion_9_preparation_time(plant, nm_tracking, nm_prep_gate):
    gated = make_scenario(plant, Variant.NM, 1.569e16, 1 / 70, 5e19, t_prep=0.012)
    a, b = simulate(nm_tracking), simulate(gated)
    assert len(a) == len(b)
    for name in ("x", "xi", "fired"):
        assert np.array_equal(getattr(a, name), getattr(b, name))  # bitwise identical

    cert = certify(plant, nm_prep_gate.actuator, nm_prep_gate.controller)
    assert cert.l == 3 and cert.feasible
    traj = simulate(nm_prep_gate)
    for x in steady_rows(traj)[1]:
        assert -ALPHA < x <= ALPHA + 1e-9 * plant.r
    ok("criterion 9: one-tick preparation is invisible; three-tick gate stays certified")


# -- 10 -----------------------------------------------------------------


def test_criterion_10_validation_and_infeasible_handling(plant):
    with pytest.raises(RNotAboveAlpha):
        PlantParams(tau=0.1, r=1e19, alpha=1e19)

    slow = make_scenario(plant, Variant.NM, 1e15, 0.03, x0=5e19)  # t_c > tc_max
    cert = certify(plant, slow.actuator, slow.controller)
    assert not cert.feasible
    traj = simulate(slow)  # simulation must still run
    assert len(traj) > 0
    rep = report(traj, cert)
    assert rep.verdicts["envelope"] is not True  # not-applicable or violated, never a silent pass
    assert rep.as_dict()["envelope"] in ("not_applicable", "fail")
    ok("criterion 10: invalid plants rejected; infeasible tunings run but never claim the bound")
