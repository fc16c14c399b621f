import ast
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pelletsim import (ActuatorSpec, ControllerSpec, HybridState, PlantParams, StepTooCoarse,
                       Variant, compare, controllers, flow_x, flow_xi, oracle, simulate,
                       simulate_numeric)
from pelletsim.io import load_scenario
from pelletsim.oracle import _first_reached, integrate_flow_rk4

from conftest import make_scenario
from test_replay import column_digest, columns

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _xi_rate(x, x_sat):
    if x <= 0.0:
        return 0.0
    if x_sat is not None and x > x_sat:
        return x_sat
    return x


def rk4_sequential(x0, xi0, dt, plant, x_sat, n_steps):
    """Step-by-step RK4, the reference for the array evaluation of
    integrate_flow_rk4.  xi's increments are summed with math.fsum: a running
    sum drifts by up to n_steps*eps/2 (7.4e-13 seen at 1e5 clipped steps)."""
    h = dt / n_steps
    r, tau = plant.r, plant.tau
    x, xi_increments = x0, [xi0]
    for _ in range(n_steps):
        k1x = (r - x) / tau
        k1s = _xi_rate(x, x_sat)
        x2 = x + 0.5 * h * k1x
        k2x = (r - x2) / tau
        k2s = _xi_rate(x2, x_sat)
        x3 = x + 0.5 * h * k2x
        k3x = (r - x3) / tau
        k3s = _xi_rate(x3, x_sat)
        x4 = x + h * k3x
        k4x = (r - x4) / tau
        k4s = _xi_rate(x4, x_sat)
        xi_increments.append(h / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s))
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    return x, math.fsum(xi_increments)


# sha256 of simulate_numeric's t, j, x, xi and fired bytes on every shipped
# scenario at 10**3 and 10**6 RK4 steps per tick, as the oracle computed them
# before its clipped sums lost their per-interval closures (nm_prep_gate's
# 10**3 tail takes 858 steps, rounded up, not 857): a change to the oracle
# that moves any bit of any column fails here
ORACLE_GOLDEN = {
    "nm_gas_gun": (
        "c83ecd4e73203fe0951f55c49a18cde1f9b4bc20937d6718a9b73fd8ed69bc22",
        "de4d7ec7b13dac7cf34029b5ffa906c492b076bdc481e450874f44668f9a73f3",
    ),
    "nm_prep_gate": (
        "672588265b9f03eca308d3b7987c28e57fa428abe62d16e1cf3b49434a36da67",
        "ba54d87d9d7a53cfdc5994e817b53a70e85ee506d470af4f6d528fe052981b50",
    ),
    "nm_small_threshold": (
        "7833d751077f042eec04f660db8ba4768e3bb0235817f8bfab0bddc95c04c390",
        "7b254058d7a0fa4d41e36aef5d4b113fca9b676717eed5fc3ca5b374f656f738",
    ),
    "nm_tracking": (
        "fe54782380bf3182d52162467dbac441f297155f77e3ddc70bac359b818cc4c2",
        "3f18880352dcb920bedcbadeda5ce9614a558b2e29a1e29cd8578eb2b39d5810",
    ),
    "sdm_ic_fast": (
        "b8002bbf4b3afc789c25909dcce7e1bf24da7f9738a6d806a9aebce3619d7fa9",
        "2c7176fceb3c905bffb6d412311bb05f2451e29413b08c1c66726f47edbbe869",
    ),
    "sdm_ic_slow": (
        "f794ba407357e951a9fdc25384fe9ce97aec86d338b7599f3377fd949a581d9b",
        "ed3e1ba0feb492ef783a07de81e6f08a383c95eab363aff396b977c585c600b3",
    ),
    "sdm_jm": (
        "1832b2bd68c1bdf0c04c1a1b1e6d40c007cf1a1e492347a9c560ec17dcf2945a",
        "2ea6af15abbab0f8b928feec37c320476e851ee1aa5b4f301de1114a660024f2",
    ),
    "sdm_windup": (
        "e2a6288ce26cdfc26653204670d73c62fdbe75d3b14b1a43097dd7fc198eb0e0",
        "16e131618f5a01929fac9082fe81aef37e239f4394eb5d2b141611de48d69ecc",
    ),
}


def test_every_shipped_scenario_has_an_oracle_digest():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) == sorted(ORACLE_GOLDEN)


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_columns_match_golden_digests(name):
    scenario = replace(load_scenario(SCENARIO_DIR / f"{name}.json"), samples_per_tick=1)
    digests = tuple(column_digest(columns(simulate_numeric(scenario, n_steps)))
                    for n_steps in (10**3, 10**6))
    assert digests == ORACLE_GOLDEN[name]


def _ulps(value, k):
    """value moved k floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        value = math.nextafter(value, math.copysign(math.inf, k))
    return value


@st.composite
def tick_boundaries(draw):
    """A boundary state and gate for the jump map: delta down to 1e-300; xi
    a few ulps either side of the firing threshold or of delta, at or beside
    an exact multiple of delta up to 80, anywhere below 100*delta, or
    anywhere up to 1e20, where xi/delta may leave the float range;
    since_fire one tick either side of a gate of 1 to 8 ticks."""
    variant = draw(st.sampled_from(list(Variant)))
    delta = draw(st.sampled_from([1e-300, 1.0, 1.569e16, 2.755e16]) | st.floats(1e-300, 1e30))
    near = draw(st.sampled_from(["threshold", "delta", "multiple", "below", "anywhere"]))
    if near == "threshold":
        xi = _ulps(delta * (1.0 - oracle.FIRING_SLACK), draw(st.integers(-4, 4)))
    elif near == "delta":
        xi = _ulps(delta, draw(st.integers(-4, 4)))
    elif near == "multiple":
        xi = _ulps(draw(st.integers(1, 80)) * delta, draw(st.integers(-2, 2)))
    elif near == "below":
        xi = draw(st.floats(0.0, 100.0 * delta))
    else:
        xi = draw(st.floats(0.0, 1e20))
    l = draw(st.integers(1, 8))
    since_fire = l + draw(st.integers(-1, 1))
    alpha = draw(st.floats(1e10, 1e20))
    x = draw(st.floats(-5.0 * alpha, 5.0 * alpha))
    return x, xi, since_fire, l, delta, alpha, variant


@given(tick_boundaries())
@example((0.0, 1e20, 1, 1, 1e-300, 1e19, Variant.SDM_JM))  # xi/delta = 1e320
@settings(max_examples=400, deadline=None)
def test_oracle_jump_map_matches_the_engine_bit_for_bit(case):
    x, xi, since_fire, l, delta, alpha, variant = case
    actuator = ActuatorSpec(t_c=1.0, t_prep=float(l))
    assert actuator.prep_ticks() == l
    expected = controllers.tick_jump(HybridState(x, xi), since_fire,
                                     PlantParams(tau=0.1, r=2.0 * alpha, alpha=alpha),
                                     ControllerSpec(variant, delta), actuator)
    threshold = delta * (1.0 - oracle.FIRING_SLACK)
    got = oracle.tick_jump(x, xi, since_fire, l, threshold, delta, alpha, variant)
    assert (got.x.hex(), got.xi.hex(), got.fired) == (
        expected.state_after.x.hex(), expected.state_after.xi.hex(), expected.fired)


def test_oracle_shares_no_code_with_the_jump_map_it_checks():
    # the cross-check applies its own jump map: it may not import the
    # engine's controllers, nor build their state and outcome types
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "controllers" not in (node.module or "").split(".")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any("controllers" in alias.name.split(".") for alias in node.names)
        names = {getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None)}
        assert not names & {"HybridState", "JumpOutcome"}


@st.composite
def crossing_intervals(draw):
    """x0 < 0 whose exact flow crosses zero inside the interval, at a drawn
    fraction of it; x_sat absent, above every stage, or clipping."""
    tau = draw(st.floats(1e-3, 1.0))
    r = draw(st.floats(1e17, 1e21))
    dt = tau * draw(st.floats(0.01, 3.0))
    crossing = draw(st.floats(0.05, 0.95))
    x0 = r - r * math.exp(crossing * dt / tau)
    x_sat = draw(st.sampled_from([None, 2.0 * r, r * draw(st.floats(0.01, 1.0))]))
    xi0 = draw(st.sampled_from([0.0, r * dt * draw(st.floats(0.0, 1.0))]))
    n_steps = draw(st.sampled_from([1, 2, 4095, 4096, 4097, 10**5]))
    return x0, xi0, dt, PlantParams(tau=tau, r=r, alpha=r / 10), x_sat, n_steps


def rk4_step_factor(dt, tau, n_steps):
    """RK4's factor on x - r per step, 1 + z + z**2/2 + z**3/6 + z**4/24 with
    z = -h/tau; past 1, at h of about 2.785 tau, the steps diverge."""
    z = -(dt / n_steps) / tau
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


@given(crossing_intervals())
@settings(max_examples=60, deadline=None)
# one step of 3 tau: g = 1.375, which integrate_flow_rk4 refuses
@example((-3.4816890703380646e17, 0.0, 3.0, PlantParams(tau=1.0, r=1e17, alpha=1e16), None, 1))
def test_array_rk4_matches_sequential_steps(case):
    x0, xi0, dt, plant, x_sat, n_steps = case
    if rk4_step_factor(dt, plant.tau, n_steps) > 1.0:
        with pytest.raises(StepTooCoarse):
            integrate_flow_rk4(*case)
        return
    x, xi = integrate_flow_rk4(*case)
    x_ref, xi_ref = rk4_sequential(*case)
    assert abs(x - x_ref) <= 1e-12 * abs(x_ref)
    assert abs(xi - xi_ref) <= 1e-12 * abs(xi_ref)


@st.composite
def clipping_intervals(draw):
    """Intervals that reach every branch of the closed sums: x0 at 0, r or
    -3r, anywhere in [0, r], or crossing 0 in the first or last 1% of the
    interval or only after it; x_sat absent, at r or 2r, or anywhere in
    (0.01, 1)*r, which saturates whole intervals that start above it."""
    tau = draw(st.floats(1e-3, 1.0))
    r = draw(st.floats(1e17, 1e21))
    dt = tau * draw(st.floats(0.01, 3.0))
    start = draw(st.sampled_from(["0", "r", "-3r", "uniform", "early", "late", "below"]))
    if start == "uniform":
        x0 = r * draw(st.floats(0.0, 1.0))
    elif start in ("0", "r", "-3r"):
        x0 = {"0": 0.0, "r": r, "-3r": -3.0 * r}[start]
    else:
        crossing = draw({"early": st.floats(0.0, 0.01), "late": st.floats(0.99, 1.0),
                         "below": st.floats(1.01, 3.0)}[start])
        x0 = r - r * math.exp(crossing * dt / tau)
    x_sat = draw(st.sampled_from([None, r, 2.0 * r, r * draw(st.floats(0.01, 1.0))]))
    xi0 = draw(st.sampled_from([0.0, r * dt * draw(st.floats(0.0, 1.0))]))
    n_steps = draw(st.integers(1, 10**5))
    return x0, xi0, dt, PlantParams(tau=tau, r=r, alpha=r / 10), x_sat, n_steps


@given(clipping_intervals())
@settings(max_examples=40, deadline=None)
def test_closed_sums_match_sequential_steps_on_every_branch(case):
    x, xi = integrate_flow_rk4(*case)
    x_ref, xi_ref = rk4_sequential(*case)
    _, _, dt, plant, _, _ = case
    # rounding sets floors of about eps*r on x, where a crossing at the end
    # of the interval leaves x near 0, and of about eps*dt*r on xi, where it
    # barely grows after a crossing late in the interval
    assert abs(x - x_ref) <= 1e-12 * max(abs(x_ref), plant.r)
    assert abs(xi - xi_ref) <= 1e-12 * max(abs(xi_ref), dt * plant.r)


@given(crossing_intervals())
@settings(max_examples=40, deadline=None)
def test_a_billion_steps_agree_with_the_exact_flow(case):
    x0, xi0, dt, plant, x_sat, _ = case
    x, xi = integrate_flow_rk4(x0, xi0, dt, plant, x_sat, 10**9)
    assert abs(x - flow_x(x0, dt, plant)) <= 1e-12 * abs(flow_x(x0, dt, plant))
    # flow_xi's own rounding reaches about 1e-12 of xi where xi barely grows
    # after a late crossing, so the floor is the one of the property above
    xi_exact = flow_xi(x0, xi0, dt, plant, x_sat)
    assert abs(xi - xi_exact) <= 1e-12 * max(abs(xi_exact), dt * plant.r)


@pytest.mark.parametrize("hi, answer", [(1, 1), (2, 1), (2, 2), (7, 3), (1000, 1), (1000, 999),
                                        (10**30, 12345)])
def test_first_reached_from_any_guess(hi, answer):
    # the stage r - e**(-n/1000) rises with n, and first reaches its own
    # value at step answer there
    p, e0, r, log_g = 1.0, -1.0, 3.0, -1e-3
    level = p * (e0 * math.exp(answer * log_g)) + r
    for guess in (math.nan, -5.0, 0.3, answer - 1.5, answer - 0.5, float(answer), answer + 0.5,
                  answer + 40.0, hi + 10.0, 1e40):
        assert _first_reached(p, e0, r, log_g, level, 1, hi, guess) == answer


@pytest.mark.parametrize("n_steps", [10**6, 10**12])
def test_memory_does_not_grow_with_the_step_count(plant, n_steps):
    tracemalloc.start()
    try:
        integrate_flow_rk4(-1e19, 0.0, 1 / 70, plant, 4e19, n_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one array over all 10**6 steps' four stages would take 32 MB
    assert peak < 2 * 2**20


def test_step_too_small_to_count(nm_tracking):
    # t_c / n_steps underflows to 0: no float step to take; tau is so short
    # that the 1e-300 tick keeps r_max a float
    fast = replace(nm_tracking, plant=replace(nm_tracking.plant, tau=1e-290),
                   actuator=replace(nm_tracking.actuator, t_c=1e-300), t_end=2e-300)
    with pytest.raises(StepTooCoarse):
        simulate_numeric(fast, 10**30)


def test_step_count_past_the_float_range(nm_tracking):
    # t_c / 10**400 would raise OverflowError converting the count to a float
    with pytest.raises(StepTooCoarse, match="at most"):
        simulate_numeric(nm_tracking, 10**400)


def test_partial_last_tick_at_the_largest_step_count(nm_tracking):
    # the tail's step count n_steps*remainder/t_c stays below n_steps; the
    # product n_steps*remainder alone (1e307 * 50) leaves the float range
    long_tick = replace(nm_tracking, actuator=replace(nm_tracking.actuator, t_c=100.0),
                        t_end=1050.0)
    numeric = simulate_numeric(long_tick, 10**307)
    assert numeric.t[-1] == 1050.0 and all(map(math.isfinite, numeric.x))


def test_clipped_slow_actuator_needs_fine_steps_at_its_kinks():
    # the clipped input delta/t_c holds every decision on the threshold tie,
    # and fixed RK4 steps lose about half a step of clipped input where x
    # crosses 0 (no event location)
    shipped = load_scenario(SCENARIO_DIR / "sdm_ic_slow.json")
    scenario = replace(shipped, x0=0.519 * shipped.plant.r)
    analytic = simulate(scenario)
    coarse = compare(analytic, simulate_numeric(scenario, 1000))
    assert coarse.fire_mismatch is not None and coarse.fire_mismatch.tick == 66
    assert compare(analytic, simulate_numeric(scenario, 10**6)).passed


def test_step_must_be_fine_enough(nm_tracking):
    with pytest.raises(StepTooCoarse):
        simulate_numeric(nm_tracking, 50)


def test_matches_analytic_on_reference_run(nm_tracking):
    analytic = simulate(nm_tracking)
    numeric = simulate_numeric(nm_tracking, 1000)
    result = compare(analytic, numeric)
    assert result.max_rel_x <= 1e-6
    assert result.max_rel_xi <= 1e-6
    assert result.fire_mismatch is None


def test_open_loop_decay_matches_closed_form(plant):
    # no pellets: x(t) = r - e^(-t/tau)(r - x0), checked at t = 5*tau
    sc = make_scenario(plant, Variant.NM, 1e40, 0.1, x0=2e19, t_end=0.5, samples_per_tick=1)
    numeric = simulate_numeric(sc, 1000)
    import math

    expected = plant.r - math.exp(-0.5 / plant.tau) * (plant.r - 2e19)
    got = float(numeric.x[-1])
    assert got == pytest.approx(expected, rel=1e-9)


def test_single_tick_decision_agrees(plant):
    sc = make_scenario(plant, Variant.NM, 1.569e16, 1 / 70, x0=5e19, t_end=1 / 70)
    a = simulate(sc)
    n = simulate_numeric(sc, 1000)
    assert a.fired[a.jump_rows()[0]] == n.fired[n.jump_rows()[0]]


def test_fourth_order_convergence_on_smooth_segment(plant):
    # positive, unclipped flow has no kinks; halving the step must shrink the
    # tick-boundary defect by at least 8x
    x0, xi0, t_c = 1e19, 0.0, 1 / 70
    from pelletsim import flow_x, flow_xi

    x_exact = flow_x(x0, t_c, plant)
    xi_exact = flow_xi(x0, xi0, t_c, plant)
    err = []
    for n in (100, 200):
        x_n, xi_n = integrate_flow_rk4(x0, xi0, t_c, plant, None, n)
        err.append((abs(x_n - x_exact), abs(xi_n - xi_exact)))
    assert err[0][0] / err[1][0] >= 8.0
    assert err[0][1] / err[1][1] >= 8.0


@pytest.mark.parametrize("fixture", ["nm_tracking", "ic_fast", "jm_tracking"])
def test_fire_sequences_agree_across_variants(request, fixture):
    scenario = request.getfixturevalue(fixture)
    analytic = simulate(scenario)
    numeric = simulate_numeric(scenario, 1000)
    fires_a = analytic.fired[analytic.jump_rows()].tolist()
    fires_n = numeric.fired[numeric.jump_rows()].tolist()
    assert fires_a == fires_n
