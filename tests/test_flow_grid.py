"""The array forms of the flow, and the engine's samples, against the scalar
closed forms bit for bit."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pelletsim import ActuatorSpec, ControllerSpec, HybridState, PlantParams, Scenario, Variant
from pelletsim import flow_x, flow_xi, simulate, tick_jump
from pelletsim.engine import _TICK_EPS
from pelletsim.flow import BOUNDARY_SNAP, flow_x_grid, flow_xi_grid

finite = dict(allow_nan=False, allow_infinity=False)
SPT = [1, 2, 3, 10, 20]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@st.composite
def plants(draw):
    alpha = draw(st.floats(1e18, 5e19, **finite))
    return PlantParams(tau=draw(st.floats(0.01, 1.0, **finite)),
                       r=alpha * draw(st.floats(1.1, 10.0, **finite)), alpha=alpha)


@st.composite
def starts(draw, plant, offsets):
    """A tick-start error: non-negative, at r, or negative with its zero
    crossing before, between, on or within a few BOUNDARY_SNAP*tau of an
    offset, or after the last."""
    r, tau = plant.r, plant.tau
    kind = draw(st.sampled_from(["positive", "reference", "before", "between", "on", "near", "after"]))
    if kind == "positive":
        return draw(st.floats(0.0, r, **finite))
    if kind == "reference":
        return r
    m = draw(st.integers(0, len(offsets) - 1))
    if kind == "before":
        t = offsets[0] * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    elif kind == "between":
        lo = offsets[m - 1] if m else 0.0
        t = lo + (offsets[m] - lo) * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    elif kind == "on":
        t = offsets[m]
    elif kind == "near":
        t = offsets[m] + draw(st.floats(-3.0, 3.0, **finite)) * BOUNDARY_SNAP * tau
    else:
        t = offsets[-1] * draw(st.floats(1.0, 3.0, **finite))
    return -r * math.expm1(t / tau)  # the error that reaches 0 after t


@st.composite
def grids(draw):
    plant = draw(plants())
    spt = draw(st.sampled_from(SPT))
    t_c = plant.tau * draw(st.floats(0.01, 3.0, **finite))
    offsets = [t_c * (m / spt) for m in range(1, spt + 1)]
    sat = draw(st.sampled_from(["none", "below", "at", "above"]))
    x_sat = {"none": None, "at": plant.r,
             "below": plant.r * draw(st.floats(1e-3, 1.0, exclude_max=True, **finite)),
             "above": plant.r * draw(st.floats(1.0, 3.0, exclude_min=True, **finite))}[sat]
    x0 = draw(st.lists(starts(plant, offsets), min_size=1, max_size=6))
    if x_sat is not None and x_sat <= plant.r and draw(st.booleans()):
        x0.append(x_sat)  # saturated from the start
    xi0 = [draw(st.sampled_from([0.0, draw(st.floats(1e10, 1e19, **finite))])) for _ in x0]
    return plant, offsets, x_sat, x0, xi0


# x reaches x_sat one rounding step after 0: the integral of x over that
# sliver rounds below zero, and max(0.0, ...) takes it back to 0
SLIVER = (PlantParams(tau=0.09219077506580066, r=4.4504553145825853e18, alpha=1e18),
          [0.046095387532900330, 0.09219077506580066], 1136.0380229645039,
          [-5.036886360501105e18], [0.0])


@given(grids())
@example(SLIVER)
@settings(max_examples=400, deadline=None)
def test_array_forms_equal_scalar_closed_forms(grid):
    plant, offsets, x_sat, x0, xi0 = grid
    x = flow_x_grid(np.array(x0), offsets, plant)
    xi = flow_xi_grid(np.array(x0), np.array(xi0), offsets, plant, x_sat)
    assert x.shape == xi.shape == (len(x0), len(offsets))
    for i, (a, b) in enumerate(zip(x0, xi0)):
        assert (bits(x[i]) == bits([flow_x(a, dt, plant) for dt in offsets])).all()
        assert (bits(xi[i]) == bits([flow_xi(a, b, dt, plant, x_sat) for dt in offsets])).all()


def test_expm1_runs_only_on_the_lanes_whose_increment_is_kept(monkeypatch):
    from pelletsim import flow

    mapped, real = [], flow._mapped
    monkeypatch.setattr(flow, "_mapped", lambda fn, a: mapped.append((fn, a.size)) or real(fn, a))
    plant = PlantParams(tau=0.1, r=5e19, alpha=1e19)
    # x stays negative for tau*log1p(0.8) = 59 ms; x_sat = 1e19 clips from the start
    x0 = np.array([-4e19, 2e19, 1e18])
    xi = flow_xi_grid(x0, np.zeros(3), [0.001, 0.002], plant, 1e19)
    assert [n for fn, n in mapped if fn is math.expm1] == [2]
    assert (bits(xi) == bits([[flow_xi(a, 0.0, dt, plant, 1e19) for dt in (0.001, 0.002)]
                              for a in x0])).all()


def scalar_samples(scenario):
    """t, j, x and xi with one flow_x/flow_xi call per sample, in time order."""
    plant, t_c, spt, x_sat = (scenario.plant, scenario.actuator.t_c,
                              scenario.samples_per_tick, scenario.x_sat)
    n_ticks = int(math.floor(scenario.t_end / t_c + _TICK_EPS))
    offsets = [t_c * (m / spt) for m in range(1, spt + 1)]
    x, xi, since_fire = scenario.x0, scenario.xi0, 0
    ts, js, xs, xis = [0.0], [0], [x], [xi]
    for k in range(n_ticks):
        ts += [t_c * (k + m / spt) for m in range(1, spt + 1)] + [t_c * (k + 1)]
        js += [k] * spt + [k + 1]
        xs += [flow_x(x, dt, plant) for dt in offsets]
        xis += [flow_xi(x, xi, dt, plant, x_sat) for dt in offsets]
        since_fire += 1
        outcome = tick_jump(HybridState(xs[-1], xis[-1]), since_fire, plant, scenario.controller,
                            scenario.actuator)
        x, xi = outcome.state_after.x, outcome.state_after.xi
        xs.append(x)
        xis.append(xi)
        if outcome.fired:
            since_fire = 0
    remainder = scenario.t_end - t_c * n_ticks
    if remainder > _TICK_EPS * t_c:
        dts = [dt for dt in offsets if dt < remainder - _TICK_EPS * t_c] + [remainder]
        ts += [t_c * (n_ticks + m / spt) for m in range(1, len(dts))] + [scenario.t_end]
        js += [n_ticks] * len(dts)
        xs += [flow_x(x, dt, plant) for dt in dts]
        xis += [flow_xi(x, xi, dt, plant, x_sat) for dt in dts]
    return ts, js, xs, xis


@given(plants(), st.sampled_from(list(Variant)), st.sampled_from(SPT), st.integers(0, 40),
       st.floats(0.01, 0.99, **finite), st.floats(-3.0, 1.0, **finite),
       st.sampled_from([0.0, 0.5, 3.0]), st.floats(1e-3, 2.0, **finite))
@settings(max_examples=200, deadline=None)
def test_engine_samples_equal_scalar_path_with_partial_last_interval(
        plant, variant, spt, ticks, part, x0, xi0, tc_frac):
    t_c = tc_frac * plant.tau_d
    delta = plant.alpha * t_c * 0.5  # for SDM_IC, x_sat = alpha/2 < r: clipping happens
    scenario = Scenario(plant=plant, actuator=ActuatorSpec(t_c=t_c),
                        controller=ControllerSpec(variant=variant, delta=delta),
                        x0=x0 * plant.r, xi0=xi0 * delta, t_end=t_c * (ticks + part),
                        samples_per_tick=spt)
    traj = simulate(scenario)
    ts, js, xs, xis = scalar_samples(scenario)
    assert traj.t[-1] == scenario.t_end  # the last interval is partial
    assert (bits(traj.t) == bits(ts)).all()
    assert traj.j.tolist() == js
    assert (bits(traj.x) == bits(xs)).all()
    assert (bits(traj.xi) == bits(xis)).all()
