"""Independent fixed-step integrator used to cross-validate the engine.

Classical fourth-order Runge-Kutta on (x, xi) between ticks, with the same
jump logic applied at tick boundaries.  Sharing the jump map is deliberate:
this module validates the closed-form flow integration, while the jump
logic is pinned by hand-computed cases in its own tests.  Kinks of the
clipped integrator input are handled only by taking enough steps; no event
localization is attempted.  Not for production use.
"""

from __future__ import annotations

import math

from .controllers import tick_jump
from .core import HybridState, PlantParams, Trajectory
from .engine import Scenario

MIN_SUBSTEPS = 100


class StepTooCoarse(ValueError):
    pass


def _xi_rate(x: float, x_sat: float | None) -> float:
    if x <= 0.0:
        return 0.0
    if x_sat is not None and x > x_sat:
        return x_sat
    return x


def integrate_flow_rk4(
    x0: float,
    xi0: float,
    dt: float,
    plant: PlantParams,
    x_sat: float | None,
    n_steps: int,
) -> tuple[float, float]:
    """RK4 over one flow interval; x feeds xi but not vice versa."""
    h = dt / n_steps
    r, tau = plant.r, plant.tau
    x, xi = x0, xi0
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
        xi += h / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    return x, xi


def _substeps_per_tick(t_c: float, step: float) -> int:
    n = round(t_c / step)
    if n < 1 or abs(n * step - t_c) > 1e-9 * t_c:
        raise StepTooCoarse(f"step={step!r} does not divide the tick period t_c={t_c!r}")
    if n < MIN_SUBSTEPS:
        raise StepTooCoarse(f"need at least {MIN_SUBSTEPS} substeps per tick, got {n}")
    return n


def simulate_numeric(scenario: Scenario, step: float) -> Trajectory:
    """Numerically integrated counterpart of engine.simulate.

    Records the initial state and the pre/post states of every tick (the
    only points the comparison needs); intermediate substeps are not kept.
    """
    plant, actuator, controller = scenario.plant, scenario.actuator, scenario.controller
    t_c = actuator.t_c
    n_sub = _substeps_per_tick(t_c, step)
    x_sat = scenario.x_sat

    x, xi = scenario.x0, scenario.xi0
    ts, js, xs, xis, fired = [0.0], [0], [x], [xi], [False]
    n_ticks = int(math.floor(scenario.t_end / t_c + 1e-9))
    since_fire = 0  # whole ticks since the last pellet, or since t = 0

    for k in range(1, n_ticks + 1):
        x, xi = integrate_flow_rk4(x, xi, t_c, plant, x_sat, n_sub)
        xi = max(0.0, xi)
        since_fire += 1
        boundary = HybridState(x, xi, t_timer=t_c, t_prep_timer=since_fire * t_c)
        outcome = tick_jump(boundary, plant, controller, actuator)
        ts += [t_c * k, t_c * k]
        js += [k - 1, k]
        xs += [x, outcome.state_after.x]
        xis += [xi, outcome.state_after.xi]
        fired += [False, outcome.fired]
        x, xi = outcome.state_after.x, outcome.state_after.xi
        if outcome.fired:
            since_fire = 0

    remainder = scenario.t_end - t_c * n_ticks
    if remainder > 1e-9 * t_c:
        n_tail = max(1, round(n_sub * remainder / t_c))
        x, xi = integrate_flow_rk4(x, xi, remainder, plant, x_sat, n_tail)
        ts.append(scenario.t_end)
        js.append(n_ticks)
        xs.append(x)
        xis.append(max(0.0, xi))
        fired.append(False)

    return Trajectory(ts, js, xs, xis, fired, plant, controller, actuator)
