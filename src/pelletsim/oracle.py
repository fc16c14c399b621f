"""Independent fixed-step integrator used to cross-validate the engine.

Classical fourth-order Runge-Kutta on (x, xi) between ticks, with the same
jump logic applied at tick boundaries.  Sharing the jump map is deliberate:
this module validates the closed-form flow integration, while the jump
logic is pinned by hand-computed cases in its own tests.  Steps are
evaluated as arrays in blocks of bounded size.  Kinks of the clipped
integrator input are handled only by taking enough steps; no event
localization is attempted.  Not for production use.
"""

from __future__ import annotations

import math

import numpy as np

from .controllers import tick_jump
from .core import HybridState, PlantParams, Trajectory
from .engine import Scenario

MIN_SUBSTEPS = 100
BLOCK = 4096  # RK4 steps evaluated per array operation; bounds the memory used
_STEP_INDEX = np.arange(BLOCK, dtype=float)
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])


class StepTooCoarse(ValueError):
    pass


def integrate_flow_rk4(
    x0: float,
    xi0: float,
    dt: float,
    plant: PlantParams,
    x_sat: float | None,
    n_steps: int,
) -> tuple[float, float]:
    """RK4 over one flow interval; x feeds xi but not vice versa.

    x' = (r - x)/tau is linear, so RK4 scales x - r by fixed factors: the
    stages of step n sit at r + (x0 - r)*g**n*(1, p1, p2, p3), with g the
    step factor.  g**n is taken as exp(n*log1p(g - 1)) from the absolute
    step index: g - 1 keeps the digits that rounding g to a float loses, so
    the error does not grow with n as that of a float g raised to n does.
    """
    h = dt / n_steps
    r, e0 = plant.r, x0 - plant.r
    z = -h / plant.tau
    p1 = 1.0 + 0.5 * z
    p2 = 1.0 + 0.5 * z * p1
    p3 = 1.0 + z * p2
    log_g = math.log1p(z / 6.0 * (1.0 + 2.0 * p1 + 2.0 * p2 + p3))
    factors = np.array([[1.0], [p1], [p2], [p3]])
    stage_sums = np.zeros(4)
    for start in range(0, n_steps, BLOCK):
        n = _STEP_INDEX[: min(BLOCK, n_steps - start)] + start
        stages = factors * (e0 * np.exp(n * log_g))
        stages += r
        np.clip(stages, 0.0, x_sat, out=stages)
        stage_sums += stages.sum(axis=1)
    xi = xi0 + h / 6.0 * float(_RK4_WEIGHTS @ stage_sums)
    return r + e0 * math.exp(n_steps * log_g), xi


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
    n_ticks, remainder = scenario.horizon_ticks()
    since_fire = 0  # whole ticks since the last pellet, or since t = 0

    for k in range(1, n_ticks + 1):
        x, xi = integrate_flow_rk4(x, xi, t_c, plant, x_sat, n_sub)
        xi = max(0.0, xi)
        since_fire += 1
        outcome = tick_jump(HybridState(x, xi), since_fire, plant, controller, actuator)
        ts += [t_c * k, t_c * k]
        js += [k - 1, k]
        xs += [x, outcome.state_after.x]
        xis += [xi, outcome.state_after.xi]
        fired += [False, outcome.fired]
        x, xi = outcome.state_after.x, outcome.state_after.xi
        if outcome.fired:
            since_fire = 0

    if remainder > 0.0:
        n_tail = max(1, round(n_sub * remainder / t_c))
        x, xi = integrate_flow_rk4(x, xi, remainder, plant, x_sat, n_tail)
        ts.append(scenario.t_end)
        js.append(n_ticks)
        xs.append(x)
        xis.append(max(0.0, xi))
        fired.append(False)

    return Trajectory(ts, js, xs, xis, fired, plant, controller, actuator)
