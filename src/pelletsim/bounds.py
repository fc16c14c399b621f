"""Closed-form tuning constraints and ultimate-bound envelopes.

For a reset-family controller (NM, SDM_JM) on a plant with contraction
factor gamma = (r - alpha)/r, the tick period must satisfy
t_c <= tau_d := tau*ln(r/(r - alpha)) and the threshold must lie in
(0, delta_max(t_c)]; the error then stays inside a decaying envelope and
ultimately inside (-alpha, alpha].  Input clipping (SDM_IC) needs an
actuator twice as fast for the same ultimate bound, but with a near-zero
threshold a slower actuator (t_c <= tau_d) still yields the wider
steady-state bound (-alpha, alpha*(2 - alpha/r)].  A preparation time
t_prep stretches every constraint by l = ceil(t_prep/t_c) ticks.

Plain SDM gets no certificate: its integrator wind-up makes the
controller use every launch slot until the residue is worked off,
ignoring the reference, so no bound can be guaranteed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Y_PAST_LIMITS,
    ActuatorSpec,
    Certificate,
    ControllerSpec,
    PlantParams,
    Variant,
    r_max,
    validate,
)
from .flow import flow_x, flow_x_grid

# a clipping level below this fraction of alpha is treated as a near-zero
# threshold, which is what the widened slow-actuator bound is proven for
_NEAR_ZERO_SAT = 1e-6


def tc_max(plant: PlantParams, variant: Variant, l: int = 1) -> float:
    """Largest admissible tick period for the variant.

    Reset-family controllers admit tau_d/l (closed end); input clipping
    admits tau_d/2, with the endpoint itself excluded.
    """
    if variant is Variant.SDM_IC:
        return plant.tau_d / 2.0
    return plant.tau_d / max(l, 1)


def delta_max(plant: PlantParams, t_c: float, variant: Variant, l: int = 1) -> float:
    """Upper end of the admissible threshold range (may be <= 0 when the
    tick period is too long, meaning the range is empty).  Far past every
    tick limit (Y_PAST_LIMITS) it is 0.0, the empty range."""
    r, tau = plant.r, plant.tau
    t_eff = 2.0 * t_c if variant is Variant.SDM_IC else max(l, 1) * t_c
    if t_eff / tau > Y_PAST_LIMITS:
        return 0.0
    if variant is Variant.SDM_IC:
        return (r - (r - plant.alpha) * math.exp(t_eff / tau)) * t_c
    return (
        r * tau * math.log(r / (r - plant.alpha))
        - r * tau * (1.0 - plant.gamma * math.exp(t_eff / tau))
        - r * t_eff
    )


def envelope(t, x0: float, plant: PlantParams):
    """Certified (lower, upper) error bounds at time t, a float or an array
    of times; the lower bound is exclusive, the upper inclusive.  The bound
    that depends on t has the shape of t, the other is a float.

    For x0 > 0 the upper bound decays geometrically per dwell interval and
    converges to alpha; for x0 <= 0 the lower bound follows the open-loop
    climb until it passes -alpha.
    """
    if x0 > 0.0:
        upper = plant.gamma ** (t / plant.tau_d - 1.0) * x0 + plant.alpha
        return (-plant.alpha, upper)
    if np.ndim(t):
        climb = flow_x_grid(np.array([x0]), t, plant)[0]
        return (np.minimum(climb, -plant.alpha), plant.alpha)
    return (min(flow_x(x0, t, plant), -plant.alpha), plant.alpha)


def ub_ic_slow(plant: PlantParams) -> float:
    """Steady-state upper bound alpha*(2 - alpha/r) for input clipping with a
    near-zero threshold on an actuator no faster than the reset family needs."""
    return plant.alpha * (2.0 - plant.alpha / plant.r)


def certify(
    plant: PlantParams, actuator: ActuatorSpec, controller: ControllerSpec
) -> Certificate:
    """Evaluate every applicable tuning condition and assemble the verdict.

    An infeasible certificate never blocks simulation; it just records that
    no bound is guaranteed for the configuration.
    """
    validate(plant, actuator, controller)
    l = actuator.prep_ticks()
    variant, t_c, delta = controller.variant, actuator.t_c, controller.delta
    tcm, dm = tc_max(plant, variant, l), delta_max(plant, t_c, variant, l)
    bound, scope, reason = (-plant.alpha, plant.alpha), "trajectory", ""

    if variant is Variant.SDM:
        feasible = False
        reason = "plain sigma-delta is subject to integrator wind-up; no bound is guaranteed"
    elif variant is not Variant.SDM_IC:
        # reset family: NM and SDM_JM share identical conditions and bounds
        prep_ok = actuator.t_prep <= plant.tau_d
        feasible = prep_ok and t_c <= tcm and 0.0 < delta <= dm
        if not prep_ok:
            reason = "preparation time exceeds the certified dwell bound"
        elif not feasible:
            reason = "tick period or threshold outside the certified range"
    elif l > 1:
        feasible = False
        reason = ("input clipping combined with a multi-tick preparation time is "
                  "not a certified configuration")
    elif t_c < tcm and 0.0 < delta <= dm:
        feasible = True
    else:
        # widened steady-state bound: actuator as slow as the reset family
        # allows, threshold small enough that clipping kicks in immediately
        dm_widened = _NEAR_ZERO_SAT * plant.alpha * t_c
        feasible = t_c <= plant.tau_d and 0.0 < delta <= dm_widened
        if feasible:
            tcm, dm = plant.tau_d, dm_widened
            bound, scope = (-plant.alpha, ub_ic_slow(plant)), "steady_state"
            reason = ("slow actuator with near-zero threshold: only the widened "
                      "steady-state bound is certified")
        else:
            reason = "tick period or threshold outside the certified range for input clipping"

    return Certificate(
        tc_max=tcm, delta_max=dm, tau_d=plant.tau_d, gamma=plant.gamma,
        r_max=r_max(plant, t_c, l), l=l, feasible=feasible,
        bound_interval=bound if feasible else None,
        bound_scope=scope if feasible else "none",
        reason=reason,
        nonstandard=l > 1 and variant in (Variant.SDM, Variant.SDM_IC),
    )
