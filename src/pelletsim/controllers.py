"""Tick decisions: the jump taken when the actuator timer reaches t_c.

Every tick is a jump.  If the membrane potential is below threshold, or
the preparation gate is still closed, only the tick timer resets.
Otherwise a pellet fires: the error drops by alpha, both timers reset,
and the membrane resets according to the variant.

The gate counts in ticks, as the certificate does: at a tick boundary the
preparation timer holds a whole number of ticks, and the gate opens once
that number reaches ``ActuatorSpec.prep_ticks()``.  Comparing the timer
with t_prep as floats instead would let rounding close the gate for one
tick more on an exact multiple (7 * 0.003 sums to just under 0.021).

When xi equals the threshold exactly the decision is ambiguous in the
set-valued model; here the tie is resolved in favour of firing, since
every stability argument only needs a fire no later than the first tick
with xi >= delta.  The comparison carries a relative slack of 1e-9: a
clipped integrator saturated for a whole tick gains exactly one threshold,
which parks the decision on the tie, and the slack keeps it on the firing
side regardless of how the integral was rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ActuatorSpec, ControllerSpec, HybridState, PlantParams, Variant

TICK_TOLERANCE = 1e-12
FIRING_SLACK = 1e-9


class TickNotDue(ValueError):
    """tick_jump was called away from a tick boundary."""


@dataclass(frozen=True)
class JumpOutcome:
    state_after: HybridState
    fired: bool
    k_multiples: int = 0  # delta-multiples subtracted; 0 unless SDM_JM fires


def _split_threshold(xi: float, delta: float) -> tuple[int, float]:
    """k = floor(xi/delta) and the remainder xi - k*delta, via fmod so the
    remainder lands in [0, delta) exactly."""
    rem = math.fmod(xi, delta)
    k = round((xi - rem) / delta)
    return k, rem


def tick_jump(
    state: HybridState,
    plant: PlantParams,
    controller: ControllerSpec,
    actuator: ActuatorSpec,
) -> JumpOutcome:
    """Apply the jump map at a tick boundary.

    Pure function: identical inputs give identical outcomes.  The error
    either stays put or drops by exactly alpha; nothing else can happen
    to x at a jump.
    """
    if abs(state.t_timer - actuator.t_c) > TICK_TOLERANCE * actuator.t_c:
        raise TickNotDue(
            f"t_timer={state.t_timer!r} is not at the tick boundary t_c={actuator.t_c!r}"
        )

    delta = controller.delta
    fires = state.xi >= delta * (1.0 - FIRING_SLACK) and (
        not actuator.prep_enabled
        or round(state.t_prep_timer / actuator.t_c) >= actuator.prep_ticks()
    )
    if not fires:
        # timer-only jump: everything except T carries over
        after = HybridState(
            x=state.x, xi=state.xi, t_timer=0.0, t_prep_timer=state.t_prep_timer
        )
        return JumpOutcome(after, fired=False)

    k = 0
    if controller.variant is Variant.NM:
        xi_after = 0.0
    elif controller.variant is Variant.SDM_JM:
        k, xi_after = _split_threshold(state.xi, delta)
        if k == 0:  # fired inside the slack band just under delta
            k, xi_after = 1, 0.0
    else:  # SDM and SDM_IC subtract a single threshold
        xi_after = max(0.0, state.xi - delta)
    after = HybridState(
        x=state.x - plant.alpha, xi=xi_after, t_timer=0.0, t_prep_timer=0.0
    )
    return JumpOutcome(after, fired=True, k_multiples=k)
