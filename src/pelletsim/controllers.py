"""Tick decisions: the jump map applied at every tick, t = k*t_c.

Every tick is a jump.  If the membrane potential is below threshold, or
the preparation gate is still closed, the state carries over unchanged.
Otherwise a pellet fires: the error drops by alpha and the membrane resets
according to the variant.  SDM_JM keeps the remainder of xi after its whole
multiples of delta, which fmod gives exactly and without the quotient
xi/delta, so it holds where that quotient leaves the float range.

Pellets fire only at ticks, so the model's clocks hold whole multiples of
t_c at every jump and are not part of the state here.  The gate counts in
whole ticks, as the certificate does: the caller passes ``since_fire``,
the ticks since the last pellet (or since t = 0), and a pellet may fire
once ``since_fire >= l`` with ``l = ActuatorSpec.prep_ticks()``.  Without a
gate l is 1, which every tick meets.  Counting with integers keeps rounding
out of the gate: seven 3 ms ticks summed as floats fall just short of
0.021 s, but seven ticks are seven ticks.

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

FIRING_SLACK = 1e-9


@dataclass(frozen=True)
class JumpOutcome:
    state_after: HybridState
    fired: bool


def tick_jump(
    state: HybridState,
    since_fire: int,
    plant: PlantParams,
    controller: ControllerSpec,
    actuator: ActuatorSpec,
) -> JumpOutcome:
    """Apply the jump map to the boundary state of a tick, ``since_fire``
    whole ticks after the last pellet.

    Pure function: identical inputs give identical outcomes.  The error
    either stays put or drops by exactly alpha; nothing else can happen
    to x at a jump.
    """
    delta = controller.delta
    fires = state.xi >= delta * (1.0 - FIRING_SLACK) and since_fire >= actuator.prep_ticks()
    if not fires:
        return JumpOutcome(state, fired=False)

    if controller.variant is Variant.NM:
        xi_after = 0.0
    elif controller.variant is Variant.SDM_JM:
        # the slack band just under delta holds no whole multiple
        xi_after = math.fmod(state.xi, delta) if state.xi >= delta else 0.0
    else:  # SDM and SDM_IC subtract a single threshold
        xi_after = max(0.0, state.xi - delta)
    return JumpOutcome(HybridState(state.x - plant.alpha, xi_after), fired=True)
