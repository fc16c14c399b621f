"""Tick-driven hybrid simulation.

The engine alternates closed-form flow over one tick period with the
controller's jump map, recording the hybrid time domain.  Tick times are
always computed as k*t_c from the integer tick index, never by accumulating
additions, so long horizons do not drift.

It runs in two passes.  Pass 1 is the tick recurrence, on boundary states
only: per tick one scalar flow_x/flow_xi call gives the pre-jump state, and
tick_jump the post-jump state, which starts the next tick.  Every control
decision is taken there, on the exact boundary state.  Pass 2 fills the
intermediate samples, which exist only for output fidelity: array
evaluations of flow_x_grid/flow_xi_grid over (tick start x interior offset),
one per block of about CHUNK samples, skipped at one sample per tick.  The
interior samples of a partial last interval are one more row of that grid,
and its end state at t_end is one more scalar flow_x/flow_xi call.  Both
passes fill the columns in place, so pass 1 keeps no per-tick list and the
temporaries of pass 2 stay one block in size however long the run.

The array forms are exact, not approximate: every sample is bit-identical
to the scalar flow_x/flow_xi call at the same start state and offset, as
the flow module states.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import flow
from .controllers import tick_jump
from .core import (
    CHUNK,
    ActuatorSpec,
    ControllerSpec,
    HybridState,
    PlantParams,
    Trajectory,
    ValidationError,
    Variant,
    validate,
)

# relative slack used when counting whole ticks inside a horizon
_TICK_EPS = 1e-9


class EmptyTrajectory(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """A complete, validated simulation setup."""

    plant: PlantParams
    actuator: ActuatorSpec
    controller: ControllerSpec
    x0: float
    t_end: float
    xi0: float = 0.0
    samples_per_tick: int = 10
    seed_note: str | None = None  # provenance note carried into outputs

    def __post_init__(self) -> None:
        validate(self.plant, self.actuator, self.controller)
        for name in ("x0", "xi0", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.x0 > self.plant.r:
            raise ValidationError(
                f"x0={self.x0!r} exceeds the reference r={self.plant.r!r} (n_e would be negative)"
            )
        if self.xi0 < 0.0:
            raise ValidationError("xi0 must be nonnegative")
        if not self.t_end > 0.0:
            raise ValidationError("t_end must be positive")
        if type(self.samples_per_tick) is not int or self.samples_per_tick < 1:  # nor bool
            raise ValidationError("samples_per_tick must be a positive integer")
        if not isinstance(self.seed_note, (str, type(None))):
            raise ValidationError(f"seed_note must be a string, got {self.seed_note!r}")
        # simulate holds (n_ticks + 1) x (samples_per_tick + 1) samples of 8 bytes
        if not math.isfinite(self.t_end / self.actuator.t_c) or (
                (self.horizon_ticks()[0] + 1) * (self.samples_per_tick + 1) * 8 > sys.maxsize):
            raise ValidationError(f"t_end={self.t_end!r} is too long at t_c={self.actuator.t_c!r}")

    @property
    def x_sat(self) -> float | None:
        """Integrator clipping level delta/t_c, set only for SDM_IC."""
        if self.controller.variant is Variant.SDM_IC:
            return self.controller.delta / self.actuator.t_c
        return None

    def horizon_ticks(self) -> tuple[int, float]:
        """The whole ticks in [0, t_end], and the length of the partial last
        interval after them (0.0 when there is none).  A horizon within 1e-9
        ticks of a tick ends on that tick, so no sliver of flow is left."""
        t_c = self.actuator.t_c
        n_ticks = int(math.floor(self.t_end / t_c + _TICK_EPS))
        remainder = self.t_end - t_c * n_ticks
        return n_ticks, remainder if remainder > _TICK_EPS * t_c else 0.0


def simulate(scenario: Scenario) -> Trajectory:
    """Run the scenario and record its trajectory as columns.

    Each tick contributes samples_per_tick flow samples, the last of which is
    the pre-jump state, and one post-jump sample.  Jumps occur exactly at
    t = k*t_c, one per tick, so the jump count never exceeds floor(t/t_c) + 1
    and Zeno behaviour is ruled out by construction.
    """
    plant, actuator, controller = scenario.plant, scenario.actuator, scenario.controller
    t_c = actuator.t_c
    spt = scenario.samples_per_tick
    x_sat = scenario.x_sat
    flow_x, flow_xi = flow.flow_x, flow.flow_xi
    n_ticks, remainder = scenario.horizon_ticks()

    # row i of the grids holds tick start i, its interior samples and the
    # pre-jump state of tick i+1, so the rows read in order are the samples
    x_grid, xi_grid = np.empty((n_ticks + 1, spt + 1)), np.empty((n_ticks + 1, spt + 1))

    # pass 1: the tick recurrence on boundary states, written straight into
    # the grids' first column (the initial state, then the post-jump states)
    # and last column (the pre-jump states); the pre-jump state is the flow
    # over t_c from the tick start (t_c*(spt/spt) == t_c).  The columns are
    # written through memoryviews: a float stored through one costs about
    # half a numpy scalar store.
    x_starts, xi_starts = memoryview(x_grid[:, 0]), memoryview(xi_grid[:, 0])
    x_pres, xi_pres = memoryview(x_grid[:, spt]), memoryview(xi_grid[:, spt])
    x, xi = scenario.x0, scenario.xi0
    x_starts[0], xi_starts[0] = x, xi
    fire_ticks = []
    since_fire = 0  # whole ticks since the last pellet, or since t = 0
    for k in range(1, n_ticks + 1):
        x_pre, xi_pre = flow_x(x, t_c, plant), flow_xi(x, xi, t_c, plant, x_sat)
        x_pres[k - 1], xi_pres[k - 1] = x_pre, xi_pre
        since_fire += 1
        outcome = tick_jump(HybridState(x_pre, xi_pre), since_fire, plant, controller, actuator)
        x, xi = outcome.state_after.x, outcome.state_after.xi
        x_starts[k], xi_starts[k] = x, xi
        if outcome.fired:
            fire_ticks.append(k)
            since_fire = 0

    # a partial last interval: the interior samples that fit, then t_end
    offsets = [t_c * (m / spt) for m in range(1, spt)]  # interior flow times
    tail = remainder > 0.0
    n_tail = sum(dt < remainder - _TICK_EPS * t_c for dt in offsets)

    # pass 2: the interior samples
    rows = n_ticks + (n_tail > 0) if offsets else 0  # interior samples only when spt > 1
    step = max(1, CHUNK // spt)  # tick rows per block: about CHUNK samples
    for lo in range(0, rows, step):
        block = slice(lo, min(lo + step, rows))
        x0s, xi0s = x_grid[block, 0], xi_grid[block, 0]
        x_grid[block, 1:spt] = flow.flow_x_grid(x0s, offsets, plant)
        xi_grid[block, 1:spt] = flow.flow_xi_grid(x0s, xi0s, offsets, plant, x_sat)

    # row i of the grids is at t = t_c*(i + m/spt) and j = i for m = 0..spt
    t_grid = np.add.outer(np.arange(n_ticks + 1), np.arange(spt + 1) / spt)
    t_grid *= t_c
    if tail:  # the last sample, at t_end
        x_grid[-1, n_tail + 1] = flow_x(x, remainder, plant)
        xi_grid[-1, n_tail + 1] = flow_xi(x, xi, remainder, plant, x_sat)
        t_grid[-1, n_tail + 1] = scenario.t_end
    n_samples = n_ticks * (spt + 1) + 1 + (n_tail + 1 if tail else 0)

    fired = np.zeros(n_samples, dtype=bool)
    fired[np.array(fire_ticks, dtype=np.int64) * (spt + 1)] = True
    return Trajectory(
        t=t_grid.ravel()[:n_samples],
        j=np.repeat(np.arange(n_ticks + 1), spt + 1)[:n_samples],
        x=x_grid.ravel()[:n_samples],
        xi=xi_grid.ravel()[:n_samples],
        fired=fired,
        plant=plant, controller=controller, actuator=actuator,
    )


def steady_state_window(traj: Trajectory) -> int:
    """The first row of the steady-state window, the trailing half of the run:
    the first row with t >= t_end/2 (the rows are in time order)."""
    if len(traj) == 0:
        raise EmptyTrajectory("cannot take a steady-state window of an empty trajectory")
    return int(np.searchsorted(traj.t, traj.t_end * 0.5))
