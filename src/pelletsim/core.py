"""Domain types for pellet-fuelled plasma density control.

The plant is a first-order electron-density decay with confinement time
``tau``; the controlled quantity is the density error ``x = r - n_e``.
Injecting one pellet raises the density by ``alpha`` instantaneously, so
the error jumps by ``-alpha``.  A spiking controller accumulates the
(clipped) positive error in a membrane potential ``xi`` and may fire a
pellet only at actuator ticks, i.e. at integer multiples of the tick
period ``t_c``, optionally gated by a pellet preparation time ``t_prep``.

All types are immutable after construction and safe to share between
threads.  Densities are SI doubles of magnitude ~1e19; relative
comparisons elsewhere in the package are scaled by ``max(|value|, alpha)``
to avoid absolute-epsilon misuse at these magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ValidationError(ValueError):
    """A parameter set violates a model invariant."""


class RNotAboveAlpha(ValidationError):
    """Reference at or below the pellet increment: the open loop already
    converges to r on its own and pellets add nothing."""


class NonPositiveParam(ValidationError):
    """A parameter that must be positive (or nonnegative) is not."""


class Variant(str, Enum):
    """Controller variant: what happens to xi when a pellet fires.

    NM      -- integrate-and-fire reset, xi+ = 0
    SDM     -- sigma-delta residue, xi+ = xi - delta (wind-up prone)
    SDM_IC  -- sigma-delta with the integrator input clipped at delta/t_c
    SDM_JM  -- sigma-delta subtracting k*delta, k = floor(xi/delta)
    """

    NM = "NM"
    SDM = "SDM"
    SDM_IC = "SDM_IC"
    SDM_JM = "SDM_JM"


class ActuatorMode(str, Enum):
    CENTRIFUGE = "centrifuge"
    GAS_GUN = "gas_gun"


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise NonPositiveParam(f"{name} must be positive and finite, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    if value < 0.0 or not math.isfinite(value):
        raise NonPositiveParam(f"{name} must be nonnegative and finite, got {value!r}")


@dataclass(frozen=True)
class PlantParams:
    """Physics constants of the density loop."""

    tau: float    # confinement time [s]
    r: float      # reference density [particles/m^3]
    alpha: float  # density increase per pellet [particles/m^3]

    def __post_init__(self) -> None:
        _require_positive("tau", self.tau)
        _require_positive("alpha", self.alpha)
        if not math.isfinite(self.r):
            raise NonPositiveParam(f"r must be finite, got {self.r!r}")
        if self.r <= self.alpha:
            raise RNotAboveAlpha(
                f"reference r={self.r!r} must exceed pellet increment alpha={self.alpha!r}"
            )
        # the flow scales r - x by tau
        if not math.isfinite(self.tau * self.r):
            raise ValidationError(f"tau={self.tau!r} times r={self.r!r} overflows a float")

    @classmethod
    def from_pellet(cls, tau: float, r: float, m_p: float, volume: float) -> PlantParams:
        """Build from pellet particle count and plasma volume; the pair is
        collapsed to alpha = m_p / volume and not retained."""
        _require_positive("m_p", m_p)
        _require_positive("volume", volume)
        return cls(tau=tau, r=r, alpha=m_p / volume)

    @property
    def gamma(self) -> float:
        """Per-cycle contraction factor (r - alpha) / r, in (0, 1)."""
        return (self.r - self.alpha) / self.r

    @property
    def tau_d(self) -> float:
        """Certified maximum time between pellet launches, tau*ln(r/(r-alpha))."""
        return self.tau * math.log(self.r / (self.r - self.alpha))


@dataclass(frozen=True)
class ActuatorSpec:
    """Pellet launcher timing."""

    t_c: float                                   # tick (rotation/sampling) period [s]
    t_prep: float = 0.0                          # pellet preparation time [s]
    mode: ActuatorMode = ActuatorMode.CENTRIFUGE

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ActuatorMode):
            object.__setattr__(self, "mode", ActuatorMode(self.mode))
        _require_positive("t_c", self.t_c)
        _require_nonnegative("t_prep", self.t_prep)
        if self.mode is ActuatorMode.GAS_GUN and not self.t_prep > 0.0:
            # for a gas gun t_c is merely the sampling period; the physical
            # rate limit is t_prep, which therefore must be set
            raise NonPositiveParam("gas_gun mode requires t_prep > 0")
        # prep_ticks counts t_prep in whole ticks
        if not math.isfinite(self.t_prep / self.t_c):
            raise ValidationError(f"t_prep={self.t_prep!r} is too long at t_c={self.t_c!r}")

    def prep_ticks(self) -> int:
        """Minimum tick spacing l = ceil(t_prep / t_c) between pellets (1 when
        the preparation gate is disabled or shorter than one tick)."""
        if not self.t_prep > 0.0:
            return 1
        # shave float noise so an exact multiple does not round up
        return max(1, math.ceil(self.t_prep / self.t_c - 1e-9))


@dataclass(frozen=True)
class ControllerSpec:
    """Spiking controller configuration."""

    variant: Variant
    delta: float  # firing threshold in accumulated-error units [particles*s/m^3]

    def __post_init__(self) -> None:
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))
        _require_positive("delta", self.delta)


@dataclass(frozen=True)
class HybridState:
    """State (x, xi) between or at ticks.

    The model's clocks T (time since the last tick) and T_p (time since the
    last pellet) are not held here: at every tick they are whole multiples
    of t_c, so the jump map takes the whole ticks since the last pellet as
    an integer, and ``Trajectory.timers()`` derives T and T_p from t, j and
    the fire times.

    The bound x <= r depends on the plant and is enforced where states meet a
    plant: at scenario construction and throughout the flow, which can only
    push x toward r from below.
    """

    x: float   # density error r - n_e [particles/m^3]
    xi: float  # membrane potential [particles*s/m^3]

    def __post_init__(self) -> None:
        if self.xi < 0.0:
            raise ValidationError(f"xi must be nonnegative, got {self.xi!r}")


@dataclass(frozen=True, order=True)
class HybridTime:
    """A point (t, j) of a hybrid time domain: t seconds, j jumps so far."""

    t: float
    j: int

    def __post_init__(self) -> None:
        if self.t < 0.0 or self.j < 0:
            raise ValidationError("hybrid time components must be nonnegative")


@dataclass(frozen=True)
class TrajectorySample:
    time: HybridTime
    state: HybridState
    fired: bool = False


# rows per block in the array stages after the tick loop (intra-tick
# samples, CSV, SVG): their temporaries stay a fixed size however long the run
CHUNK = 2048

# column name -> dtype, in row order
_COLUMNS = (("t", np.float64), ("j", np.int64), ("x", np.float64), ("xi", np.float64),
            ("fired", np.bool_))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples over a hybrid time domain, held as read-only numpy columns.

    Row i is the state (x[i], xi[i]) at hybrid time (t[i], j[i]); fired[i]
    marks a post-jump row at which a pellet fired.  Every tick is a jump, so
    j also counts the ticks so far.  The timers T and T_p are not stored:
    ``timers()`` derives them from t, j and the fire times.
    """

    t: np.ndarray
    j: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    fired: np.ndarray
    plant: PlantParams
    controller: ControllerSpec
    actuator: ActuatorSpec

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if not len(self.t) == len(self.j) == len(self.x) == len(self.xi) == len(self.fired):
            raise ValidationError("trajectory columns differ in length")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def t_end(self) -> float:
        return float(self.t[-1]) if len(self.t) else 0.0

    def timers(self, rows: slice = slice(None),
               last_fire: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Columns T (time since the last tick, t - j*t_c) and T_p (time
        since the last pellet, or since t = 0 before the first one), over
        `rows`; last_fire is the time of the last pellet before them."""
        t, fired = self.t[rows], self.fired[rows]
        fire_t = np.maximum.accumulate(np.where(fired, t, last_fire))
        return t - self.j[rows] * self.actuator.t_c, t - fire_t

    def jump_rows(self) -> np.ndarray:
        """Indices of the post-jump rows; row i - 1 holds the pre-jump state."""
        return np.flatnonzero(np.diff(self.j) == 1) + 1

    @property
    def samples(self) -> tuple[TrajectorySample, ...]:
        """Every row as a TrajectorySample, built afresh on each access; for
        speed, index the columns instead."""
        columns = (self.t, self.j, self.x, self.xi, self.fired)
        return tuple(
            TrajectorySample(HybridTime(t, j), HybridState(x, xi), f)
            for t, j, x, xi, f in zip(*(c.tolist() for c in columns))
        )


@dataclass(frozen=True)
class Certificate:
    """Closed-form tuning bounds plus the feasibility verdict.

    ``tc_max`` and ``delta_max`` are the limits backing *this* certificate
    (for the widened slow-actuator result they are the widened limits), so
    a feasible certificate always has t_c <= tc_max (strictly below it for
    input clipping over the trajectory) and 0 < delta <= delta_max.  The
    converse does not hold: plain SDM is never feasible, nor is input
    clipping behind a multi-tick preparation gate, nor the reset family
    when t_prep exceeds tau_d.  ``bound_scope`` records what the bound
    interval is claimed over: the whole trajectory via the decaying
    envelope, or only the steady state.
    """

    tc_max: float
    delta_max: float
    tau_d: float
    gamma: float
    r_max: float
    l: int
    feasible: bool
    bound_interval: tuple[float, float] | None = None
    bound_scope: str = "none"  # "trajectory" | "steady_state" | "none"
    reason: str = ""
    nonstandard: bool = False


# Within the tick limit that bounds.delta_max serves, y = l*t_c/tau
# (2*t_c/tau for input clipping) is at most ln(r/(r - alpha)) <= ln(2**53) =
# 36.74, so past y = 37 its range is empty; and past y = 37 r_max's
# e**y/(e**y - 1) = 1 + 1/(e**y - 1) rounds to 1, as 1/e**37 < 2**-53.
# Neither is evaluated there: e**y leaves the float range past y = 709.78,
# and math.exp and math.expm1 can each be an ulp off, so that their quotient
# could read below 1.
Y_PAST_LIMITS = 37.0


def r_max(plant: PlantParams, t_c: float, l: int = 1) -> float:
    """Highest reference the actuator can sustain with pellets of size alpha,
    alpha*e**y/(e**y - 1) with y = l*t_c/tau; expm1 keeps the digits of
    e**y - 1 where y is small, and past Y_PAST_LIMITS it is alpha, the
    value it rounds to.  validate keeps y above 0 and the result finite."""
    y = max(l, 1) * t_c / plant.tau
    if y > Y_PAST_LIMITS:
        return plant.alpha
    return math.exp(y) / math.expm1(y) * plant.alpha


def validate(plant: PlantParams, actuator: ActuatorSpec, controller: ControllerSpec) -> None:
    """Re-run the three specs' own construction checks, and the one check
    across them; raises on violation.

    Constructors already enforce their own; Scenario and certify re-run them
    as cheap insurance, without a second copy of any check.  Across them:
    the certificate's reference ceiling r_max = alpha*e**y/(e**y - 1), with
    y = l*t_c/tau, must be a float.  It divides by zero where t_c/tau rounds
    to 0, and overflows where y is so small, or alpha so large, that about
    alpha/y leaves the float range.
    """
    for spec in (plant, actuator, controller):
        spec.__post_init__()
    if not actuator.t_c / plant.tau > 0.0:
        raise ValidationError(f"t_c={actuator.t_c!r} is too short against tau={plant.tau!r}: "
                              "t_c/tau rounds to 0")
    if not math.isfinite(r_max(plant, actuator.t_c, actuator.prep_ticks())):
        raise ValidationError("the reference ceiling r_max overflows a float at "
                              f"t_c={actuator.t_c!r}, tau={plant.tau!r} and alpha={plant.alpha!r}")
