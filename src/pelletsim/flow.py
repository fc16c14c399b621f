"""Closed-form flow between actuator ticks.

During flow the error relaxes toward the reference,

    x(t) = r - e^(-t/tau) * (r - x0),

and the membrane potential integrates ``max(0, x)`` (optionally clipped at
a saturation level ``x_sat``).  Both integrals have exp/log closed forms,
so the engine never steps an ODE: the crossing times of x = 0 and
x = x_sat are computed exactly and the membrane increment is assembled
piecewise.  This makes trajectories bit-reproducible across runs and
platforms, up to floating-point determinism.

Because x is monotone during flow, each crossing occurs at most once per
interval, so an interval has at most two breakpoints.

``flow_x_grid`` and ``flow_xi_grid`` evaluate the same closed forms at every
(start state, offset) pair at once, bit-identical to the scalar functions:
each arithmetic step is one elementwise numpy operation in the scalar
expression's order, each branch an ``np.where`` in the scalar branch order,
and each transcendental goes through the same ``math`` function (mapped over
a list), since numpy's own ``expm1``/``log`` may round differently.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import PlantParams

# crossing times closer than this fraction of tau to either interval end are
# snapped onto the end to avoid zero-length pieces
BOUNDARY_SNAP = 1e-15


def flow_x(x0: float, dt: float, plant: PlantParams) -> float:
    """Error after flowing dt seconds from x0.  Total for dt >= 0, x0 <= r;
    the result never exceeds r and is nondecreasing in dt for x0 < r."""
    # x0 - (r - x0)*expm1(-dt/tau) is exact at dt=0 and keeps precision when
    # x0 is close to r; once expm1 rounds to -1 the sum can land an ulp
    # above r, so cap it there
    x = x0 - (plant.r - x0) * math.expm1(-dt / plant.tau)
    return x if x <= plant.r else plant.r


def zero_crossing_time(x0: float, plant: PlantParams) -> float | None:
    """Time for the error to reach 0 from x0, None if it never does (x0 > 0)."""
    if x0 > 0.0:
        return None
    if x0 == 0.0:
        return 0.0
    return plant.tau * math.log1p(-x0 / plant.r)


def sat_crossing_time(x0: float, x_sat: float, plant: PlantParams) -> float | None:
    """Time for the error to climb from x0 to x_sat, 0 if already there,
    None if x_sat >= r (the flow limit) so it is never reached."""
    if x0 >= x_sat:
        return 0.0
    if x_sat >= plant.r:
        return None
    return plant.tau * math.log((plant.r - x0) / (plant.r - x_sat))


def _snap(t: float, duration: float, tau: float) -> float:
    eps = BOUNDARY_SNAP * tau
    if t <= eps:
        return 0.0
    if t >= duration - eps:
        return duration
    return t


def _positive_increment(x_a: float, span: float, plant: PlantParams) -> float:
    # integral of x over a span starting at x_a >= 0:
    #   r*span + tau*(x_a - r)*(1 - e^(-span/tau))
    # the two terms nearly cancel for very short spans; the true value is
    # nonnegative, so clamp the rounded sum
    inc = plant.r * span + plant.tau * (plant.r - x_a) * math.expm1(-span / plant.tau)
    return max(0.0, inc)


def flow_xi(
    x0: float,
    xi0: float,
    dt: float,
    plant: PlantParams,
    x_sat: float | None = None,
) -> float:
    """Membrane potential after flowing dt seconds.

    Integrates max(0, x) piecewise-analytically, or its clipped version when
    ``x_sat`` is given.  The result is never below xi0 and is exactly xi0
    while x stays negative.  The x value at a piece start is pinned to the
    crossing level (0 or x_sat) instead of re-evaluated, so rounding residue
    at a kink cannot leak a negative sliver into the integral.
    """
    if dt <= 0.0:
        return xi0

    t_pos, x_pos = 0.0, x0
    if x0 < 0.0:
        t0 = _snap(zero_crossing_time(x0, plant), dt, plant.tau)
        if t0 >= dt:
            return xi0  # negative throughout
        t_pos, x_pos = t0, 0.0

    if x_sat is None:
        return xi0 + _positive_increment(x_pos, dt - t_pos, plant)
    if x_pos >= x_sat:
        return xi0 + x_sat * (dt - t_pos)

    ts = sat_crossing_time(x_pos, x_sat, plant)
    if ts is None:
        return xi0 + _positive_increment(x_pos, dt - t_pos, plant)
    ts = _snap(t_pos + ts, dt, plant.tau)
    if ts <= t_pos:
        return xi0 + x_sat * (dt - t_pos)
    if ts >= dt:
        return xi0 + _positive_increment(x_pos, dt - t_pos, plant)
    return xi0 + _positive_increment(x_pos, ts - t_pos, plant) + x_sat * (dt - ts)


# --- array forms: the functions above at every (start, offset) pair ----------

def _mapped(fn: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """fn of every element, through Python's math library."""
    return np.array(list(map(fn, a.ravel().tolist())), dtype=float).reshape(a.shape)


def _snap_grid(t: np.ndarray, duration: np.ndarray, tau: float) -> np.ndarray:
    eps = BOUNDARY_SNAP * tau
    return np.where(t <= eps, 0.0, np.where(t >= duration - eps, duration, t))


def _positive_increment_grid(x_a: np.ndarray, span: np.ndarray, used: np.ndarray,
                             plant: PlantParams) -> np.ndarray:
    """_positive_increment at the lanes where `used`, and 0.0 at the others,
    whose increment the caller discards: expm1 runs on the used lanes only."""
    x_a, span = np.broadcast_to(x_a, used.shape)[used], span[used]
    inc = plant.r * span + plant.tau * (plant.r - x_a) * _mapped(math.expm1, -span / plant.tau)
    out = np.zeros(used.shape)
    out[used] = np.where(inc > 0.0, inc, 0.0)  # max(0.0, inc)
    return out


def flow_x_grid(x0: np.ndarray, dts: Sequence[float], plant: PlantParams) -> np.ndarray:
    """flow_x(x0[i], dts[m], plant) at row i, column m, bit for bit."""
    c = np.array([math.expm1(-dt / plant.tau) for dt in dts])
    x0 = np.asarray(x0, dtype=float)[:, None]
    x = x0 - (plant.r - x0) * c
    return np.where(x <= plant.r, x, plant.r)


def flow_xi_grid(
    x0: np.ndarray,
    xi0: np.ndarray,
    dts: Sequence[float],
    plant: PlantParams,
    x_sat: float | None = None,
) -> np.ndarray:
    """flow_xi(x0[i], xi0[i], dts[m], plant, x_sat) at row i, column m, bit
    for bit, for offsets dts[m] > 0.  The crossing times are computed once
    per row; the branches of flow_xi are taken per element, in its order."""
    r, tau = plant.r, plant.tau
    x0 = np.asarray(x0, dtype=float)
    xi0 = np.asarray(xi0, dtype=float)[:, None]
    dt = np.array(dts, dtype=float)

    # the piece where x >= 0 starts at t_pos, from x_pos
    below = x0 < 0.0
    t_zero = np.zeros_like(x0)
    t_zero[below] = tau * _mapped(math.log1p, -x0[below] / r)
    t0 = _snap_grid(t_zero[:, None], dt, tau)
    negative = below[:, None] & (t0 >= dt)  # negative throughout
    t_pos = np.where(below[:, None], t0, 0.0)
    x_pos = np.where(below, 0.0, x0)[:, None]

    span = dt - t_pos
    if x_sat is None:
        inc = _positive_increment_grid(x_pos, span, ~negative, plant)
        return np.where(negative, xi0, xi0 + inc)
    saturated = x_pos >= x_sat  # at x_sat from the piece start
    if x_sat >= r:  # never reached from below
        inc = _positive_increment_grid(x_pos, span, ~(negative | saturated), plant)
        return np.select([negative, saturated], [xi0, xi0 + x_sat * span], xi0 + inc)

    t_sat = np.zeros_like(x_pos)
    t_sat[~saturated] = tau * _mapped(math.log, (r - x_pos[~saturated]) / (r - x_sat))
    ts = _snap_grid(t_pos + t_sat, dt, tau)
    clipped = saturated | (ts <= t_pos)
    unclipped = ts >= dt  # x_sat not reached within dt
    kink = ~(negative | clipped | unclipped)
    span_inc = np.where(kink, ts, dt) - t_pos  # up to the kink where x_sat is reached
    inc = _positive_increment_grid(x_pos, span_inc, ~(negative | clipped), plant)
    return np.select([negative, clipped, unclipped], [xi0, xi0 + x_sat * span, xi0 + inc],
                     xi0 + inc + x_sat * (dt - ts))
