"""Independent fixed-step integrator used to cross-validate the engine.

Classical fourth-order Runge-Kutta on (x, xi) between ticks, and at each
tick boundary this module's own jump map, written from the model equations
on plain floats: nothing here calls the engine's controllers, so the check
shares neither the flow integration nor the jump logic with what it checks.
The RK4 stages that feed xi are summed in closed form over each run of
steps that the clipping treats alike, so an interval costs O(1) without
clipping; with it, a run boundary costs the step guessed from the real
crossing plus a check of the step before it, and a bisection of
O(log n_steps) only where that guess misses, whatever the step count.
Kinks of the clipped integrator input are handled only by taking enough
steps; no event localization is attempted.  Not for production use.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .core import PlantParams, Trajectory, Variant
from .engine import Scenario

MIN_SUBSTEPS = 100
# a pellet fires once xi reaches the threshold less this relative slack: a
# clipped integrator saturated for a whole tick gains exactly one threshold,
# and the slack keeps that decision on the firing side however it rounds
FIRING_SLACK = 1e-9
# Taylor coefficients 1/k! of (e**y - 1 - y)/y**2 = sum(y**(k - 2)/k!), k = 16
# down to 2; 15 terms reach double precision for |y| <= 0.5
_PHI_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(16, 1, -1))


class StepTooCoarse(ValueError):
    pass


def _phi(y: float) -> float:
    """(e**y - 1 - y)/y**2, without its cancellation at small |y|."""
    if abs(y) > 0.5:
        return (math.expm1(y) - y) / (y * y)
    c16, c15, c14, c13, c12, c11, c10, c9, c8, c7, c6, c5, c4, c3, c2 = _PHI_TAYLOR
    return (((((((((((((c16 * y + c15) * y + c14) * y + c13) * y + c12) * y + c11) * y + c10)
            * y + c9) * y + c8) * y + c7) * y + c6) * y + c5) * y + c4) * y + c3) * y + c2


def _first_reached(p: float, e0: float, r: float, log_g: float, level: float,
                   lo: int, hi: int, guess: float | None = None) -> int:
    """Smallest n in [lo, hi] at which the stage p*(e0*g**n) + r, rising in
    n, has reached level, which it has at hi: ceil(guess) when the stage
    reaches level there and not one step before, else by bisection.  The
    guess defaults to the real crossing."""
    if guess is None:
        ratio = (level - r) / (p * e0)  # g**n at the real crossing
        guess = math.log(ratio) / log_g if ratio > 0.0 else math.nan
    n = first = math.ceil(guess) if lo < guess < hi else lo
    while lo < hi:
        if p * (e0 * math.exp(n * log_g)) + r >= level:
            hi = n
        else:
            lo = n + 1
        # the step before a first probe that reached level, then bisection
        n = n - 1 if n == hi == first else (lo + hi) // 2
    return lo


class _Steps(NamedTuple):
    """The RK4 constants of one interval length and step count."""

    h: float
    log_g: float        # log of the step factor g
    g_minus_1: float
    phi_step: float     # _phi(log_g)
    stages: tuple       # (RK4 weight, p_k, p_k - 1) for each stage
    p_range: tuple      # (min, max) of p_k
    weighted_p: float   # sum of weight*p_k
    weighted_p_minus_1: float
    g_last: float       # g**(n_steps - 1)
    g_end: float        # g**n_steps
    h_excess: float     # _h_expm1_sum over all n_steps


def _h_expm1_sum(m: int, h: float, log_g: float, g_minus_1: float, phi_step: float) -> float:
    """h*sum(g**j - 1 for j < m), that is h*((g**m - 1)/(g - 1) - m),
    without its cancellation."""
    if g_minus_1 == 0.0:
        return 0.0
    return h * m * log_g * (log_g / g_minus_1) * (m * _phi(m * log_g) - phi_step)


@functools.lru_cache(maxsize=16)
def _rk4_steps(dt: float, tau: float, n_steps: int) -> _Steps:
    """x' = (r - x)/tau is linear, so RK4 scales x - r by fixed factors: the
    stages of step n sit at r + (x0 - r)*g**n*(1, p1, p2, p3), with g the
    step factor.  g**n is taken as exp(n*log1p(g - 1)) from the absolute
    step index: g - 1 keeps the digits that rounding g to a float loses, so
    the error does not grow with n as that of a float g raised to n does.
    Every tick of a run shares these.  Raises StepTooCoarse where g > 1,
    as the steps would then grow x - r without bound."""
    h = dt / n_steps
    z = -h / tau
    p1 = 1.0 + 0.5 * z
    p2 = 1.0 + 0.5 * z * p1
    p3 = 1.0 + z * p2
    weights = 1.0 + 2.0 * p1 + 2.0 * p2 + p3
    g_minus_1 = z / 6.0 * weights  # z + z**2/2 + z**3/6 + z**4/24
    # g > 0 for any real z, so |g| <= 1 is g - 1 <= 0: RK4's stability
    # interval, h <= 2.785*tau (Hairer & Wanner, Solving ODEs II, IV.2)
    if not g_minus_1 <= 0.0:  # also for NaN, where h/tau is inf
        raise StepTooCoarse(f"RK4 steps of {h!r} s are {h / tau:.4g} tau, past RK4's stability "
                            f"limit of about 2.785 tau (step factor {1.0 + g_minus_1!r}); "
                            "take more steps per tick")
    log_g = math.log1p(g_minus_1)
    phi_step = _phi(log_g)
    return _Steps(
        h, log_g, g_minus_1, phi_step,
        stages=((1.0, 1.0, 0.0), (2.0, p1, 0.5 * z), (2.0, p2, 0.5 * z * p1), (1.0, p3, z * p2)),
        p_range=(min(1.0, p1, p2, p3), max(1.0, p1, p2, p3)),
        weighted_p=weights,
        weighted_p_minus_1=z * (1.0 + p1 + p2),
        g_last=math.exp((n_steps - 1) * log_g),
        g_end=math.exp(n_steps * log_g),
        h_excess=_h_expm1_sum(n_steps, h, log_g, g_minus_1, phi_step),
    )


def integrate_flow_rk4(
    x0: float,
    xi0: float,
    dt: float,
    plant: PlantParams,
    x_sat: float | None,
    n_steps: int,
) -> tuple[float, float]:
    """RK4 over one flow interval; x feeds xi but not vice versa.

    x follows r + (x0 - r)*g**n (_rk4_steps).  xi sums the RK4 stages
    clipped to [0, x_sat].  Each stage is monotone in n, so the clipping
    splits the steps into at most three runs: constant 0, unclipped, and
    constant x_sat.  Their boundaries are guessed from the real crossing
    and checked, or bisected for on a miss (_first_reached), and an
    unclipped run is a geometric sum.  An interval without clipping costs
    O(1) for all four stages together, one with clipping two stage values
    per run boundary, or O(log n_steps) on a miss.  The result is the
    fixed-step RK4 solution, not the exact flow: where a stage meets 0 or
    x_sat inside a step, only the step count bounds the error of its kink.
    """
    (h, log_g, g_minus_1, phi_step, stages, (p_min, p_max), weighted_p,
     weighted_p_minus_1, g_last, g_end, h_excess) = _rk4_steps(dt, plant.tau, n_steps)
    r, e0 = plant.r, x0 - plant.r
    x_end = r + e0 * g_end

    # Stage k of step n is r*(1 - P_k*g**n), with P_k = p_k*(1 - q) and
    # q = x0/r.  The sums below start from P_k - 1 = (p_k - 1)*(1 - q) - q
    # and from sum(g**j - 1), so that none cancels where a stage nears 0, as
    # m*r + (x0 - r)*p_k*(g**m - 1)/(g - 1) would.  Each is scaled by h
    # before it can overflow.
    q = x0 / r
    rho = 1.0 - q
    top = math.inf if x_sat is None else x_sat
    e_last = e0 * g_last
    # stage values are linear in p_k: the extreme ones bound the rest
    ends = (p_min * e0 + r, p_max * e0 + r, p_min * e_last + r, p_max * e_last + r)
    if min(ends) >= 0.0 and max(ends) <= top:
        # no clipping: the four stages' sums in one expression
        h_total = -r * (h * n_steps * (rho * weighted_p_minus_1 - 6.0 * q)
                        + rho * weighted_p * h_excess)
        return x_end, xi0 + h_total / 6.0

    last = n_steps - 1
    h_total = 0.0
    runs: dict[tuple[int, int], tuple[float, float, float]] = {}
    for weight, p, p_minus_1 in stages:
        v0, v1 = p * e0 + r, p * e_last + r
        rising = v0 <= v1  # rising: clipped at 0, unclipped, clipped at x_sat
        # the first steps at which the stage reaches the near end of [0, x_sat],
        # then the far one, n_steps if never; a falling stage is searched as
        # its negation, which rounds alike
        if rising:
            sp, sr, near, far = p, r, 0.0, top
        else:
            sp, sr, near, far, v0, v1 = -p, -r, -top, 0.0, -v0, -v1
        start = 0 if v0 >= near else n_steps if v1 < near else (
            _first_reached(sp, e0, sr, log_g, near, 1, last))
        stop = start if v0 >= far else n_steps if v1 < far else (
            _first_reached(sp, e0, sr, log_g, far, start or 1, last))
        n_sat = n_steps - stop if rising else start
        if n_sat:
            h_total += weight * x_sat * (h * n_sat)
        if stop > start:
            w, wp, wd = runs.get((start, stop), (0.0, 0.0, 0.0))
            runs[start, stop] = (w + weight, wp + weight * p, wd + weight * p_minus_1)
    # the stages that share an unclipped run are summed together, from the
    # weighted sums of p_k and p_k - 1 over them
    for (start, stop), (w, wp, wd) in runs.items():
        # P*g**start and P*g**start - 1: the run written from its first step
        big_p, big_p_minus_1 = wp * rho, wd * rho - w * q
        if start:
            grown = big_p * math.expm1(start * log_g)
            big_p, big_p_minus_1 = big_p + grown, big_p_minus_1 + grown
        m = stop - start
        h_sum = _h_expm1_sum(m, h, log_g, g_minus_1, phi_step)
        h_total -= r * (h * m * big_p_minus_1 + big_p * h_sum)
    return x_end, xi0 + h_total / 6.0


class Jump(NamedTuple):
    """The state after a tick's jump, and whether a pellet fired there."""

    x: float
    xi: float
    fired: bool


def tick_jump(x: float, xi: float, since_fire: int, l: int, threshold: float, delta: float,
              alpha: float, variant: Variant) -> Jump:
    """The jump map at the tick boundary (x, xi), since_fire whole ticks
    after the last pellet (or since t = 0).

    A pellet fires once xi has reached threshold, which is delta less
    FIRING_SLACK of it, and at least l ticks have passed.  It takes alpha
    off x and resets xi: to 0 under NM, to max(0, xi - delta) under SDM and
    SDM_IC, and under SDM_JM to what is left of xi after its whole multiples
    of delta, which fmod takes exactly; in the slack band below delta there
    is no whole multiple, and xi resets to 0.
    """
    if not (xi >= threshold and since_fire >= l):
        return Jump(x, xi, False)
    if variant is Variant.NM:
        xi = 0.0
    elif variant is Variant.SDM_JM:
        xi = math.fmod(xi, delta) if xi >= delta else 0.0
    else:
        xi = max(0.0, xi - delta)
    return Jump(x - alpha, xi, True)


def simulate_numeric(scenario: Scenario, n_steps: int) -> Trajectory:
    """Numerically integrated counterpart of engine.simulate, at n_steps RK4
    steps per tick.

    Records the initial state and the pre/post states of every tick (the
    only points the comparison needs); intermediate substeps are not kept.
    """
    plant, actuator, controller = scenario.plant, scenario.actuator, scenario.controller
    t_c = actuator.t_c
    if n_steps < MIN_SUBSTEPS:
        raise StepTooCoarse(f"need at least {MIN_SUBSTEPS} substeps per tick, got {n_steps}")
    if n_steps > sys.float_info.max:  # t_c / n_steps would overflow
        raise StepTooCoarse(f"need at most {sys.float_info.max!r} substeps per tick")
    if not t_c / n_steps > 0.0:
        raise StepTooCoarse(f"{n_steps} substeps of t_c={t_c!r} are too short for a float step")
    x_sat = scenario.x_sat
    # the jump map's constants, the same at every tick
    l, alpha, delta, variant = (actuator.prep_ticks(), plant.alpha, controller.delta,
                                controller.variant)
    threshold = delta * (1.0 - FIRING_SLACK)

    n_ticks, remainder = scenario.horizon_ticks()
    # rounded up, so the tail's step is no longer than the tick's; remainder < t_c
    # keeps the count at most n_steps, where n_steps * remainder may overflow
    n_tail = max(1, math.ceil(n_steps * (remainder / t_c)))
    # both step lengths inside RK4's stability interval, before any tick runs
    # (the tail's too: rounding may still leave its step a hair past the tick's)
    _rk4_steps(t_c, plant.tau, n_steps)
    if remainder > 0.0:
        _rk4_steps(remainder, plant.tau, n_tail)
    # row 0 is the initial state, rows 2k - 1 and 2k the pre- and post-jump
    # states of tick k, and a partial last interval adds one more row
    rows = 2 * n_ticks + 1 + (remainder > 0.0)
    x, xi = scenario.x0, scenario.xi0
    xs, xis, fired = [x] * rows, [xi] * rows, [False] * rows
    since_fire = 0  # whole ticks since the last pellet, or since t = 0

    for i in range(1, 2 * n_ticks, 2):
        x, xi = integrate_flow_rk4(x, xi, t_c, plant, x_sat, n_steps)
        xi = max(0.0, xi)
        since_fire += 1
        xs[i], xis[i] = x, xi
        x, xi, jumped = tick_jump(x, xi, since_fire, l, threshold, delta, alpha, variant)
        xs[i + 1], xis[i + 1] = x, xi
        if jumped:
            fired[i + 1] = True
            since_fire = 0

    if remainder > 0.0:
        x, xi = integrate_flow_rk4(x, xi, remainder, plant, x_sat, n_tail)
        xs[-1], xis[-1] = x, max(0.0, xi)

    # row i is at tick ceil(i/2), after floor(i/2) jumps
    row = np.arange(rows)
    ts, js = t_c * ((row + 1) // 2), row // 2
    if remainder > 0.0:
        ts[-1] = scenario.t_end
    return Trajectory(ts, js, xs, xis, fired, plant, controller, actuator)
