"""Trajectory checks against the certified properties, plus summary metrics.

Each check returns a verdict and, on failure, a witness carrying the hybrid
time and values of the first violation.  Checks that do not apply to a
configuration (no feasible certificate, wrong variant, steady-state-only
bound) report None rather than a silent pass.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import bounds
from .core import TICK_EPS, Certificate, Trajectory, Variant
from .engine import steady_state_window

# absolute slack for density comparisons, scaled by the reference magnitude
_REL_SLACK = 1e-9

RTOL = 1e-6  # compare's default bound on the relative deviations

# the checks report() runs, in the order every report lists them
CHECKS = ("envelope", "zeno", "dwell", "contraction")

# a check's verdict as written out
_STATUS = {True: "pass", False: "fail", None: "not_applicable"}


class GridMismatch(ValueError):
    """Two trajectories do not share a tick grid."""


@dataclass(frozen=True)
class CheckWitness:
    t: float
    j: int
    value: float
    lower: float | None = None
    upper: float | None = None
    note: str = ""


def _first(bad: np.ndarray) -> int | None:
    """Index of the first True entry, None when there is none."""
    return int(np.argmax(bad)) if bad.any() else None


def certified_bound(traj: Trajectory, cert: Certificate, rows: slice = slice(None)
                    ) -> tuple[int, float | np.ndarray, float | np.ndarray]:
    """A feasible certificate's claim: the first row it bounds, and its (lower,
    upper) bound at `rows` of the rows from there on, as bounds.envelope gives
    them.  At trajectory scope that is every row, under the envelope from x[0];
    at steady_state scope the steady-state window, under the widened interval."""
    first, (lower, upper) = 0, cert.bound_interval
    if cert.bound_scope == "steady_state":
        first = steady_state_window(traj)
    else:
        lower, upper = bounds.envelope(traj.t[rows], float(traj.x[0]), traj.plant)
    return first, lower, upper


def check_envelope(traj: Trajectory, cert: Certificate) -> tuple[bool | None, CheckWitness | None]:
    """Every row the certificate bounds inside its bound (lower exclusive, upper
    inclusive), with slack 1e-9*r; below a row's lower bound under -r, 1e-9
    of that bound, as an envelope from x[0] < -r starts at x[0] itself.  Not
    applicable without a feasible one."""
    if not cert.feasible:
        return None, None
    first, lower, upper = certified_bound(traj, cert)
    x, r = traj.x[first:], traj.plant.r
    lo_eps = _REL_SLACK * np.maximum(r, np.abs(lower))
    i = _first(~((lower - lo_eps < x) & (x <= upper + _REL_SLACK * r)))
    if i is None:
        return True, None
    lower_i, upper_i = (float(np.broadcast_to(b, x.shape)[i]) for b in (lower, upper))
    note = "envelope" if cert.bound_scope == "trajectory" else "steady-state bound"
    return False, CheckWitness(float(traj.t[first + i]), int(traj.j[first + i]), float(x[i]),
                               lower_i, upper_i, note)


def check_zeno(traj: Trajectory) -> tuple[bool, CheckWitness | None]:
    """Jump counts never exceed floor(t/t_c) + 1 (minimum dwell one tick)."""
    # its own 1e-9, not core.TICK_EPS: it cross-checks the engine's tick count
    limit = np.floor(traj.t / traj.actuator.t_c + 1e-9).astype(np.int64) + 1
    i = _first(traj.j > limit)
    if i is None:
        return True, None
    j = int(traj.j[i])
    return False, CheckWitness(float(traj.t[i]), j, float(j), None, float(limit[i]))


def _cycles(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows that open a pellet cycle with positive error (the initial row and
    every post-fire row with x > 0), each with the next fire row after it
    (a tick has one post-jump row: the next fire in time), or -1 if none."""
    fire_rows = np.flatnonzero(traj.fired)
    starts = np.flatnonzero(traj.fired & (traj.x > 0.0))
    if traj.x[0] > 0.0:
        starts = np.concatenate(([0], starts))
    nxt = np.searchsorted(fire_rows, starts, side="right")
    next_fire = np.append(fire_rows, -1)[nxt]
    return starts, next_fire, next_fire >= 0


def check_dwell(traj: Trajectory, cert: Certificate) -> tuple[bool | None, CheckWitness | None]:
    """Gaps from a positive-error cycle start to the next fire stay within
    tau_d, counted in whole ticks: j[next fire] - j[start] <= tau_d/t_c.  A
    cycle with no later fire is due at tick j[-1] + 1, so it fails once the
    run has passed its last tick within tau_d without a fire.  Claimed only
    for the reset family (NM, SDM_JM) under a full certificate."""
    applicable = (
        cert.feasible
        and cert.bound_scope == "trajectory"
        and traj.controller.variant in (Variant.NM, Variant.SDM_JM)
    )
    if not applicable:
        return None, None
    limit = cert.tau_d / traj.actuator.t_c  # not floored: an infinite one holds every gap
    starts, next_fire, has_next = _cycles(traj)
    gaps = np.where(has_next, traj.j[next_fire], traj.j[-1] + 1) - traj.j[starts]
    i = _first(gaps > limit + TICK_EPS)
    if i is None:
        return True, None
    note = "ticks to the next fire" if has_next[i] else "ticks to the end without a fire"
    start = starts[i]
    return False, CheckWitness(float(traj.t[start]), int(traj.j[start]), float(gaps[i]), None,
                               limit, note)


def check_contraction(traj: Trajectory, cert: Certificate) -> tuple[bool | None, CheckWitness | None]:
    """Across one flow-plus-fire cycle starting at x > 0, the error shrinks
    by at least the factor gamma.  NM only."""
    applicable = (
        cert.feasible
        and cert.bound_scope == "trajectory"
        and traj.controller.variant is Variant.NM
    )
    if not applicable:
        return None, None
    slack = _REL_SLACK * traj.plant.r
    starts, next_fire, has_next = _cycles(traj)
    ends = next_fire[has_next]
    target = cert.gamma * traj.x[starts[has_next]]
    i = _first(traj.x[ends] > target + slack)
    if i is None:
        return True, None
    end = ends[i]
    return False, CheckWitness(float(traj.t[end]), int(traj.j[end]), float(traj.x[end]), None,
                               float(target[i]), "cycle did not contract")


def detect_windup(traj: Trajectory) -> bool:
    """Wind-up: a fire that leaves a residue xi >= delta, as plain
    sigma-delta's jump xi+ = xi - delta can; the reset, SDM_JM's fmod and
    ungated clipped input from xi0 < delta leave less than one threshold."""
    return bool(np.any(traj.xi[traj.fired] >= traj.controller.delta))


@dataclass(frozen=True)
class FireMismatch:
    tick: int
    t: float
    fired_a: bool
    fired_b: bool


@dataclass(frozen=True)
class ComparisonResult:
    max_rel_x: float
    max_rel_xi: float
    fire_mismatch: FireMismatch | None
    n_ticks: int
    rtol: float
    passed: bool


def compare(traj_a: Trajectory, traj_b: Trajectory, rtol: float = RTOL) -> ComparisonResult:
    """Maximum relative deviation of the pre-jump tick states, scaled by
    max(|value|, alpha), plus the first fire-decision mismatch if any."""
    t_c = traj_a.actuator.t_c
    if abs(t_c - traj_b.actuator.t_c) > 1e-12 * t_c:
        raise GridMismatch("tick periods differ")
    after_a, after_b = traj_a.jump_rows(), traj_b.jump_rows()
    if len(after_a) != len(after_b):
        raise GridMismatch(f"tick counts differ: {len(after_a)} vs {len(after_b)}")
    t_a = traj_a.t[after_a - 1]
    i = _first(np.abs(t_a - traj_b.t[after_b - 1]) > 1e-9 * t_c)
    if i is not None:
        raise GridMismatch(f"tick {i} occurs at different times")
    alpha = traj_a.plant.alpha

    def max_rel(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(a), alpha), initial=0.0))

    max_x = max_rel(traj_a.x[after_a - 1], traj_b.x[after_b - 1])
    max_xi = max_rel(traj_a.xi[after_a - 1], traj_b.xi[after_b - 1])
    fired_a, fired_b = traj_a.fired[after_a], traj_b.fired[after_b]
    i = _first(fired_a != fired_b)
    mismatch = None
    if i is not None:
        mismatch = FireMismatch(i, float(t_a[i]), bool(fired_a[i]), bool(fired_b[i]))
    passed = mismatch is None and max_x <= rtol and max_xi <= rtol
    return ComparisonResult(max_x, max_xi, mismatch, len(after_a), rtol, passed)


@dataclass(frozen=True)
class Metrics:
    pellet_count: int
    min_x_steady: float
    max_x_steady: float
    mean_x_steady: float
    settling_time: float | None


def compute_metrics(traj: Trajectory) -> Metrics:
    t, x = traj.t, traj.x
    window = x[steady_state_window(traj):]
    alpha, r = traj.plant.alpha, traj.plant.r
    outside = np.flatnonzero(~((x > -alpha) & (x <= alpha + _REL_SLACK * r)))
    # settled from the row after the last one outside the band, if the run has it
    settled = int(outside[-1]) + 1 if len(outside) else 0
    settling = float(t[settled]) if settled < len(t) else None
    lo, hi = float(window.min()), float(window.max())
    n = len(window)  # past half the float range the sum overflows, and window/n does not
    mean = window.mean() if max(-lo, hi) * n < sys.float_info.max / 2 else np.sum(window / n)
    return Metrics(
        pellet_count=int(np.count_nonzero(traj.fired)),
        min_x_steady=lo,
        max_x_steady=hi,
        mean_x_steady=float(mean),
        settling_time=settling,
    )


@dataclass(frozen=True)
class VerifyReport:
    verdicts: dict[str, bool | None]  # per check, in CHECKS order: pass, fail or not applicable
    witnesses: dict[str, CheckWitness]  # the first violation of each failed check
    windup_detected: bool
    metrics: Metrics

    def status(self, check: str) -> str:
        """'pass', 'fail' or 'not_applicable'."""
        return _STATUS[self.verdicts[check]]

    def all_applicable_pass(self) -> bool:
        return False not in self.verdicts.values()

    def failures(self) -> list[dict]:
        """Each failed check with its witness: the one place summary.json holds it."""
        return [{"check": name, "witness": asdict(self.witnesses[name])}
                for name, ok in self.verdicts.items() if ok is False]

    def as_dict(self) -> dict:
        return {**{name: self.status(name) for name in self.verdicts},
                "windup_detected": self.windup_detected, "metrics": asdict(self.metrics)}


def report(traj: Trajectory, cert: Certificate) -> VerifyReport:
    """Run every check that applies and collect metrics."""
    outcomes = dict(zip(CHECKS, (
        check_envelope(traj, cert),
        check_zeno(traj),
        check_dwell(traj, cert),
        check_contraction(traj, cert),
    )))
    return VerifyReport(
        verdicts={name: ok for name, (ok, _) in outcomes.items()},
        witnesses={name: w for name, (_, w) in outcomes.items() if w},
        windup_detected=detect_windup(traj),
        metrics=compute_metrics(traj),
    )
