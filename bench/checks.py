"""Correctness checks computed apart from pelletsim.

Nothing here imports pelletsim.  Each check rebuilds what the model says
the program must have produced, from the scenario's own numbers and the
paper's closed forms, and compares it with what the program wrote.  A check
returns None when it holds and a one-line description of the first
violation otherwise.

The model: between ticks the density error relaxes as
x' = (r - x)/tau; a pellet fired at a tick lowers x by alpha.  The system
is linear in x, so every state is the superposition

    x(t, j) = r + e^(-t/tau) (x0 - r) - alpha * sum_{fires <= (t, j)} e^(-(t - t_f)/tau)

which needs nothing but the times and fire markers of the run.
"""

from __future__ import annotations

import math

import numpy as np

# trajectory.csv prints floats as %.9e: half a unit in the tenth digit
CSV_REL = 5e-10
# floor for accumulated rounding of in-memory states, as a share of r
STATE_FLOOR = 1e-11


def fire_sums(t: np.ndarray, fired: np.ndarray, tau: float) -> np.ndarray:
    """S_i = sum over fires at or before row i of e^(-(t_i - t_f)/tau).

    Rows are in hybrid-time order, so a fire counts from its own post-jump
    row onwards and not on the pre-jump row at the same t."""
    idx = np.flatnonzero(fired)
    out = np.zeros(len(t))
    if len(idx) == 0:
        return out
    t_fire = t[idx]
    at_fire = np.empty(len(idx))
    s, prev = 0.0, 0.0
    for k, tf in enumerate(t_fire):
        s = s * math.exp(-(tf - prev) / tau) + 1.0
        at_fire[k] = s
        prev = tf
    last = np.cumsum(fired) - 1
    has = last >= 0
    out[has] = at_fire[last[has]] * np.exp(-(t[has] - t_fire[last[has]]) / tau)
    return out


def check_superposition(cols: dict, model: dict, rel: float) -> str | None:
    """Every row's x equals the superposition of the open-loop decay and one
    decaying -alpha step per fire.

    ``rel`` is the relative precision of the t and x values (CSV_REL for a
    printed file, 0 for in-memory states).  The tolerance is the effect of
    that rounding on the formula: on x itself, and on each exponent through
    t and t_f, plus STATE_FLOOR*r for rounding inside the program."""
    t, x, fired = cols["t"], cols["x"], cols["fired"]
    r, alpha, tau, x0 = model["r"], model["alpha"], model["tau"], model["x0"]
    s = fire_sums(t, fired, tau)
    decay = np.exp(-t / tau)
    pred = r + decay * (x0 - r) - alpha * s
    slope = (r - x0) * decay + 2.0 * alpha * s
    tol = 2.0 * rel * (np.abs(x) + (t / tau) * slope) + STATE_FLOOR * r
    bad = np.flatnonzero(np.abs(x - pred) > tol)
    if len(bad):
        i = bad[0]
        return (f"superposition: row {i} (t={float(t[i])!r}, j={int(cols['j'][i])}) "
                f"has x={float(x[i])!r}, expected {float(pred[i])!r} within {tol[i]:.3e}")
    return None


def check_jumps(cols: dict, model: dict, rel: float) -> str | None:
    """Jumps happen only at ticks: the k-th jump at t = k*t_c, with j = k after
    it.  At a jump x either stays or drops by exactly alpha, and it drops iff
    the row is marked fired.  Fires are at least l ticks apart."""
    t, j, x, fired = cols["t"], cols["j"], cols["x"], cols["fired"]
    r, alpha, t_c, l = model["r"], model["alpha"], model["t_c"], model["l"]

    def first(mask, rows=None):
        i = int(np.flatnonzero(mask)[0])
        return i if rows is None else int(rows[i])

    dj = np.diff(j)
    if np.any((dj != 0) & (dj != 1)):
        i = first((dj != 0) & (dj != 1)) + 1
        return f"jumps: j steps from {int(j[i - 1])} to {int(j[i])} at row {i}"
    after = np.flatnonzero(dj == 1) + 1  # the post-jump rows
    is_after = np.zeros(len(t), dtype=bool)
    is_after[after] = True
    if np.any(fired & ~is_after):
        i = first(fired & ~is_after)
        return f"jumps: row {i} (t={float(t[i])!r}) is marked fired without a jump"
    t_tol = (2.0 * rel + 1e-12) * np.maximum(t[after], t_c)
    k = np.rint(t[after] / t_c)
    off = (np.abs(t[after] - t[after - 1]) > t_tol) | (np.abs(t[after] - k * t_c) > t_tol)
    off |= k != j[after]
    if np.any(off):
        i = first(off, after)
        return f"jumps: jump to j={int(j[i])} at t={float(t[i])!r} is not at tick {int(j[i])}*t_c"
    dx = x[after] - x[after - 1]
    wrong = np.abs(dx - np.where(fired[after], -alpha, 0.0)) > (
        2.0 * rel * (np.abs(x[after]) + np.abs(x[after - 1])) + 1e-12 * r)
    if np.any(wrong):
        i = first(wrong, after)
        return (f"jumps: x changes by {float(x[i] - x[i - 1])!r} at the jump to j={int(j[i])} "
                f"(fired={bool(fired[i])})")
    ticks = k[fired[after]]
    if len(ticks) > 1 and np.min(np.diff(ticks)) < l:
        i = int(np.argmin(np.diff(ticks)))
        return f"jumps: fires at ticks {int(ticks[i])} and {int(ticks[i + 1])}, fewer than l={l} apart"
    return None


def check_run(cols: dict, model: dict, rel: float) -> str | None:
    """Both trajectory checks, plus the run's extent: it ends at t_end after
    exactly n_ticks jumps."""
    problem = check_superposition(cols, model, rel) or check_jumps(cols, model, rel)
    if problem:
        return problem
    if int(cols["j"][-1]) != model["n_ticks"]:
        return f"extent: {int(cols['j'][-1])} jumps, expected {model['n_ticks']}"
    if abs(cols["t"][-1] - model["t_end"]) > (2.0 * rel + 1e-12) * model["t_end"]:
        return f"extent: run ends at t={float(cols['t'][-1])!r}, expected {model['t_end']!r}"
    return None


def n_ticks(t_end: float, t_c: float) -> int:
    """Whole ticks within the horizon; ticks fall at k*t_c, k = 1..n."""
    return math.floor(t_end / t_c + 1e-9)


def read_csv_columns(path) -> dict:
    """The t, j, x and fired columns of a trajectory.csv, found by header."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    use = [header.index(name) for name in ("t", "j", "x", "fired")]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=use, ndmin=2)
    return {"t": data[:, 0], "j": data[:, 1], "x": data[:, 2], "fired": data[:, 3] != 0.0}


def model_from_doc(doc: dict, l: int) -> dict:
    """The numbers the checks need, read from a scenario document."""
    plant, act, sim = doc["plant"], doc["actuator"], doc["sim"]
    return {
        "r": plant["r"], "alpha": plant["alpha"], "tau": plant["tau"],
        "x0": doc["init"]["x0"], "t_c": act["t_c"], "l": l, "t_end": sim["t_end"],
        "n_ticks": n_ticks(sim["t_end"], act["t_c"]),
    }


# --- the paper's closed forms, for the tuning-grid verdicts -----------------

def tau_d(tau: float, r: float, alpha: float) -> float:
    """Longest certified time between pellets."""
    return tau * math.log(r / (r - alpha))


def delta_max_reset(tau: float, r: float, alpha: float, t_eff: float) -> float:
    """Top of the threshold range of the reset family (NM, SDM_JM) when
    pellets are t_eff = l*t_c apart at the fastest."""
    return r * (tau_d(tau, r, alpha) - t_eff) - tau * (r - (r - alpha) * math.exp(t_eff / tau))


def delta_max_clipped(tau: float, r: float, alpha: float, t_c: float) -> float:
    """Top of the threshold range with the integrator input clipped (SDM_IC)."""
    return (r - (r - alpha) * math.exp(2.0 * t_c / tau)) * t_c


def threshold_scale(variant: str, tau: float, r: float, alpha: float, t_c: float, l: int) -> float:
    """The delta that the grid's fractions multiply: the top of the
    admissible range where it is not empty, r*t_c where it is."""
    top = (delta_max_clipped(tau, r, alpha, t_c) if variant == "SDM_IC"
           else delta_max_reset(tau, r, alpha, l * t_c))
    return top if top > 0.0 else r * t_c


def expected_feasible(variant: str, tau: float, r: float, alpha: float,
                      t_c: float, l: int, t_prep: float, delta: float) -> bool:
    """Whether the paper certifies the tuning.

    Reset family: t_prep <= tau_d, t_c <= tc_max = tau_d/l and
    0 < delta <= delta_max(l*t_c).  Input clipping: no multi-tick
    preparation; t_c < tau_d/2 with 0 < delta <= delta_max, or the widened
    slow-actuator case t_c <= tau_d with delta <= 1e-6*alpha*t_c.  Plain
    sigma-delta is never certified."""
    td = tau_d(tau, r, alpha)
    if variant == "SDM":
        return False
    if variant == "SDM_IC":
        if l > 1:
            return False
        if t_c < td / 2.0 and 0.0 < delta <= delta_max_clipped(tau, r, alpha, t_c):
            return True
        return t_c <= td and 0.0 < delta <= 1e-6 * alpha * t_c
    return t_prep <= td and t_c <= td / l and 0.0 < delta <= delta_max_reset(tau, r, alpha, l * t_c)


def check_grid_rows(rows: list[dict], cells: list[dict]) -> str | None:
    """Each sweep row is the requested cell and carries the expected verdict;
    the envelope check applies exactly to certified cells."""
    if len(rows) != len(cells):
        return f"grid: {len(rows)} rows for {len(cells)} cells"
    for row, cell in zip(rows, cells):
        if row["delta"] != cell["delta"]:
            return f"grid: row for delta={cell['delta']!r} reports delta={row['delta']!r}"
        if row["feasible"] != cell["feasible"]:
            return (f"grid: {cell['label']} delta={cell['delta']!r} certified={row['feasible']}, "
                    f"closed forms say {cell['feasible']}")
        allowed = ("pass", "fail") if cell["feasible"] else ("not_applicable",)
        if row["envelope"] not in allowed:
            return f"grid: {cell['label']} envelope={row['envelope']!r}, expected one of {allowed}"
    return None
