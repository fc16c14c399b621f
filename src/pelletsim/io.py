"""Scenario ingestion, batch sweeps, and result emission.

The scenario schema is strict JSON: unknown keys anywhere are rejected, as
are missing required keys.  Numbers are JSON doubles in SI units.

    {"plant":      {"tau": s, "r": m^-3, "alpha": m^-3 | {"m_p": , "volume": }},
     "actuator":   {"t_c": s, "t_prep": s, "mode": "centrifuge"|"gas_gun"},
     "controller": {"variant": "NM"|"SDM"|"SDM_IC"|"SDM_JM", "delta": },
     "init":       {"x0": m^-3, "xi0": },
     "sim":        {"t_end": s, "samples_per_tick": int, "seed_note": str}}

t_prep, mode, xi0, samples_per_tick and seed_note are optional: a key the
file leaves out takes the default that ActuatorSpec or Scenario declares,
the only place it is set.  The emitted document writes every field.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds, verify
from .core import (
    ActuatorMode,
    ActuatorSpec,
    Certificate,
    ControllerSpec,
    PlantParams,
    Trajectory,
    Variant,
)
from .engine import Scenario, simulate


class ParseError(ValueError):
    """Input is not well-formed JSON."""


class SchemaError(ValueError):
    """Well-formed JSON that does not match the scenario schema."""


class EmptyAxis(ValueError):
    pass


class NonFinite(ValueError):
    """A document to write holds NaN or an infinity, which JSON cannot."""


def dump_json(doc) -> str:
    """`doc` as indented strict JSON, with a final newline: the one writer
    of summary.json, certify's output and scenario files.  Raises NonFinite,
    naming the first field that holds NaN or an infinity."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        field = _non_finite(doc)
        if field is None:
            raise
        raise NonFinite(f"{field}, which JSON cannot hold") from None


def _non_finite(doc, path: str = "") -> str | None:
    """'path is value' for the first NaN or infinity in doc, else None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else f"{path} is {doc!r}"
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, (list, tuple)) else ()
    for key, value in items:
        found = _non_finite(value, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def _require_section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise SchemaError(f"missing section {name!r}")
    section = doc[name]
    if not isinstance(section, dict):
        raise SchemaError(f"section {name!r} must be an object")
    return section


def _check_keys(section: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    unknown = set(section) - required - optional
    if unknown:
        raise SchemaError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise SchemaError(f"missing key(s) in {where}: {sorted(missing)}")


def _numbers(section: dict, where: str, keys: tuple[str, ...]) -> dict[str, float]:
    """The numbers among `keys` that the section holds, as floats."""
    numbers = {}
    for key in [k for k in keys if k in section]:
        v = section[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{where}.{key} must be a number, got {v!r}")
        try:
            numbers[key] = float(v)
        except OverflowError:  # an integer beyond the float range
            raise SchemaError(f"{where}.{key} is too large for a float") from None
    return numbers


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer with too many digits
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    _check_keys(doc, "scenario", {"plant", "actuator", "controller", "init", "sim"})

    plant_sec = _require_section(doc, "plant")
    _check_keys(plant_sec, "plant", {"tau", "r", "alpha"})
    alpha_raw = plant_sec["alpha"]
    if isinstance(alpha_raw, dict):
        _check_keys(alpha_raw, "plant.alpha", {"m_p", "volume"})
        plant = PlantParams.from_pellet(**_numbers(plant_sec, "plant", ("tau", "r")),
                                        **_numbers(alpha_raw, "plant.alpha", ("m_p", "volume")))
    else:
        plant = PlantParams(**_numbers(plant_sec, "plant", ("tau", "r", "alpha")))

    act_sec = _require_section(doc, "actuator")
    _check_keys(act_sec, "actuator", {"t_c"}, {"t_prep", "mode"})
    act_kw = _numbers(act_sec, "actuator", ("t_c", "t_prep"))
    if "mode" in act_sec:
        try:
            act_kw["mode"] = ActuatorMode(act_sec["mode"])
        except (ValueError, TypeError):
            raise SchemaError("actuator.mode must be 'centrifuge' or 'gas_gun', "
                              f"got {act_sec['mode']!r}")
    actuator = ActuatorSpec(**act_kw)

    ctl_sec = _require_section(doc, "controller")
    _check_keys(ctl_sec, "controller", {"variant", "delta"})
    try:
        variant = Variant(ctl_sec["variant"])
    except (ValueError, TypeError):
        raise SchemaError(f"controller.variant must be one of {[v.value for v in Variant]}")
    controller = ControllerSpec(variant, **_numbers(ctl_sec, "controller", ("delta",)))

    init_sec = _require_section(doc, "init")
    _check_keys(init_sec, "init", {"x0"}, {"xi0"})
    sim_sec = _require_section(doc, "sim")
    _check_keys(sim_sec, "sim", {"t_end"}, {"samples_per_tick", "seed_note"})
    sim_kw = {key: sim_sec[key] for key in ("samples_per_tick", "seed_note") if key in sim_sec}
    if "samples_per_tick" in sim_kw and type(sim_kw["samples_per_tick"]) is not int:  # nor bool
        raise SchemaError("sim.samples_per_tick must be an integer")

    return Scenario(
        plant, actuator, controller,
        **_numbers(init_sec, "init", ("x0", "xi0")),
        **_numbers(sim_sec, "sim", ("t_end",)),
        **sim_kw,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """The scenario document; the specs' enums are str enums, dumped as their values."""
    sim: dict = {"t_end": scenario.t_end, "samples_per_tick": scenario.samples_per_tick}
    if scenario.seed_note is not None:
        sim["seed_note"] = scenario.seed_note
    return {
        "plant": asdict(scenario.plant),
        "actuator": asdict(scenario.actuator),
        "controller": asdict(scenario.controller),
        "init": {"x0": scenario.x0, "xi0": scenario.xi0},
        "sim": sim,
    }


def emit_scenario(scenario: Scenario) -> str:
    """Inverse of parse_scenario: parse(emit(s)) == s."""
    return dump_json(scenario_to_dict(scenario))


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


_CSV_HEADER = b"t,j,n_e,x,xi,T,T_p,fired\r\n"
_CSV_ROW = "%.9e,%d,%.9e,%.9e,%.9e,%.9e,%.9e,%d\r\n"


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Columns t,j,n_e,x,xi,T,T_p,fired; floats as %.9e, fired as 0/1, and
    lines ended by \\r\\n, as csv.writer ends them.  Each field is byte-equal
    to Python's `%` formatting of its value.  Written a block of CHUNK rows
    at a time, n_e, T and T_p derived per block."""
    from . import numfmt  # on first use: runs that write no artifacts never load it

    last_fire = 0.0  # the time of the last pellet before the block
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        for lo in range(0, len(traj), numfmt.CHUNK):
            rows = slice(lo, lo + numfmt.CHUNK)
            t, x, fired = traj.t[rows], traj.x[rows], traj.fired[rows]
            T, T_p = traj.timers(rows, last_fire)
            columns = (t, traj.j[rows], traj.plant.r - x, x, traj.xi[rows], T, T_p, fired)
            fh.writelines(numfmt.rows(_CSV_ROW, columns))
            last_fire = float(np.max(t, where=fired, initial=last_fire))


# --- minimal SVG rendering -------------------------------------------------

# the time axis, shared by both panels: left edge and width in pixels
_LEFT, _WIDTH = 60, 800


def _px(t, t_end: float):
    """The x pixel of time t, on an axis from 0 to t_end."""
    return _LEFT + t / t_end * _WIDTH


class _Panel:
    """Maps values onto the pixel rows of a rectangle on the time axis."""

    def __init__(self, y0, height, y_range):
        self.y0, self.h = y0, height
        lo, hi = y_range
        if hi - lo <= 0.0:  # a flat series, drawn at the foot of a band that holds it
            hi = lo + max(1.0, abs(lo))
        pad = 0.05 * (hi - lo)
        self.y_min, self.y_max = lo - pad, hi + pad

    def py(self, y):
        return self.y0 + self.h - (y - self.y_min) / (self.y_max - self.y_min) * self.h

    def frame(self, label):
        return (
            f'<rect x="{_LEFT}" y="{self.y0}" width="{_WIDTH}" height="{self.h}" '
            'fill="none" stroke="#444"/>'
            f'<text x="{_LEFT + 4}" y="{self.y0 + 14}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )


def _column_extremes(col: np.ndarray, series) -> list[np.ndarray]:
    """Within each run of equal pixel columns `col` (non-decreasing): the
    first and the last row, and the first row of the lowest and of the
    highest value of each series, an array over the same rows (M4)."""
    n = len(col)
    new = np.flatnonzero(col[1:] != col[:-1]) + 1
    starts = np.concatenate(([0], new))
    picks = [starts, np.append(new - 1, n - 1)]
    run = np.zeros(n, np.intp)
    run[new] = 1
    np.cumsum(run, out=run)
    rows = np.arange(n)
    for v in series:
        for extreme in (np.minimum, np.maximum):
            at = v == extreme.reduceat(v, starts)[run]
            picks.append(np.minimum.reduceat(np.where(at, rows, n), starts))
    return picks


def _polyline(px: np.ndarray, py: np.ndarray, colour: str, dash: str = "") -> bytes:
    """One polyline through the points (px, py)."""
    from . import numfmt

    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    points = b"".join(numfmt.rows(" %.2f,%.2f", (px, py)))[1:]  # no space before the first
    return (f'<polyline fill="none" stroke="{colour}" stroke-width="1.2"{dash_attr} '
            'points="').encode("ascii") + points + b'"/>\n'


def render_svg(traj: Trajectory, cert: Certificate, path: str | Path) -> None:
    """Two stacked panels: error x and density n_e against time, with dashed
    certified bounds and pellet-fire markers.  Deliberately minimal.

    Drawn at the pixel resolution (M4: Jugel et al., PVLDB 7(10), 2014): of
    each 1-px column of the time axis, floor(px), only the first and last
    row are kept, and the rows of the lowest and highest value of x and of
    each drawn bound, and also the first row the bound covers.  All four
    polylines run through these shared rows (the bounds from that first row
    on), and each point has the bytes it would have at full resolution.
    One fire marker is drawn per column that holds a fire, at its first
    fire.  The rows are chosen a block of CHUNK rows at a time, so a column
    split across two blocks keeps a few more; the plot costs O(pixels), and
    its temporaries one block, however long the run."""
    from . import numfmt

    n, t_end, r = len(traj), traj.t_end, traj.plant.r
    # the bound is drawn on the rows it bounds, from `first` on (slice(0): `first` alone)
    first = verify.certified_bound(traj, cert, slice(0))[0] if cert.feasible else n

    # per block: the kept rows, the bounds at those from `first` on, and
    # the first fire of each column
    kept, lower, upper, fires = [], [np.empty(0)], [np.empty(0)], []
    fire_col = -1.0  # the column of the last fire kept
    for lo in range(0, n, numfmt.CHUNK):
        rows = slice(lo, lo + numfmt.CHUNK)
        col, x = np.floor(_px(traj.t[rows], t_end)), traj.x[rows]
        picks = _column_extremes(col, (x,))
        b = max(first - lo, 0)  # the block's first bounded row
        if b < len(col):
            # (lower, upper) over the block's bounded rows, counted from `first`;
            # those that vary add their extremes, and the first bounded row
            # starts a run
            bounded_rows = slice(lo + b - first, rows.stop - first)
            lower_upper = verify.certified_bound(traj, cert, bounded_rows)[1:]
            varying = [v for v in lower_upper if np.ndim(v)]
            picks += [b + i for i in _column_extremes(col[b:], varying)]
        keep = np.zeros(len(col), bool)
        keep[np.concatenate(picks)] = True
        block_kept = np.flatnonzero(keep)
        kept.append(lo + block_kept)
        if b < len(col):
            bounded = block_kept[block_kept >= b] - b
            for out, bound in zip((lower, upper), lower_upper):
                out.append(np.broadcast_to(bound, len(col) - b)[bounded])
        fired = np.flatnonzero(traj.fired[rows])
        fired_col = col[fired]
        fires.append(lo + fired[np.diff(fired_col, prepend=fire_col) != 0])
        fire_col = fired_col[-1] if len(fired) else fire_col
    kept, lower, upper, fires = map(np.concatenate, (kept, lower, upper, fires))
    x = traj.x[kept]

    # the kept rows hold every column's extremes, so those of the whole run
    drawn = [v for v in (x, lower, upper) if len(v)]
    y_range = (min(float(v.min()) for v in drawn), max(float(v.max()) for v in drawn))
    panel_x = _Panel(20, 250, y_range)
    # r - x is monotone in x, rounding included: its extremes are at those of x
    panel_n = _Panel(310, 250, (r - float(x.max()), r - float(x.min())))

    # both panels share the time axis: one column of pixels
    px = _px(traj.t[kept], t_end)
    with open(path, "wb") as fh:
        fh.write("\n".join([
            '<svg xmlns="http://www.w3.org/2000/svg" width="900" height="600" '
            'viewBox="0 0 900 600">',
            '<rect width="900" height="600" fill="white"/>',
            panel_x.frame("density error x [particles/m^3] vs t [s]"),
            panel_n.frame("electron density n_e [particles/m^3] vs t [s]"),
            "",
        ]).encode("utf-8"))
        fh.write(_polyline(px, panel_x.py(x), "#1f77b4"))
        fh.write(_polyline(px, panel_n.py(r - x), "#2ca02c"))
        colour = "#c0392b" if cert.bound_scope == "trajectory" else "#8e44ad"
        for bound in (upper, lower) if cert.feasible else ():
            fh.write(_polyline(px[len(px) - len(bound):], panel_x.py(bound), colour, dash="6,4"))
        y1, y2 = panel_x.y0 + panel_x.h - 8, panel_x.y0 + panel_x.h
        marker = (f'<line x1="%.2f" y1="{y1}" x2="%.2f" y2="{y2}" stroke="#e67e22" '
                  'stroke-width="1"/>\n')
        fires = _px(traj.t[fires], t_end)
        fh.writelines(numfmt.rows(marker, (fires, fires)))
        fh.write(b"</svg>")


# --- run / sweep -----------------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    trajectory: Trajectory
    certificate: Certificate
    report: verify.VerifyReport

    @property
    def passed(self) -> bool:
        return self.report.all_applicable_pass()

    def summary_dict(self) -> dict:
        return {
            "scenario": scenario_to_dict(self.scenario),
            "certificate": asdict(self.certificate),
            "verify": self.report.as_dict(),
            "passed": self.passed,
            "failures": self.report.failures(),
        }


def run_scenario(scenario: Scenario, outdir: str | Path | None = None, svg: bool = False) -> RunResult:
    """Simulate, certify, verify; optionally write the artifact files
    trajectory.csv, summary.json and plot.svg into outdir, none of them
    if the summary holds a number that JSON cannot (NonFinite).  Without
    svg, a plot.svg already in outdir is removed: it drew another run."""
    cert = bounds.certify(scenario.plant, scenario.actuator, scenario.controller)
    traj = simulate(scenario)
    rep = verify.report(traj, cert)
    result = RunResult(scenario, traj, cert, rep)
    if outdir is not None:
        summary = dump_json(result.summary_dict())  # first: a refused one writes no file
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out / "trajectory.csv")
        (out / "summary.json").write_text(summary, encoding="utf-8")
        if svg:
            render_svg(traj, cert, out / "plot.svg")
        else:
            (out / "plot.svg").unlink(missing_ok=True)
    return result


# each sweep axis, and the spec of the scenario that holds it
SWEEP_AXES = {"delta": "controller", "t_c": "actuator", "r": "plant"}


def sweep(base: Scenario, axis: str, values, outdir: str | Path | None = None) -> list[dict]:
    """One row per swept value; infeasible configurations are retained and
    flagged, invalid ones raise."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    spec = SWEEP_AXES[axis]
    values = list(values)
    if not values:
        raise EmptyAxis("no values to sweep")
    rows = []
    for value in values:
        scenario = replace(base, **{spec: replace(getattr(base, spec), **{axis: value})})
        result = run_scenario(scenario)
        rows.append({
            axis: value,
            "feasible": result.certificate.feasible,
            "envelope": result.report.status("envelope"),
            "windup_detected": result.report.windup_detected,
            **vars(result.report.metrics),
        })
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows
