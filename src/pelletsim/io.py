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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

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
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


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

class _Panel:
    """Maps (t, y) columns onto a pixel rectangle."""

    def __init__(self, x0, y0, width, height, t_range, y_range):
        self.x0, self.y0, self.w, self.h = x0, y0, width, height
        self.t_min, self.t_max = t_range
        lo, hi = y_range
        if hi - lo <= 0.0:
            hi = lo + 1.0
        pad = 0.05 * (hi - lo)
        self.y_min, self.y_max = lo - pad, hi + pad

    def px(self, t):
        return self.x0 + (t - self.t_min) / (self.t_max - self.t_min) * self.w

    def py(self, y):
        return self.y0 + self.h - (y - self.y_min) / (self.y_max - self.y_min) * self.h

    def frame(self, label):
        return (
            f'<rect x="{self.x0}" y="{self.y0}" width="{self.w}" height="{self.h}" '
            'fill="none" stroke="#444"/>'
            f'<text x="{self.x0 + 4}" y="{self.y0 + 14}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )


def _write_polyline(fh, px: numfmt.Formatted, py: Callable[[slice], np.ndarray],
                    colour: str, dash: str = "") -> None:
    """One polyline through (px, py(rows)), written a block of rows at a time."""
    from . import numfmt

    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    fh.write(f'<polyline fill="none" stroke="{colour}" stroke-width="1.2"{dash_attr} '
             'points="'.encode("ascii"))
    for lo in range(0, len(px), numfmt.CHUNK):
        rows = slice(lo, lo + numfmt.CHUNK)
        for block in numfmt.rows(" %.2f,%.2f", (px[rows], py(rows))):
            fh.write(block if lo else block[1:])  # no space before the first point
    fh.write(b'"/>\n')


def render_svg(traj: Trajectory, cert: Certificate, path: str | Path) -> None:
    """Two stacked panels: error x and density n_e against time, with dashed
    certified bounds and pellet-fire markers.  Deliberately minimal.  Every
    series is computed and written a block of CHUNK rows at a time."""
    from . import numfmt

    ts, xs, r = traj.t, traj.x, traj.plant.r
    t_range = (0.0, traj.t_end)

    # each overlay: a bound, as a float or a function of time, and its colour
    overlays_x: list[tuple[float | Callable[[np.ndarray], np.ndarray | float], str]] = []
    if cert.feasible and cert.bound_interval is not None:
        lower, upper = cert.bound_interval
        colour = "#8e44ad"
        if cert.bound_scope == "trajectory":
            # the envelope check_envelope checks: from x0 <= 0 the lower bound climbs
            x0, colour = float(xs[0]), "#c0392b"
            lower = lambda t: bounds.envelope(t, x0, traj.plant)[0]
            upper = lambda t: bounds.envelope(t, x0, traj.plant)[1]
        overlays_x += [(upper, colour), (lower, colour)]

    def over(bound, rows: slice) -> np.ndarray:
        """A bound at a block of rows."""
        t = ts[rows]
        return np.broadcast_to(bound(t) if callable(bound) else bound, t.shape)

    x_min, x_max = float(xs.min()), float(xs.max())
    for bound, _ in overlays_x:
        for lo in range(0, len(traj), numfmt.CHUNK):
            values = over(bound, slice(lo, lo + numfmt.CHUNK))
            x_min, x_max = min(x_min, float(values.min())), max(x_max, float(values.max()))
    panel_x = _Panel(60, 20, 800, 250, t_range, (x_min, x_max))
    # r - x is monotone in x, rounding included: its extremes are at those of x
    panel_n = _Panel(60, 310, 800, 250, t_range, (r - float(xs.max()), r - float(xs.min())))

    # both panels share x0, width and t_range: one time column, formatted once
    px = numfmt.formatted("%.2f", panel_x.px(ts))
    with open(path, "wb") as fh:
        fh.write("\n".join([
            '<svg xmlns="http://www.w3.org/2000/svg" width="900" height="600" '
            'viewBox="0 0 900 600">',
            '<rect width="900" height="600" fill="white"/>',
            panel_x.frame("density error x [particles/m^3] vs t [s]"),
            panel_n.frame("electron density n_e [particles/m^3] vs t [s]"),
            "",
        ]).encode("utf-8"))
        _write_polyline(fh, px, lambda rows: panel_x.py(xs[rows]), "#1f77b4")
        _write_polyline(fh, px, lambda rows: panel_n.py(r - xs[rows]), "#2ca02c")
        for bound, colour in overlays_x:
            _write_polyline(fh, px, lambda rows: panel_x.py(over(bound, rows)), colour, dash="6,4")
        y1, y2 = panel_x.y0 + panel_x.h - 8, panel_x.y0 + panel_x.h
        marker = (f'<line x1="%.2f" y1="{y1}" x2="%.2f" y2="{y2}" stroke="#e67e22" '
                  'stroke-width="1"/>\n')
        fires = px[traj.fired]
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
    trajectory.csv, summary.json and plot.svg into outdir."""
    cert = bounds.certify(scenario.plant, scenario.actuator, scenario.controller)
    traj = simulate(scenario)
    rep = verify.report(traj, cert)
    result = RunResult(scenario, traj, cert, rep)
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out / "trajectory.csv")
        (out / "summary.json").write_text(
            json.dumps(result.summary_dict(), indent=2) + "\n", encoding="utf-8"
        )
        if svg:
            render_svg(traj, cert, out / "plot.svg")
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
