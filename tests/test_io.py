import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pelletsim import (
    EmptyAxis,
    ParseError,
    RNotAboveAlpha,
    SchemaError,
    Variant,
    emit_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
    simulate,
    sweep,
    tc_max,
    verify,
)
from pelletsim.core import CHUNK
from pelletsim.io import render_svg, write_trajectory_csv

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
# plot.svg keeps O(pixels) rows: a bound on its size at any run length
PLOT_BYTES_CAP = 400_000


def minimal_doc(**overrides):
    doc = {
        "plant": {"tau": 0.1, "r": 5e19, "alpha": 1e19},
        "actuator": {"t_c": 1 / 70, "t_prep": 0.0, "mode": "centrifuge"},
        "controller": {"variant": "NM", "delta": 1.569e16},
        "init": {"x0": 5e19, "xi0": 0.0},
        "sim": {"t_end": 0.2, "samples_per_tick": 4},
    }
    doc.update(overrides)
    return doc


# --- plot.svg at full resolution, with Python's own `%` -----------------------

def svg_polylines(svg: str) -> list[list[str]]:
    """The points of each polyline: x, n_e, then the upper and lower bound."""
    return [points.split() for points in re.findall(r'points="([^"]*)"', svg)]


def svg_markers(svg: str) -> list[str]:
    return re.findall(r'<line x1="([^"]*)"', svg)


def full_resolution(traj, cert) -> dict:
    """Every row's pixels and points as a plot at full resolution would draw
    them, one Python float at a time: the columns floor(px), and the points
    of x, n_e and (from the first bounded row on) each bound."""
    t, x, r, t_end = traj.t.tolist(), traj.x.tolist(), traj.plant.r, traj.t_end
    px = [60 + ti / t_end * 800 for ti in t]
    first, lower, upper = len(t), [], []
    if cert.feasible:
        first, lo, up = verify.certified_bound(traj, cert)
        lower, upper = ([float(v)] * (len(t) - first) if np.ndim(v) == 0 else v.tolist()
                        for v in (lo, up))
    drawn = x + lower + upper

    def py(y0, lo, hi):
        hi = lo + max(1.0, abs(lo)) if hi - lo <= 0.0 else hi
        y_min, y_max = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
        return lambda y: y0 + 250 - (y - y_min) / (y_max - y_min) * 250

    py_x, py_n = py(20, min(drawn), max(drawn)), py(310, r - max(x), r - min(x))
    point = lambda i, y: "%.2f,%.2f" % (px[i], y)  # noqa: E731
    return {
        "first": first,
        "col": [math.floor(p) for p in px],
        "px": ["%.2f" % p for p in px],
        # per polyline: its rows, their values, and their points
        "series": [
            (range(len(t)), x, [point(i, py_x(v)) for i, v in enumerate(x)]),
            (range(len(t)), [r - v for v in x], [point(i, py_n(r - v)) for i, v in enumerate(x)]),
        ] + [(range(first, len(t)), bound, [point(first + i, py_x(v)) for i, v in enumerate(bound)])
             for bound in ((upper, lower) if cert.feasible else ())],
    }


def m4_rows(traj, cert) -> list[int]:
    """The rows that the plot keeps, by a plain loop over the pixel columns:
    each column's first and last row, the first row of the lowest and of
    the highest x and bound, and the first bounded row."""
    ref = full_resolution(traj, cert)
    col, first = ref["col"], ref["first"]
    keep = {first} if first < len(col) else set()
    for rows, values, _ in [ref["series"][0], *ref["series"][2:]]:  # x and the bounds
        by_col = {}
        for i, v in zip(rows, values):
            by_col.setdefault(col[i], []).append((v, i))
        for members in by_col.values():
            keep |= {members[0][1], members[-1][1], min(members)[1],
                     min(members, key=lambda m: (-m[0], m[1]))[1]}
    return sorted(keep)


def is_subsequence(points: list[str], full: list[str]) -> bool:
    rest = iter(full)
    return all(any(p == q for q in rest) for p in points)


class TestParsing:
    def test_shipped_scenarios_parse_and_validate(self):
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(paths) >= 7
        for path in paths:
            scenario = load_scenario(path)
            assert scenario.t_end > 0.0

    def test_reference_scenario_tick_period(self):
        scenario = load_scenario(SCENARIO_DIR / "nm_tracking.json")
        assert scenario.actuator.t_c == pytest.approx(0.0142857142857, rel=1e-9)
        assert scenario.controller.variant is Variant.NM

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_scenario("{not json")

    def test_unknown_key_rejected(self):
        doc = minimal_doc()
        doc["foo"] = 1
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(doc))
        doc = minimal_doc()
        doc["plant"]["foo"] = 1
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(doc))

    def test_missing_key_rejected(self):
        doc = minimal_doc()
        del doc["controller"]["delta"]
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(doc))

    def test_wrong_type_rejected(self):
        doc = minimal_doc()
        doc["plant"]["tau"] = "0.1"
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(doc))
        doc = minimal_doc()
        doc["sim"]["samples_per_tick"] = 2.5
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(doc))

    def test_reference_not_above_alpha_rejected(self):
        doc = minimal_doc()
        doc["plant"]["r"] = 1e19
        with pytest.raises(RNotAboveAlpha):
            parse_scenario(json.dumps(doc))

    def test_alpha_from_pellet_pair(self):
        doc = minimal_doc()
        doc["plant"]["alpha"] = {"m_p": 1.3e20, "volume": 13.0}
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.plant.alpha == pytest.approx(1e19, rel=1e-15)

    def test_bad_variant_rejected(self):
        doc = minimal_doc()
        doc["controller"]["variant"] = "PID"
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(doc))

    def test_round_trip_identity(self):
        scenario = parse_scenario(json.dumps(minimal_doc()))
        assert parse_scenario(emit_scenario(scenario)) == scenario

    def test_round_trip_with_note(self):
        doc = minimal_doc()
        doc["sim"]["seed_note"] = "set from a run log"
        scenario = parse_scenario(json.dumps(doc))
        assert parse_scenario(emit_scenario(scenario)) == scenario


class TestArtifacts:
    def test_run_writes_expected_files(self, tmp_path, nm_tracking):
        result = run_scenario(nm_tracking, outdir=tmp_path, svg=True)
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "plot.svg").exists()
        assert result.passed

    def test_trajectory_csv_format(self, tmp_path, nm_tracking):
        result = run_scenario(nm_tracking, outdir=tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,j,n_e,x,xi,T,T_p,fired"
        assert len(lines) == len(result.trajectory) + 1
        first = lines[1].split(",")
        assert first[0] == "0.000000000e+00"
        assert first[1] == "0"
        assert first[7] in ("0", "1")
        # n_e + x reconstructs r
        assert float(first[2]) + float(first[3]) == pytest.approx(5e19, rel=1e-9)

    def test_summary_embeds_certificate_even_when_infeasible(self, tmp_path, sdm_windup):
        result = run_scenario(sdm_windup, outdir=tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["certificate"]["feasible"] is False
        assert doc["verify"]["envelope"] == "not_applicable"
        assert doc["verify"]["windup_detected"] is True
        assert doc["scenario"]["controller"]["variant"] == "SDM"

    def test_svg_contains_traces_and_markers(self, tmp_path, nm_tracking):
        run_scenario(nm_tracking, outdir=tmp_path, svg=True)
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.count("<polyline") >= 3  # x, n_e, and at least one bound
        assert "stroke-dasharray" in svg
        assert "<line" in svg  # pellet markers

    def test_svg_draws_the_envelope_that_verify_checks(self, tmp_path, nm_tracking):
        # from x0 < -alpha the lower bound climbs from x0: drawn flat at
        # -alpha, it would put the start of x below the bound that passes
        scenario = replace(nm_tracking, x0=-0.5 * nm_tracking.plant.r)
        result = run_scenario(scenario, outdir=tmp_path, svg=True)
        assert result.report.verdicts["envelope"] is True
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.count("stroke-dasharray") == 2
        # the polylines of x, n_e, then the dashed upper and lower bounds; pixel
        # y grows downwards, so x above the lower bound has the smaller y
        x_py, _, upper_py, lower_py = ([float(point.split(",")[1]) for point in points]
                                       for points in svg_polylines(svg))
        # the shared kept rows, by the plain loop of m4_rows, which is exact on
        # a run of one block; from x0 < 0 every row is bounded
        assert len(result.trajectory) <= CHUNK
        kept = m4_rows(result.trajectory, result.certificate)
        assert len(x_py) == len(lower_py) == len(upper_py) == len(kept)
        assert all(x <= lo for x, lo in zip(x_py, lower_py))
        assert all(up <= x for x, up in zip(x_py, upper_py))
        assert lower_py[0] == x_py[0]  # the climb starts at x0
        assert lower_py[0] > lower_py[-1]

    def test_svg_draws_the_steady_state_bound_on_the_window_only(self, tmp_path):
        # sdm_ic_slow starts far above its widened bound, which verify checks
        # from t_end/2 on: the bound is drawn on those rows, not before
        result = run_scenario(load_scenario(SCENARIO_DIR / "sdm_ic_slow.json"), tmp_path, svg=True)
        assert result.certificate.bound_scope == "steady_state"
        traj = result.trajectory
        first = int(np.argmax(traj.t >= 0.5 * traj.t_end))  # the window's first row
        svg = (tmp_path / "plot.svg").read_text()
        dashed = re.findall(r'stroke-dasharray="6,4" points="([^"]*)"', svg)
        assert len(dashed) == 2
        start = f"{60 + traj.t[first] / traj.t_end * 800:.2f}"
        middle = 60 + 0.5 * 800  # the x pixel of t_end/2
        assert len(traj) <= CHUNK  # m4_rows is exact on a run of one block
        bounded = [i for i in m4_rows(traj, result.certificate) if i >= first]
        for points in dashed:
            px = [point.split(",")[0] for point in points.split()]
            assert px[0] == start and len(px) == len(bounded)
            assert min(map(float, px)) >= middle

    # sdm_windup draws no overlays; nm_gas_gun has 2 samples a tick, so
    # most of its rows are boundary states of the tick loop; a start below
    # zero checks and draws the envelope's climbing lower bound
    @pytest.mark.parametrize("name, x0_over_r", [
        pytest.param("nm_tracking", None, id="nm_tracking"),
        pytest.param("sdm_windup", None, id="sdm_windup"),
        pytest.param("nm_gas_gun", None, id="nm_gas_gun"),
        pytest.param("nm_tracking", -0.5, id="nm_tracking_below_zero"),
    ])
    def test_peak_memory_is_the_columns_plus_fixed_blocks(self, tmp_path, name, x0_over_r):
        shipped = load_scenario(SCENARIO_DIR / f"{name}.json")
        t_c, spt = shipped.actuator.t_c, shipped.samples_per_tick
        run_scenario(shipped, tmp_path / "warm", svg=True)  # builds the formatting tables
        scenario = replace(shipped, t_end=t_c * (200_000 // (spt + 1)))
        if x0_over_r is not None:
            scenario = replace(scenario, x0=x0_over_r * scenario.plant.r)
        tracemalloc.start()
        try:
            result = run_scenario(scenario, tmp_path, svg=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the retained columns t, j, x, xi and fired take 33 B a sample;
        # temporaries sized by the run, not by a block, would pass 100
        assert len(result.trajectory) >= 199_000
        assert peak / len(result.trajectory) <= 100


def test_csv_writer_peak_is_one_block_at_any_length(tmp_path):
    # with the trajectory built, the writer holds about one block of CHUNK
    # rows: its peak reads the same at 20,000 and 200,000 rows, to within a
    # block of the file, and stays under 1.4 MiB
    shipped = load_scenario(SCENARIO_DIR / "nm_tracking.json")
    peaks = []
    for samples in (20_000, 200_000):
        ticks = samples / (shipped.samples_per_tick + 1)
        traj = simulate(replace(shipped, t_end=round(ticks * shipped.actuator.t_c, 1)))
        path = tmp_path / f"{samples}.csv"
        write_trajectory_csv(traj, path)  # builds the formatting tables
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(traj) >= 0.99 * samples
    block = CHUNK * path.stat().st_size / len(traj)
    assert abs(peaks[1] - peaks[0]) <= block
    assert max(peaks) <= 1.4 * 2**20


# every variant, both bound scopes (sdm_ic_slow: steady state) and none (sdm_windup)
PLOTTED = ("nm_tracking", "sdm_windup", "sdm_ic_fast", "sdm_ic_slow", "sdm_jm",
           "nm_prep_gate", "nm_gas_gun")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(PLOTTED), samples_per_tick=st.integers(1, 12),
       samples=st.floats(2.0, 12_000.0), x0_over_r=st.floats(-1.0, 1.0))
# x0 = r, the fixed point, within one tick: x is flat at 5e19, where the
# panel's band lo + 1 rounded back to lo and every point read nan
@example(name="sdm_windup", samples_per_tick=2, samples=2.0, x0_over_r=1.0)
def test_plot_keeps_each_pixel_columns_extremes(tmp_path_factory, name, samples_per_tick,
                                                samples, x0_over_r):
    # up to 6 blocks; at 1 sample a tick, about 7 ticks a pixel column
    shipped = load_scenario(SCENARIO_DIR / f"{name}.json")
    ticks = samples / (samples_per_tick + 1)
    scenario = replace(shipped, samples_per_tick=samples_per_tick, x0=x0_over_r * shipped.plant.r,
                       t_end=ticks * shipped.actuator.t_c)
    result = run_scenario(scenario)
    traj, cert = result.trajectory, result.certificate
    path = tmp_path_factory.mktemp("plot") / "plot.svg"
    render_svg(traj, cert, path)
    svg = path.read_text()
    ref = full_resolution(traj, cert)
    polylines = svg_polylines(svg)
    assert len(polylines) == len(ref["series"])
    x_points, n_points, *bounds = polylines
    assert len(x_points) == len(n_points)
    assert len({len(points) for points in bounds}) <= 1  # upper and lower share rows
    kept = m4_rows(traj, cert)
    blocks = -(-len(traj) // CHUNK)
    for points, (rows, values, full) in zip(polylines, ref["series"]):
        assert is_subsequence(points, full)
        drawn = set(points)
        by_col = {}
        for k, (i, v) in enumerate(zip(rows, values)):
            by_col.setdefault(ref["col"][i], []).append((v, k))
        for members in by_col.values():
            lowest, highest = min(members)[0], max(members)[0]
            assert full[members[0][1]] in drawn and full[members[-1][1]] in drawn
            assert any(full[k] in drawn for v, k in members if v == lowest)
            assert any(full[k] in drawn for v, k in members if v == highest)
        # the rows of m4_rows, exactly on one block; a column that two blocks
        # split keeps at most 8 rows more: a first and a last row, and the
        # extremes of x and of two bounds
        expected = [full[i - rows[0]] for i in kept if i >= rows[0]]
        if blocks == 1:
            assert points == expected
        else:
            assert len(expected) <= len(points) <= len(expected) + 8 * (blocks - 1)
    fire_cols = {}
    for i in np.flatnonzero(traj.fired).tolist():
        fire_cols.setdefault(ref["col"][i], ref["px"][i])
    assert svg_markers(svg) == list(fire_cols.values())


@pytest.mark.parametrize("samples", [20_000, 200_000])
def test_plot_size_does_not_grow_with_the_run(tmp_path, samples):
    # at most 4 + 2 rows a column (x and one varying bound), 801 columns, plus
    # a few per block; a plot of every row would take 55 B a sample
    shipped = load_scenario(SCENARIO_DIR / "nm_tracking.json")
    ticks = samples / (shipped.samples_per_tick + 1)
    scenario = replace(shipped, t_end=round(ticks * shipped.actuator.t_c, 1))
    result = run_scenario(scenario, tmp_path, svg=True)
    assert len(result.trajectory) >= 0.99 * samples
    assert (tmp_path / "plot.svg").stat().st_size <= PLOT_BYTES_CAP


class TestSweep:
    def test_threshold_sweep_monotone_steady_mean(self, nm_tracking):
        rows = sweep(nm_tracking, "delta", [1.0, 1e15, 1.569e16])
        means = [row["mean_x_steady"] for row in rows]
        assert means == sorted(means)

    def test_tick_sweep_flips_feasibility_at_the_limit(self, nm_small_threshold):
        # the admissible threshold range shrinks to nothing at the limit, so
        # the flip is only exactly at tc_max for a near-zero threshold
        limit = tc_max(nm_small_threshold.plant, Variant.NM)
        rows = sweep(nm_small_threshold, "t_c", [limit * 0.999, limit * 1.001])
        assert [row["feasible"] for row in rows] == [True, False]

    def test_empty_axis_rejected(self, nm_tracking):
        with pytest.raises(EmptyAxis):
            sweep(nm_tracking, "delta", [])

    def test_sweep_writes_csv(self, tmp_path, nm_tracking):
        sweep(nm_tracking, "delta", [1e15, 1.569e16], outdir=tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("delta,feasible,")
        assert len(lines) == 3
