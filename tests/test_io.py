import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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
    sweep,
    tc_max,
)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
        x_py, _, upper_py, lower_py = ([float(point.split(",")[1]) for point in points.split()]
                                       for points in re.findall(r'points="([^"]*)"', svg))
        assert len(x_py) == len(lower_py) == len(upper_py) == len(result.trajectory)
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
        for points in dashed:
            px = [point.split(",")[0] for point in points.split()]
            assert px[0] == start and len(px) == len(traj) - first
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
