import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pelletsim.cli import _parser, main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
NM = str(SCENARIO_DIR / "nm_tracking.json")
SDM = str(SCENARIO_DIR / "sdm_windup.json")
SRC = str(SCENARIO_DIR.parent / "src")


def strict_json(text: str):
    """json.loads that refuses NaN and the infinities, which JSON lacks."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _module_cli(*args, **kwargs):
    """`python -W error -m pelletsim ARGS` in a child process, with this tree's source."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-W", "error", "-m", "pelletsim", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def test_certify_prints_certificate(capsys):
    assert main(["certify", NM]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["tau_d"] == pytest.approx(0.0223143551, rel=1e-6)


def test_simulate_writes_artifacts(tmp_path, capsys):
    # verify is the verb that simulates and writes the run's artifacts
    code = main(["verify", NM, "-o", str(tmp_path), "--svg"])
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "plot.svg").exists()


def test_verify_reports_checks(tmp_path, capsys):
    assert main(["verify", NM, "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "envelope: pass" in out
    assert "windup_detected: False" in out


def test_verify_without_svg_removes_an_earlier_plot(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", NM, "-o", str(out), "--svg"]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(written) == ["plot.svg", "summary.json", "trajectory.csv"]
    # a run refused for a number JSON cannot hold writes and removes nothing
    refused = _nm_with({"plant": {"r": 1.7e308}}, tmp_path, SCENARIO_DIR / "sdm_ic_fast.json")
    assert main(["verify", refused, "-o", str(out)]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written
    assert main(["verify", NM, "-o", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["summary.json", "trajectory.csv"]


def test_verify_exit_zero_for_uncertified_but_clean_run(tmp_path, capsys):
    # wind-up variant has no applicable envelope check; nothing fails
    assert main(["verify", SDM, "-o", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["verify"]["envelope"] == "not_applicable"
    assert doc["verify"]["windup_detected"] is True


def test_sweep_writes_table(tmp_path, capsys):
    code = main([
        "sweep", NM, "-o", str(tmp_path), "--axis", "delta",
        "--values", "1.0,1e15,1.569e16",
    ])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4


SHIPPED = sorted(SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_every_scenario_verifies(path, tmp_path, capsys):
    # exit 1 means a check failed, exit 2 unusable input; --svg runs the
    # block-streamed plot writer on every scenario
    assert main(["verify", str(path), "--svg", "-o", str(tmp_path)]) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["plot.svg", "summary.json",
                                                          "trajectory.csv"]
    strict_json((tmp_path / "summary.json").read_text())


# the swept values span the thresholds, tick periods and references of the
# shipped scenarios
SWEEPS = {
    "delta": "1,4e14,1.569e16,2.755e16",
    "t_c": "0.001,0.007,0.0142857142857,0.03",
    "r": "7e19,1e20",
}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_every_scenario_certifies_and_sweeps(path, tmp_path, capsys):
    assert main(["certify", str(path)]) == 0
    strict_json(capsys.readouterr().out)
    for axis, values in SWEEPS.items():
        outdir = tmp_path / axis
        assert main(["sweep", str(path), "--axis", axis, "--values", values, "-o", str(outdir)]) == 0
        rows = (outdir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + len(values.split(","))


# the RK4 sums are closed forms, so a fine step costs about what the default does
@pytest.mark.parametrize("steps", [[], ["--oracle-steps", "1000000"]], ids=["default", "1e6"])
@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_every_scenario_matches_the_oracle(path, steps, capsys):
    assert main(["compare-oracle", str(path), *steps]) == 0


def test_compare_oracle_within_tolerance(capsys):
    assert main(["compare-oracle", NM, "--oracle-steps", "200"]) == 0
    out = capsys.readouterr().out
    assert "max relative deviation" in out


def test_missing_file_is_usage_error(capsys):
    assert main(["certify", "no_such_file.json"]) == 2


def test_invalid_scenario_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "plant": {"tau": 0.1, "r": 1e19, "alpha": 1e19},
        "actuator": {"t_c": 0.0142857},
        "controller": {"variant": "NM", "delta": 1.0},
        "init": {"x0": 1e19},
        "sim": {"t_end": 0.1},
    }))
    assert main(["certify", str(bad)]) == 2


def test_directory_as_scenario_is_usage_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("section, field, value", [
    ("init", "x0", float("nan")),
    ("init", "xi0", float("inf")),
    ("init", "xi0", float("nan")),
    ("sim", "t_end", float("inf")),
])
def test_non_finite_initial_state_or_horizon_is_usage_error(section, field, value, tmp_path, capsys):
    doc = json.loads(Path(NM).read_text())
    doc[section][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # writes NaN/Infinity, which json.loads reads back
    assert main(["verify", str(bad), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


# horizons rejected before simulate sizes its arrays: t_end/t_c beyond the
# float range, or more samples than an array can hold; tau is so short that
# even the 1e-300 tick keeps the reference ceiling r_max a float
@pytest.mark.parametrize("argv, sim, actuator", [
    (["verify"], {"t_end": 1e300}, {}),
    (["certify"], {"t_end": 1e300}, {}),
    (["verify"], {"t_end": 1e300}, {"t_c": 1e-10}),
    (["compare-oracle"], {"t_end": 1e300}, {"t_c": 1e-10}),
    (["sweep", "--axis", "t_c", "--values", "1e-300"], {}, {}),
])
def test_a_horizon_no_array_can_hold_is_usage_error(argv, sim, actuator, tmp_path, capsys):
    doc = json.loads(Path(NM).read_text())
    doc["plant"]["tau"] = 1e-290
    doc["sim"].update(sim)
    doc["actuator"].update(actuator)
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(doc))
    outdir = ["-o", str(tmp_path / "out")] if argv[0] in ("verify", "sweep") else []
    assert main([argv[0], str(bad), *argv[1:], *outdir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_end" in err and "Traceback" not in err


def _nm_with(sections, tmp_path, base=NM):
    """Path of a copy of nm_tracking.json, or of `base`, with the given
    fields replaced."""
    doc = json.loads(Path(base).read_text())
    for section, fields in sections.items():
        doc[section].update(fields)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


# spec values whose products or ratios leave the float range: tau*r, which
# the flow scales r - x by, t_prep/t_c, which prep_ticks counts, and
# alpha*tau/t_c, to which the certificate's r_max grows as t_c shrinks
@pytest.mark.parametrize("verb", ["certify", "verify"])
@pytest.mark.parametrize("sections, quantity", [
    ({"plant": {"tau": 1e308}}, "tau"),
    ({"actuator": {"t_c": 1e-300, "t_prep": 1e300}, "sim": {"t_end": 1e-299}}, "t_prep"),
    ({"actuator": {"t_c": 1e-300}, "sim": {"t_end": 1e-299}}, "r_max"),
])
def test_spec_overflow_is_usage_error(verb, sections, quantity, tmp_path, capsys):
    outdir = ["-o", str(tmp_path / "out")] if verb == "verify" else []
    assert main([verb, _nm_with(sections, tmp_path), *outdir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and quantity in err and "Traceback" not in err


@pytest.mark.parametrize("sections", [
    {"actuator": {"t_c": 1e-18}, "sim": {"t_end": 1e-17}},
    {"plant": {"tau": 1e100}},
])
def test_tick_short_against_tau_certifies(sections, tmp_path, capsys):
    # l*t_c/tau below about 1e-16, where e**y - 1 rounds to 0
    assert main(["certify", _nm_with(sections, tmp_path)]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["r_max"])


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["verify", "-o"],
    ["compare-oracle"],
    ["sweep", "--axis", "delta", "--values", "1", "-o"],
], ids=lambda argv: argv[0])
def test_tick_that_vanishes_against_tau_is_usage_error(argv, tmp_path, capsys):
    # t_c/tau rounds to 0, where r_max would divide by zero
    sections = {"plant": {"tau": 1e30}, "actuator": {"t_c": 1e-300}, "sim": {"t_end": 1e-299}}
    outdir = [str(tmp_path / "out")] if argv[-1] == "-o" else []
    assert main([argv[0], _nm_with(sections, tmp_path), *argv[1:], *outdir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_c" in err and "Traceback" not in err


@pytest.mark.parametrize("base, sections", [
    pytest.param(SCENARIO_DIR / "nm_prep_gate.json", {"actuator": {"t_prep": 100.0}}, id="prep"),
    pytest.param(NM, {"actuator": {"t_c": 100.0}, "sim": {"t_end": 1000.0}}, id="tick"),
])
def test_tick_far_past_the_limit_is_infeasible(base, sections, tmp_path, capsys):
    # y = l*t_c/tau = 1000, where e**y is past the float range
    path = _nm_with(sections, tmp_path, base)
    assert main(["certify", path]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["feasible"] is False
    assert cert["delta_max"] == 0.0 and cert["r_max"] == 1e19  # alpha
    assert main(["verify", path, "-o", str(tmp_path / "out")]) == 0
    summary = (tmp_path / "out" / "summary.json").read_text()
    assert "Infinity" not in summary and "NaN" not in summary
    assert json.loads(summary)["certificate"] == cert


# a number past the float range in summary.json or the certificate: at r =
# 1.7e308, SDM_IC's (r - alpha)*e**(2 t_c/tau) takes delta_max to -inf.  Run
# as a child process, where a warning would end in a traceback
@pytest.mark.parametrize("argv, base, sections, error", [
    pytest.param(["verify", "-o"], SCENARIO_DIR / "sdm_ic_fast.json", {"plant": {"r": 1.7e308}},
                 "certificate.delta_max is -inf", id="summary"),
    pytest.param(["certify"], SCENARIO_DIR / "sdm_ic_fast.json", {"plant": {"r": 1.7e308}},
                 "delta_max is -inf", id="certificate"),
])
def test_number_json_cannot_hold_is_usage_error(argv, base, sections, error, tmp_path):
    outdir = [str(tmp_path / "out")] if argv[-1] == "-o" else []
    proc = _module_cli(argv[0], _nm_with(sections, tmp_path, base), *argv[1:], *outdir)
    out, err = (stream.decode() for stream in proc.communicate(timeout=120))
    assert proc.returncode == 2
    assert f"error: {error}" in err and "Traceback" not in err
    assert "Infinity" not in out and not (tmp_path / "out" / "summary.json").exists()


def test_steady_mean_near_the_float_range_is_finite(tmp_path):
    # at r = 1.7e308 the steady window's sum overflows (numpy warned of it)
    path = _nm_with({"plant": {"r": 1.7e308}, "init": {"x0": 5e29}}, tmp_path)
    proc = _module_cli("verify", path, "-o", str(tmp_path / "out"))
    proc.communicate(timeout=120)
    assert proc.returncode == 0
    metrics = strict_json((tmp_path / "out" / "summary.json").read_text())["verify"]["metrics"]
    assert metrics["min_x_steady"] <= metrics["mean_x_steady"] == pytest.approx(1.6977e308, 1e-4)


# from an x0 far below -r, a feasible certificate failed its own first row:
# the envelope's lower bound is x0 at t = 0, exclusive, and the slack of
# 1e-9 r fell below half an ulp of x0 (nm_tracking from x0 = -1e27 on)
@pytest.mark.parametrize("name, x0", [("nm_tracking", x0) for x0 in (-1e27, -1e28, -1e30, -1e300)]
                         + [(name, -1e28) for name in ("sdm_jm", "sdm_ic_fast", "nm_gas_gun")],
                         ids=lambda value: str(value))
def test_initial_error_far_below_the_reference_stays_in_its_envelope(name, x0, tmp_path, capsys):
    path = _nm_with({"init": {"x0": x0}}, tmp_path, SCENARIO_DIR / f"{name}.json")
    assert main(["verify", path, "-o", str(tmp_path / "out")]) == 0
    assert "envelope: pass" in capsys.readouterr().out


def test_a_failed_check_exits_1_with_its_witness_under_failures(tmp_path, capsys):
    # ROADMAP direction 4's repro, certified feasible: from xi0 > delta the
    # first tick fires whatever x is, and x falls below -alpha at t = t_c
    # (row j = 1).  Direction 4's mend will make this run pass
    path = _nm_with({"init": {"x0": -1.5e19, "xi0": 3.2e16}}, tmp_path)
    assert main(["verify", path, "-o", str(tmp_path / "out")]) == 1
    assert "envelope: fail" in capsys.readouterr().out
    summary = strict_json((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False
    assert "witnesses" not in summary["verify"]  # a witness is written once, under failures
    [failure] = summary["failures"]
    witness = failure["witness"]
    assert failure["check"] == "envelope" and witness["note"] == "envelope"
    assert (witness["t"], witness["j"]) == (summary["scenario"]["actuator"]["t_c"], 1)
    assert witness["value"] < witness["lower"] == -1e19


def test_a_run_that_cannot_be_allocated_is_usage_error(monkeypatch, tmp_path, capsys):
    # t_end = 1e7 is 7e8 ticks at 10 samples a tick, 57 GiB a column.  A host
    # that overcommits memory may grant that and then end the run by its OOM
    # killer, so the refusal is simulated: a request past 1 GiB raises
    import numpy as np

    empty = np.empty

    def refuse_large(shape, *args, **kwargs):
        if math.prod(shape) * 8 > 2**30:
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_large)
    assert main(["verify", _nm_with({"sim": {"t_end": 1e7}}, tmp_path),
                 "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: t_end=10000000.0 needs 130,900,000,187 bytes of columns, "
                   "which cannot be allocated\n")
    assert not (tmp_path / "out").exists()


def test_compare_oracle_reports_a_fire_decision_mismatch(tmp_path, capsys):
    # ROADMAP direction 5's repro: from x0 = 0.519 r each decision of
    # sdm_ic_slow sits on the threshold tie, and RK4 without event location
    # decides tick 66 the other way
    base = SCENARIO_DIR / "sdm_ic_slow.json"
    r = json.loads(base.read_text())["plant"]["r"]
    assert main(["compare-oracle", _nm_with({"init": {"x0": 0.519 * r}}, tmp_path, base)]) == 1
    assert "fire decision mismatch at tick 66 (t=0.957143s)" in capsys.readouterr().out


def _edited(tmp_path, edit):
    """Path of nm_tracking.json's document as `edit(doc)` returns it."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(json.loads(Path(NM).read_text()))))
    return str(path)


@pytest.mark.parametrize("edit, error", [
    pytest.param(lambda doc: [doc], "top level must be an object", id="top-level"),
    pytest.param(lambda doc: {**doc, "plant": 5}, "section 'plant' must be an object",
                 id="section"),
    pytest.param(lambda doc: {**doc, "actuator": {**doc["actuator"], "mode": "railgun"}},
                 "actuator.mode must be 'centrifuge' or 'gas_gun', got 'railgun'", id="mode"),
    pytest.param(lambda doc: {**doc, "init": {**doc["init"], "xi0": -1.0}},
                 "xi0 must be nonnegative", id="xi0"),
    pytest.param(lambda doc: {**doc, "sim": {**doc["sim"], "t_end": 0.0}},
                 "t_end must be positive", id="t_end-0"),
    pytest.param(lambda doc: {**doc, "sim": {**doc["sim"], "t_end": -1.0}},
                 "t_end must be positive", id="t_end-negative"),
])
def test_a_bad_scenario_is_one_error_line(edit, error, tmp_path, capsys):
    assert main(["verify", _edited(tmp_path, edit), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_sweep_values_that_are_not_numbers_are_usage_error(tmp_path, capsys):
    assert main(["sweep", NM, "-o", str(tmp_path), "--axis", "delta", "--values", "a,b"]) == 2
    assert capsys.readouterr().err == "error: could not parse --values as comma-separated numbers\n"


# RK4's step factor g = 1 + z + z**2/2 + z**3/6 + z**4/24, z = -h/tau, passes 1
# at h = 2.785 tau: nm_tracking's step at 1000 steps a tick is 1.43e-5 s, and
# the oracle diverged with an OverflowError (g = 2.99), a TypeError (g =
# 1.024) or, at h/tau = inf, a ZeroDivisionError.  The tail: at 100 steps,
# 1.49 steps left over once took one step of 2.98 tau (g = 1.33) after ticks
# of 2 tau (g = 0.33); rounded up, two of 1.49 tau (g = 0.27).  0.51 of
# them take one step of 1.02 tau (g = 0.37)
@pytest.mark.parametrize("sections, steps, code", [
    pytest.param({"plant": {"tau": 4e-6}}, [], 2, id="g-2.99"),
    pytest.param({"plant": {"tau": 5.1e-6}}, [], 2, id="g-1.024"),
    pytest.param({"plant": {"tau": 5e-324}}, [], 2, id="g-nan"),
    pytest.param({"plant": {"tau": 5.3e-6}}, [], 0, id="g-0.873"),
    pytest.param({"plant": {"tau": 1 / 70 / 200}, "sim": {"t_end": 5.0149 / 70}},
                 ["--oracle-steps", "100"], 0, id="tail-g-1.33"),
    pytest.param({"plant": {"tau": 1 / 70 / 200}, "sim": {"t_end": 5.0051 / 70}},
                 ["--oracle-steps", "100"], 0, id="tail-g-0.37"),
])
def test_oracle_step_past_rk4s_stability_limit_is_usage_error(sections, steps, code, tmp_path,
                                                              capsys):
    assert main(["compare-oracle", _nm_with(sections, tmp_path), *steps]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and "stability limit" in err if code == 2 else err == ""


@pytest.mark.parametrize("verb", ["verify", "compare-oracle"])
def test_multi_subtraction_at_a_tiny_threshold_runs(verb, tmp_path, capsys):
    # SDM_JM at delta = 1e-300: xi/delta leaves the float range, and the
    # reset keeps fmod's remainder without that quotient
    path = _nm_with({"controller": {"delta": 1e-300}}, tmp_path, SCENARIO_DIR / "sdm_jm.json")
    outdir = ["-o", str(tmp_path / "out")] if verb == "verify" else []
    assert main([verb, path, *outdir]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("digits", [401, 5000])
def test_integer_beyond_float_range_is_usage_error(digits, tmp_path, capsys):
    # 401 digits parse as a Python int that float() cannot hold; 5000 digits
    # exceed what the json module converts at all
    text = Path(NM).read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"r": 5e+19', '"r": 1' + "0" * (digits - 1), 1))
    assert main(["verify", str(bad), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["--oracle-steps", "0"],
    ["--oracle-steps", "-3"],
    ["--rtol", "-1"],
    ["--rtol", "nan"],
    ["--rtol", "inf"],
    ["--oracle-steps", "1" + "0" * 400],  # t_c / steps would overflow
])
def test_bad_compare_oracle_option_is_usage_error(argv, capsys):
    if argv[0] == "--oracle-steps":
        # any integer parses; oracle.simulate_numeric owns the step-count rule
        assert main(["compare-oracle", NM, *argv]) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            main(["compare-oracle", NM, *argv])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


# the scenario file alone sets its samples per tick; sweep draws no plot;
# verify is the one verb that runs a scenario and writes its artifacts
SAMPLES = "unrecognized arguments: --samples-per-tick"


@pytest.mark.parametrize("argv, error", [
    pytest.param(["certify", "--samples-per-tick", "1"], SAMPLES, id="certify-samples-per-tick"),
    pytest.param(["verify", "--samples-per-tick", "1"], SAMPLES, id="verify-samples-per-tick"),
    pytest.param(["sweep", "--samples-per-tick", "1", "--axis", "delta", "--values", "1e15"],
                 SAMPLES, id="sweep-samples-per-tick"),
    pytest.param(["compare-oracle", "--samples-per-tick", "1"], SAMPLES,
                 id="compare-oracle-samples-per-tick"),
    # with the options sweep requires, so that --svg is the one it rejects
    pytest.param(["sweep", "--svg", "--axis", "delta", "--values", "1e15"],
                 "unrecognized arguments: --svg", id="sweep-svg"),
    pytest.param(["simulate", "--svg"], "invalid choice: 'simulate'", id="simulate"),
])
def test_verbs_take_no_option_they_would_not_read(argv, error, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], NM, *argv[1:]])
    assert exc.value.code == 2
    assert error in capsys.readouterr().err


def test_zero_rtol_is_accepted(capsys):
    # a zero tolerance is a legal (if strict) request, not a usage error
    code = main(["compare-oracle", NM, "--oracle-steps", "200", "--rtol", "0"])
    assert code in (0, 1)


def test_compare_oracle_at_10_to_the_30_steps_per_tick(capsys):
    # the RK4 sums are closed forms, so the step count costs only bisection
    assert main(["compare-oracle", NM, "--oracle-steps", "1" + "0" * 30]) == 0


def test_oracle_steps_reach_the_integrator_exactly(monkeypatch, capsys):
    # 2**53 + 1 is no float: a step t_c / N would integrate 2**53 steps
    from pelletsim import oracle

    n_steps, rk4 = [], oracle.integrate_flow_rk4

    def spy(*args):
        n_steps.append(args[5])
        return rk4(*args)

    monkeypatch.setattr(oracle, "integrate_flow_rk4", spy)
    assert main(["compare-oracle", NM, "--oracle-steps", "9007199254740993"]) == 0
    assert n_steps and set(n_steps) == {9007199254740993}


def test_no_option_carries_over_between_calls(tmp_path, capsys):
    # main builds its parser once per process
    assert main(["compare-oracle", NM, "--rtol", "0"]) == 1
    assert main(["compare-oracle", NM]) == 0
    assert _parser().parse_args(["compare-oracle", NM]).rtol == 1e-6
    assert main(["sweep", NM, "-o", str(tmp_path / "sweep"), "--axis", "delta",
                 "--values", "1e15"]) == 0
    assert main(["verify", NM, "-o", str(tmp_path / "verify")]) == 0
    assert not hasattr(_parser().parse_args(["verify", NM]), "axis")


def test_runs_as_module():
    child = _module_cli("--help")
    out, err = child.communicate(timeout=60)
    assert child.returncode == 0, err
    assert b"usage: pelletsim" in out
    assert b"compare-oracle" in out


def test_closed_stdout_ends_quietly(tmp_path):
    # `pelletsim verify ... | head -1`, with the reader gone before any write
    child = _module_cli("verify", NM, "-o", str(tmp_path), cwd=tmp_path)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert err == b""
    assert child.returncode == 141  # as a shell reports SIGPIPE; not 2, bad input
