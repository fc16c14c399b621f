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


def _module_cli(*args, **kwargs):
    """`python -m pelletsim ARGS` in a child process, with this tree's source."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "pelletsim", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def test_certify_prints_certificate(capsys):
    assert main(["certify", NM]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["tau_d"] == pytest.approx(0.0223143551, rel=1e-6)


def test_simulate_writes_artifacts(tmp_path, capsys):
    code = main(["simulate", NM, "-o", str(tmp_path), "--svg", "--samples-per-tick", "4"])
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "plot.svg").exists()


def test_verify_reports_checks(tmp_path, capsys):
    assert main(["verify", NM, "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "envelope: pass" in out
    assert "windup_detected: False" in out


def test_verify_exit_zero_for_uncertified_but_clean_run(tmp_path, capsys):
    # wind-up variant has no applicable envelope check; nothing fails
    assert main(["verify", SDM, "-o", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["verify"]["envelope"] == "not_applicable"
    assert doc["verify"]["windup_detected"] is True


def test_sweep_writes_table(tmp_path, capsys):
    code = main([
        "sweep", NM, "-o", str(tmp_path), "--axis", "delta",
        "--values", "1.0,1e15,1.569e16", "--samples-per-tick", "2",
    ])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4


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
    ["simulate", "-o"],
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
    with pytest.raises(SystemExit) as exc:
        main(["compare-oracle", NM, *argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


# certify and compare-oracle read no intra-tick samples; sweep draws no plot
@pytest.mark.parametrize("verb, option, rest", [
    pytest.param("certify", "--samples-per-tick", ["1"], id="certify-samples-per-tick"),
    pytest.param("compare-oracle", "--samples-per-tick", ["1"],
                 id="compare-oracle-samples-per-tick"),
    # with the options sweep requires, so that --svg is the one it rejects
    pytest.param("sweep", "--svg", ["--axis", "delta", "--values", "1e15"], id="sweep-svg"),
])
def test_verbs_take_no_option_they_would_not_read(verb, option, rest, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, NM, option, *rest])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


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
                 "--values", "1e15", "--samples-per-tick", "2"]) == 0
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
