from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pelletsim import (
    ControllerSpec,
    GridMismatch,
    Trajectory,
    Variant,
    certify,
    check_contraction,
    check_dwell,
    check_envelope,
    check_zeno,
    compare,
    compute_metrics,
    detect_windup,
    load_scenario,
    report,
    simulate,
)

from conftest import make_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run(scenario):
    cert = certify(scenario.plant, scenario.actuator, scenario.controller)
    traj = simulate(scenario)
    return traj, cert


class TestEnvelope:
    def test_certified_run_passes(self, nm_tracking):
        traj, cert = run(nm_tracking)
        ok, witness = check_envelope(traj, cert)
        assert ok is True and witness is None

    def test_uncertified_run_not_applicable(self, sdm_windup):
        traj, cert = run(sdm_windup)
        assert check_envelope(traj, cert) == (None, None)

    def test_open_loop_with_forced_certificate_fails_with_witness(self, plant):
        # no pellets ever fire, so x climbs toward r while the claimed
        # envelope decays toward alpha
        sc = make_scenario(plant, Variant.NM, 1e40, 1 / 70, x0=2e19, t_end=1.0)
        traj = simulate(sc)
        forced = certify(plant, sc.actuator, ControllerSpec(Variant.NM, 1.569e16))
        assert forced.feasible
        ok, witness = check_envelope(traj, forced)
        assert ok is False
        assert witness is not None
        assert witness.value > witness.upper

    def test_prefixes_of_passing_run_pass(self, nm_tracking):
        traj, cert = run(nm_tracking)
        for cut in (3, len(traj) // 2, len(traj)):
            prefix = Trajectory(traj.t[:cut], traj.j[:cut], traj.x[:cut], traj.xi[:cut],
                                traj.fired[:cut], traj.plant, traj.controller, traj.actuator)
            ok, _ = check_envelope(prefix, cert)
            assert ok is True

    @pytest.mark.parametrize("factor", [1.5, -1.5])
    def test_far_below_the_reference_each_row_has_its_bounds_slack(self, nm_tracking, factor):
        # from x0 = -1e28 = -1e9 alpha a slack of 1e-9 |x0| would be alpha
        # itself; the last row's bound is (-alpha, alpha] and its slack 1e-9 r
        traj, cert = run(replace(nm_tracking, x0=-1e28, t_end=3.0))
        assert check_envelope(traj, cert) == (True, None)
        alpha = traj.plant.alpha
        ok, witness = check_envelope(replace(traj, x=np.append(traj.x[:-1], factor * alpha)), cert)
        assert ok is False
        assert (witness.t, witness.value, witness.lower, witness.upper) == (
            traj.t[-1], factor * alpha, -alpha, alpha)

    def test_widened_bound_checked_on_steady_window(self, ic_slow):
        traj, cert = run(ic_slow)
        assert cert.bound_scope == "steady_state"
        ok, _ = check_envelope(traj, cert)
        assert ok is True
        # the steady error exceeds alpha here, only the widened bound holds
        assert compute_metrics(traj).max_x_steady > traj.plant.alpha

    def test_metrics_read_the_rows_the_steady_state_bound_is_checked_on(self, ic_slow):
        # t_end = 1 + 5e-11 puts the two rows at t = 0.5 just before t_end/2:
        # outside the window, for the check and the metrics alike
        traj, cert = run(replace(ic_slow, t_end=1.0 + 5e-11))
        steady = traj.x[traj.t >= 0.5 * traj.t_end]
        assert np.count_nonzero(traj.t == 0.5) == 2 and len(steady) == 386
        m = compute_metrics(traj)
        assert (m.min_x_steady, m.max_x_steady, m.mean_x_steady) == (
            steady.min(), steady.max(), steady.mean())
        assert check_envelope(traj, cert) == (True, None)

    def test_a_row_just_before_the_window_is_neither_checked_nor_measured(self, ic_slow):
        # the row at t = 0.5 - 1e-10 lies outside the widened bound; it is
        # not in the window, so the check passes and no metric sees it
        _, cert = run(ic_slow)
        lower, upper = cert.bound_interval
        traj = Trajectory([0.0, 0.5 - 1e-10, 0.5, 1.0], [0, 0, 0, 0], [0.0, 2 * upper, upper, 0.0],
                          [0.0] * 4, [False] * 4, ic_slow.plant, ic_slow.controller,
                          ic_slow.actuator)
        assert check_envelope(traj, cert) == (True, None)
        m = compute_metrics(traj)
        assert (m.min_x_steady, m.max_x_steady, m.mean_x_steady) == (0.0, upper, upper / 2)
        # and a row in the window that lies outside the bound fails the check there
        outside = Trajectory(traj.t, traj.j, [0.0, 0.0, 2 * upper, 0.0], traj.xi, traj.fired,
                             traj.plant, traj.controller, traj.actuator)
        ok, witness = check_envelope(outside, cert)
        assert ok is False
        assert (witness.t, witness.value, witness.lower, witness.upper) == (
            0.5, 2 * upper, lower, upper)
        assert witness.note == "steady-state bound"


# Certified runs whose envelope fails: certify sees neither the initial state
# nor the horizon (ROADMAP direction 4).  From xi0 > delta the first tick
# fires whatever x is, and x falls to -1.635e19 < -alpha at t = t_c; the
# steady-state bound, applied from t_end/2 of a 21-tick run, fails at
# t = 0.154 with x = 1.905e19 above 1.857e19.  A mend flips both.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the certificate assumes xi0 < delta and a long enough horizon")
@pytest.mark.parametrize("name, changes", [
    pytest.param("nm_tracking", {"x0": -1.5e19, "xi0": 3.2e16}, id="xi0-past-the-threshold"),
    pytest.param("sdm_ic_slow", {"t_end": 0.3}, id="short-horizon"),
])
def test_feasible_certificate_holds_on_the_run(name, changes):
    traj, cert = run(replace(load_scenario(SCENARIO_DIR / f"{name}.json"), **changes))
    rep = report(traj, cert)
    assert not cert.feasible or rep.all_applicable_pass(), rep.witnesses


class TestDwell:
    def test_certified_gaps_within_bound(self, nm_tracking):
        traj, cert = run(nm_tracking)
        ok, _ = check_dwell(traj, cert)
        assert ok is True
        # the bound only covers gaps opened with positive error; cycles opened
        # below zero may wait longer while the error climbs back
        fire_t, fire_x = traj.t[traj.fired], traj.x[traj.fired]
        gaps = [b - a for a, b, x in zip(fire_t, fire_t[1:], fire_x) if x > 0.0]
        assert gaps and max(gaps) <= cert.tau_d + 1e-9

    def test_single_pellet_vacuous(self, plant):
        sc = make_scenario(plant, Variant.NM, 1.569e16, 1 / 70, x0=5e19, t_end=0.02)
        traj, cert = run(sc)
        ok, _ = check_dwell(traj, cert)
        assert ok is True

    def test_prep_gate_gaps_within_bound(self, nm_prep_gate):
        traj, cert = run(nm_prep_gate)
        ok, _ = check_dwell(traj, cert)
        assert ok is True

    def test_not_applicable_without_certificate(self, sdm_windup):
        traj, cert = run(sdm_windup)
        assert check_dwell(traj, cert) == (None, None)


class TestContraction:
    def test_reference_run_contracts(self, nm_tracking):
        traj, cert = run(nm_tracking)
        ok, _ = check_contraction(traj, cert)
        assert ok is True

    def test_only_for_reset_variant(self, jm_tracking):
        traj, cert = run(jm_tracking)
        assert check_contraction(traj, cert) == (None, None)


class TestWindup:
    def test_plain_sigma_delta_detected(self, sdm_windup):
        traj, _ = run(sdm_windup)
        assert detect_windup(traj)

    def test_reset_variant_clean(self, nm_tracking):
        traj, _ = run(nm_tracking)
        assert not detect_windup(traj)

    def test_multi_subtraction_variant_clean(self, jm_tracking):
        traj, _ = run(jm_tracking)
        assert not detect_windup(traj)


class TestZeno:
    def test_holds_for_all_variants(self, plant):
        for variant in Variant:
            sc = make_scenario(plant, variant, 1.569e16, 1 / 70, x0=5e19, t_end=0.3)
            traj, _ = run(sc)
            ok, _ = check_zeno(traj)
            assert ok


class TestCompare:
    def test_identical_trajectories_are_zero_apart(self, nm_tracking):
        a, b = simulate(nm_tracking), simulate(nm_tracking)
        result = compare(a, b)
        assert result.max_rel_x == 0.0
        assert result.max_rel_xi == 0.0
        assert result.fire_mismatch is None

    def test_different_variants_deviate_but_envelope_verdicts_match(self, nm_tracking, jm_tracking):
        ta, ca = run(nm_tracking)
        tb, cb = run(jm_tracking)
        result = compare(ta, tb)
        assert result.max_rel_x > 0.0
        assert check_envelope(ta, ca)[0] is True
        assert check_envelope(tb, cb)[0] is True

    def test_grid_mismatch_raises(self, nm_tracking, ic_fast):
        a, b = simulate(nm_tracking), simulate(ic_fast)
        with pytest.raises(GridMismatch):
            compare(a, b)


class TestMetricsAndReport:
    def test_settling_time_finite_for_certified_run(self, nm_tracking):
        traj, cert = run(nm_tracking)
        m = compute_metrics(traj)
        assert m.settling_time is not None
        assert 0.0 < m.settling_time < traj.t_end
        assert m.pellet_count == len(traj.t[traj.fired])

    def test_report_aggregates_and_passes(self, nm_tracking):
        traj, cert = run(nm_tracking)
        rep = report(traj, cert)
        assert rep.all_applicable_pass()
        assert rep.failures() == []
        d = rep.as_dict()
        assert d["envelope"] == "pass"
        assert d["windup_detected"] is False

    def test_infeasible_config_reports_not_applicable_never_pass(self, plant):
        sc = make_scenario(plant, Variant.NM, 1e15, 0.03, x0=5e19)  # t_c beyond the limit
        traj, cert = run(sc)
        assert not cert.feasible
        rep = report(traj, cert)
        assert rep.verdicts["envelope"] is None
        assert rep.as_dict()["envelope"] == "not_applicable"

    def test_threshold_placement_inside_the_bound(self, nm_tracking, nm_small_threshold):
        big, _ = run(nm_tracking)
        small, _ = run(nm_small_threshold)
        m_big, m_small = compute_metrics(big), compute_metrics(small)
        assert m_big.mean_x_steady > m_small.mean_x_steady
