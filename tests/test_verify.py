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
from pelletsim.verify import CheckWitness, certified_bound

from conftest import make_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run(scenario):
    cert = certify(scenario.plant, scenario.actuator, scenario.controller)
    traj = simulate(scenario)
    return traj, cert


def hand_built(scenario, j, x, fired, xi=None):
    """A trajectory of post-jump rows only, row i at t = j[i]*t_c: the rows
    that the tick-counted checks read."""
    t = np.asarray(j) * scenario.actuator.t_c
    return Trajectory(t, j, x, [0.0] * len(j) if xi is None else xi, fired, scenario.plant,
                      scenario.controller, scenario.actuator)


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

    @pytest.mark.parametrize("slack, ok", [(0.5e-9, True), (2e-9, False)])
    def test_upper_bound_has_a_slack_of_1e_9_r(self, nm_tracking, slack, ok):
        traj, cert = run(nm_tracking)
        upper = float(np.broadcast_to(certified_bound(traj, cert)[2], traj.x.shape)[-1])
        x = np.append(traj.x[:-1], upper + slack * traj.plant.r)
        assert check_envelope(replace(traj, x=x), cert)[0] is ok

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

    # nm_prep_gate: tau_d/t_c = 3.19, so a gap of 3 ticks is within tau_d and 4
    # is not; the cycle opens at x = 0.05 alpha, just above 0
    @pytest.mark.parametrize("gap, ok", [(3, True), (4, False)])
    def test_gaps_are_counted_in_whole_ticks(self, nm_prep_gate, gap, ok):
        cert = certify(nm_prep_gate.plant, nm_prep_gate.actuator, nm_prep_gate.controller)
        assert int(cert.tau_d / nm_prep_gate.actuator.t_c) == 3
        x = [-1e19, 0.05 * nm_prep_gate.plant.alpha, 0.0]
        traj = hand_built(nm_prep_gate, [0, 5, 5 + gap], x, [False, True, True])
        verdict, witness = check_dwell(traj, cert)
        assert verdict is ok
        if not ok:
            assert (witness.t, witness.j, witness.value, witness.upper, witness.note) == (
                traj.t[1], 5, 4.0, cert.tau_d / nm_prep_gate.actuator.t_c, "ticks to the next fire")

    # a cycle with no later fire is due at the tick after the run's last.
    # Two ticks after it opened, its next fire may still come at tick 3,
    # within 3.19; three ticks after, the earliest is tick 4, and it fails
    # there, though its 3 ticks of time (0.021 s) are within tau_d
    @pytest.mark.parametrize("ticks, ok", [(2, True), (3, False)])
    def test_a_trailing_cycle_fails_at_its_last_tick_within_the_bound(self, nm_prep_gate, ticks,
                                                                       ok):
        cert = certify(nm_prep_gate.plant, nm_prep_gate.actuator, nm_prep_gate.controller)
        x = [-1e19, 0.05 * nm_prep_gate.plant.alpha, 1e18]
        traj = hand_built(nm_prep_gate, [0, 5, 5 + ticks], x, [False, True, False])
        assert traj.t_end - traj.t[1] < cert.tau_d
        verdict, witness = check_dwell(traj, cert)
        assert verdict is ok
        if not ok:
            assert (witness.j, witness.value, witness.note) == (
                5, 4.0, "ticks to the end without a fire")


class TestContraction:
    def test_reference_run_contracts(self, nm_tracking):
        traj, cert = run(nm_tracking)
        ok, _ = check_contraction(traj, cert)
        assert ok is True

    def test_only_for_reset_variant(self, jm_tracking):
        traj, cert = run(jm_tracking)
        assert check_contraction(traj, cert) == (None, None)

    # a cycle opened at x = 0.05 alpha must end at or below gamma*x, with a
    # slack of 1e-9 r
    @pytest.mark.parametrize("slack, ok", [(0.5e-9, True), (2e-9, False)])
    def test_a_cycle_contracts_within_a_slack_of_1e_9_r(self, nm_tracking, slack, ok):
        cert = certify(nm_tracking.plant, nm_tracking.actuator, nm_tracking.controller)
        start = 0.05 * nm_tracking.plant.alpha
        end = cert.gamma * start + slack * nm_tracking.plant.r
        traj = hand_built(nm_tracking, [0, 1, 2], [-1e19, start, end], [False, True, True])
        verdict, witness = check_contraction(traj, cert)
        assert verdict is ok
        if not ok:
            assert (witness.t, witness.j, witness.value, witness.upper) == (
                traj.t[2], 2, end, cert.gamma * start)


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

    # one fire that leaves a residue of a threshold or more, and only that
    @pytest.mark.parametrize("residue, wound", [(1.0, True), (1.5, True),
                                                (np.nextafter(1.0, 0.0), False)])
    def test_a_fire_leaving_a_threshold_winds_up(self, sdm_windup, residue, wound):
        delta = sdm_windup.controller.delta
        traj = hand_built(sdm_windup, [0, 1, 2], [1e19, 0.0, 0.0], [False, True, False],
                          xi=[0.0, residue * delta, 5.0 * delta])
        assert detect_windup(traj) is wound

    # a start below -alpha is a climb, not wind-up.  Plain SDM from -0.9 r
    # still winds up (residues up to 7.7 thresholds); from -1e28 it has not
    # fired by t_end
    @pytest.mark.parametrize("start", ["-0.9r", "-1e28"])
    @pytest.mark.parametrize("name", [path.stem for path in sorted(SCENARIO_DIR.glob("*.json"))])
    def test_a_start_below_minus_alpha_is_not_windup(self, name, start):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
        x0 = -0.9 * scenario.plant.r if start == "-0.9r" else -1e28
        traj = simulate(replace(scenario, x0=x0))
        assert detect_windup(traj) is (name == "sdm_windup" and start == "-0.9r")

    def test_a_reset_from_past_the_threshold_is_not_windup(self):
        # ROADMAP direction 4's repro: the first tick fires from xi0 > delta
        scenario = load_scenario(SCENARIO_DIR / "nm_tracking.json")
        assert not detect_windup(simulate(replace(scenario, x0=-1.5e19, xi0=3.2e16)))


class TestZeno:
    def test_holds_for_all_variants(self, plant):
        for variant in Variant:
            sc = make_scenario(plant, variant, 1.569e16, 1 / 70, x0=5e19, t_end=0.3)
            traj, _ = run(sc)
            ok, _ = check_zeno(traj)
            assert ok

    def test_a_jump_count_past_the_tick_count_fails(self, nm_tracking):
        # at t = t_c, j may reach floor(t/t_c) + 1 = 2, and j = 3 fails
        traj = hand_built(nm_tracking, [0, 1, 2], [5e19] * 3, [False] * 3)
        assert check_zeno(traj) == (True, None)
        t_c = nm_tracking.actuator.t_c
        ahead = replace(traj, j=[0, 3, 2])
        assert check_zeno(ahead) == (False, CheckWitness(t_c, 3, 3.0, None, 2.0))


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
        with pytest.raises(GridMismatch, match="tick periods differ"):
            compare(a, b)
        with pytest.raises(GridMismatch, match="tick counts differ: 70 vs 35"):
            compare(a, simulate(replace(nm_tracking, t_end=0.5)))
        # times 1 + 1.5e-10, tick i's pre-jump row at (i + 1) t_c moves past
        # the 1e-9 t_c that compare allows from i = 6 on
        with pytest.raises(GridMismatch, match="tick 6 occurs at different times"):
            compare(a, replace(a, t=a.t * (1 + 1.5e-10)))

    def test_x_deviations_are_scaled_by_alpha_near_zero(self, nm_tracking):
        a = simulate(nm_tracking)
        row = a.jump_rows()[-1] - 1  # the last pre-jump row, with |x| < alpha
        assert abs(a.x[row]) < a.plant.alpha
        x = a.x.copy()
        x[row] += 2e-6 * a.plant.alpha
        result = compare(a, replace(a, x=x))
        assert result.max_rel_x == pytest.approx(2e-6, rel=1e-6)
        assert not result.passed


class TestMetricsAndReport:
    def test_settling_time_finite_for_certified_run(self, nm_tracking):
        traj, cert = run(nm_tracking)
        m = compute_metrics(traj)
        assert m.settling_time is not None
        assert 0.0 < m.settling_time < traj.t_end
        assert m.pellet_count == len(traj.t[traj.fired])

    # from -1.5 alpha the run climbs into the band within the first tick: at
    # 10 samples a tick the first sample inside is at 0.6 t_c, at 1 sample a
    # tick the pre-jump row at t_c
    @pytest.mark.parametrize("samples_per_tick, settling", [(1, 1.0), (10, 0.6)])
    def test_settling_time_is_the_row_after_the_last_one_outside(self, nm_tracking,
                                                                 samples_per_tick, settling):
        scenario = replace(nm_tracking, x0=-1.5 * nm_tracking.plant.alpha,
                           samples_per_tick=samples_per_tick)
        m = compute_metrics(simulate(scenario))
        assert m.settling_time == pytest.approx(settling * nm_tracking.actuator.t_c, rel=1e-12)

    def test_report_aggregates_and_passes(self, nm_tracking):
        traj, cert = run(nm_tracking)
        rep = report(traj, cert)
        assert rep.all_applicable_pass()
        assert rep.failures() == []
        d = rep.as_dict()
        assert list(d) == ["envelope", "zeno", "dwell", "contraction", "windup_detected", "metrics"]
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
