"""Property-based tests over randomized plants, tunings, and initial states."""

import math
from decimal import Decimal

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pelletsim import (
    ActuatorSpec,
    ControllerSpec,
    HybridState,
    PlantParams,
    Scenario,
    Variant,
    certify,
    check_contraction,
    check_dwell,
    check_envelope,
    delta_max,
    flow_x,
    flow_xi,
    report,
    simulate,
    tick_jump,
)

finite = dict(allow_nan=False, allow_infinity=False)

taus = st.floats(0.01, 1.0, **finite)
alphas = st.floats(1e18, 5e19, **finite)
ratios = st.floats(1.1, 10.0, **finite)
fractions = st.floats(1e-6, 1.0, **finite)


@st.composite
def plants(draw):
    alpha = draw(alphas)
    return PlantParams(tau=draw(taus), r=alpha * draw(ratios), alpha=alpha)


@st.composite
def certified_setups(draw, variant=Variant.NM):
    """Plant, actuator and threshold satisfying every tuning condition."""
    plant = draw(plants())
    t_c = draw(st.floats(0.05, 0.95, **finite)) * plant.tau_d
    dm = delta_max(plant, t_c, variant)
    assume(dm > 0.0)
    delta = draw(fractions) * dm
    assume(delta > 0.0)
    x0 = draw(fractions) * plant.r
    return plant, ActuatorSpec(t_c=t_c), ControllerSpec(variant, delta), x0


@st.composite
def gated_setups(draw, variant=Variant.NM):
    """Certified setups whose preparation time is a whole number l of ticks
    as a user writes it: t_c with three significant digits, t_prep the
    decimal product l*t_c rounded once to a double, so it can land on either
    side of l*t_c summed or multiplied in floating point."""
    plant = draw(plants())
    l = draw(st.integers(1, 8))
    t_c = float(f"{draw(st.floats(0.05, 0.95, **finite)) * plant.tau_d / l:.3g}")
    actuator = ActuatorSpec(t_c=t_c, t_prep=float(Decimal(repr(t_c)) * l))
    dm = delta_max(plant, t_c, variant, l)
    assume(dm > 0.0)
    delta = draw(fractions) * dm
    assume(delta > 0.0)
    return plant, actuator, ControllerSpec(variant, delta), l


@st.composite
def configurations(draw):
    """Any variant, with or without a preparation gate, at tick periods and
    thresholds that reach every branch of certify: the tick limits of both
    families, the reset and clipping threshold ranges, and the near-zero
    threshold of the widened bound."""
    plant = draw(plants())
    t_c = draw(st.sampled_from([0.5, 1.0]) | st.floats(0.05, 2.0, **finite)) * plant.tau_d
    t_prep = draw(st.just(0.0) | st.integers(1, 4) | st.floats(0.0, 5.0, **finite)) * t_c
    actuator = ActuatorSpec(t_c=t_c, t_prep=t_prep)
    scale = draw(st.sampled_from([
        delta_max(plant, t_c, Variant.NM, actuator.prep_ticks()),
        delta_max(plant, t_c, Variant.SDM_IC),
        1e-6 * plant.alpha * t_c,
    ]))
    frac = draw(st.just(1.0) | st.floats(1e-3, 1.5, **finite))
    delta = frac * scale if frac * scale > 0.0 else frac * plant.alpha * t_c
    return plant, actuator, ControllerSpec(draw(st.sampled_from(list(Variant))), delta)


def short_scenario(plant, actuator, controller, x0, cycles=4.0):
    t_end = max(cycles * plant.tau_d, 3.0 * actuator.t_c)
    return Scenario(plant, actuator, controller, x0=x0, t_end=t_end, samples_per_tick=1)


class TestFlowProperties:
    @given(plants(), st.floats(0.0, 2.0, **finite), st.floats(0.0, 0.3, **finite),
           st.floats(0.0, 0.3, **finite))
    @settings(max_examples=300, deadline=None)
    def test_semigroup(self, plant, drop, a, b):
        x0 = plant.r * (1.0 - drop)
        chained = flow_x(flow_x(x0, a, plant), b, plant)
        direct = flow_x(x0, a + b, plant)
        scale = max(abs(chained), abs(direct), plant.alpha)
        assert abs(chained - direct) <= 1e-12 * scale

    @given(plants(), st.floats(0.0, 2.0, **finite), st.floats(0.0, 0.5, **finite),
           st.floats(0.0, 0.5, **finite), st.floats(0.0, 1e18, **finite))
    @settings(max_examples=300, deadline=None)
    def test_membrane_monotone_and_frozen_below_zero(self, plant, drop, d1, d2, xi0):
        x0 = plant.r * (1.0 - drop)
        lo, hi = min(d1, d2), max(d1, d2)
        assert flow_xi(x0, xi0, lo, plant) <= flow_xi(x0, xi0, hi, plant)
        if x0 < 0.0:
            crossing = plant.tau * math.log1p(-x0 / plant.r)
            assert flow_xi(x0, xi0, 0.5 * crossing, plant) == xi0

    @given(plants(), st.floats(0.0, 1.0, **finite), st.floats(0.0, 0.5, **finite))
    @settings(max_examples=300, deadline=None)
    def test_flow_never_exceeds_reference(self, plant, frac, dt):
        x0 = plant.r * frac
        assert flow_x(x0, dt, plant) <= plant.r


class TestJumpProperties:
    @given(plants(), st.floats(1e10, 1e18, **finite), st.floats(1.0, 50.0, **finite))
    @settings(max_examples=300, deadline=None)
    def test_multi_subtraction_lands_below_threshold(self, plant, delta, multiple):
        actuator = ActuatorSpec(t_c=0.01)
        state = HybridState(x=0.0, xi=multiple * delta)
        out = tick_jump(state, 1, plant, ControllerSpec(Variant.SDM_JM, delta), actuator)
        assert out.fired
        assert 0.0 <= out.state_after.xi < delta

    @given(plants(), st.floats(1e10, 1e18, **finite), st.floats(0.0, 1.0, exclude_max=True,
           **finite))
    @settings(max_examples=300, deadline=None)
    def test_below_threshold_never_fires(self, plant, delta, frac):
        actuator = ActuatorSpec(t_c=0.01)
        state = HybridState(x=0.0, xi=frac * delta * (1.0 - 1e-6))
        out = tick_jump(state, 1, plant, ControllerSpec(Variant.NM, delta), actuator)
        assert not out.fired


class TestCertificateProperties:
    @given(configurations())
    @settings(max_examples=1000, deadline=None)
    def test_every_branch_is_consistent(self, config):
        plant, actuator, controller = config
        cert = certify(plant, actuator, controller)
        variant = controller.variant
        assert cert.l == actuator.prep_ticks()
        assert cert.nonstandard == (variant in (Variant.SDM, Variant.SDM_IC) and cert.l > 1)
        assert cert.feasible == (cert.bound_interval is not None) == (cert.bound_scope != "none")
        if not cert.feasible:
            assert cert.reason
            return
        assert variant is not Variant.SDM
        assert not cert.nonstandard
        assert not cert.reason or cert.bound_scope == "steady_state"
        assert 0.0 < controller.delta <= cert.delta_max
        assert actuator.t_c <= cert.tc_max
        if variant is Variant.SDM_IC and cert.bound_scope == "trajectory":
            assert actuator.t_c < cert.tc_max
        assert cert.bound_interval[0] == -plant.alpha


class TestTrajectoryProperties:
    @given(certified_setups(), st.sampled_from(list(Variant)))
    @settings(max_examples=100, deadline=None)
    def test_zeno_bound_for_every_variant(self, setup, variant):
        plant, actuator, controller, x0 = setup
        scenario = short_scenario(plant, actuator, ControllerSpec(variant, controller.delta), x0)
        traj = simulate(scenario)
        t_c = actuator.t_c
        for t, j in zip(traj.t.tolist(), traj.j.tolist()):
            assert j <= math.floor(t / t_c + 1e-9) + 1

    @given(certified_setups())
    @settings(max_examples=100, deadline=None)
    def test_certified_reset_runs_stay_in_envelope(self, setup):
        plant, actuator, controller, x0 = setup
        cert = certify(plant, actuator, controller)
        assert cert.feasible
        traj = simulate(short_scenario(plant, actuator, controller, x0))
        ok, witness = check_envelope(traj, cert)
        assert ok is True, witness

    @given(certified_setups())
    @settings(max_examples=100, deadline=None)
    def test_certified_cycles_contract(self, setup):
        plant, actuator, controller, x0 = setup
        cert = certify(plant, actuator, controller)
        traj = simulate(short_scenario(plant, actuator, controller, x0))
        ok, witness = check_contraction(traj, cert)
        assert ok is True, witness

    @given(certified_setups())
    @settings(max_examples=100, deadline=None)
    def test_certified_gaps_within_dwell_bound(self, setup):
        plant, actuator, controller, x0 = setup
        cert = certify(plant, actuator, controller)
        traj = simulate(short_scenario(plant, actuator, controller, x0))
        ok, witness = check_dwell(traj, cert)
        assert ok is True, witness

    @given(certified_setups(variant=Variant.SDM_JM))
    @settings(max_examples=100, deadline=None)
    def test_multi_subtraction_variant_keeps_reset_family_bounds(self, setup):
        plant, actuator, controller, x0 = setup
        cert = certify(plant, actuator, controller)
        assert cert.feasible
        traj = simulate(short_scenario(plant, actuator, controller, x0))
        assert check_envelope(traj, cert)[0] is True
        residues = traj.xi[traj.fired]
        assert np.all((0.0 <= residues) & (residues < controller.delta))

    @given(gated_setups(), st.sampled_from([Variant.NM, Variant.SDM_JM]))
    @settings(max_examples=200, deadline=None)
    def test_certified_gate_fires_exactly_l_ticks_apart(self, setup, variant):
        # from an empty plasma with a small threshold the controller fires
        # whenever the gate lets it, so the closest fires are exactly l apart
        plant, actuator, controller, l = setup
        controller = ControllerSpec(variant, 1e-6 * controller.delta)
        cert = certify(plant, actuator, controller)
        assert cert.feasible and cert.l == l
        traj = simulate(short_scenario(plant, actuator, controller, plant.r))
        fire_ticks = np.rint(traj.t[traj.fired] / actuator.t_c).astype(int)
        assert len(fire_ticks) >= 2
        assert np.diff(fire_ticks).min() == l

    @given(gated_setups(), st.sampled_from([Variant.NM, Variant.SDM_JM]), fractions)
    @settings(max_examples=200, deadline=None)
    def test_feasible_certificate_implies_every_check_passes(self, setup, variant, frac):
        plant, actuator, controller, _ = setup
        controller = ControllerSpec(variant, controller.delta)
        cert = certify(plant, actuator, controller)
        assert cert.feasible
        traj = simulate(short_scenario(plant, actuator, controller, frac * plant.r))
        rep = report(traj, cert)
        assert rep.all_applicable_pass(), rep.failures()
