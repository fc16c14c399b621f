"""Property-based tests over randomized plants, tunings, and initial states."""

import math
from decimal import Decimal

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pelletsim import (
    ActuatorSpec,
    ControllerSpec,
    HybridState,
    Scenario,
    Variant,
    certify,
    delta_max,
    flow_x,
    flow_xi,
    report,
    simulate,
    tick_jump,
)

from conftest import FRACTION_RANGE, PLANT, TC_RANGE, finite, plants, short_scenario

fractions = st.floats(*FRACTION_RANGE, **finite)


@st.composite
def certified_setups(draw, variant=Variant.NM):
    """Plant, actuator and threshold satisfying every tuning condition."""
    plant = draw(plants())
    t_c = draw(st.floats(*TC_RANGE, **finite)) * plant.tau_d
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
    t_c = float(f"{draw(st.floats(*TC_RANGE, **finite)) * plant.tau_d / l:.3g}")
    actuator = ActuatorSpec(t_c=t_c, t_prep=float(Decimal(repr(t_c)) * l))
    dm = delta_max(plant, t_c, variant, l)
    assume(dm > 0.0)
    delta = draw(fractions) * dm
    assume(delta > 0.0)
    return plant, actuator, ControllerSpec(variant, delta), l


@st.composite
def certified_runs(draw):
    """A certified NM or SDM_JM run, with or without a preparation gate, over
    4-14 dwell times at one sample a tick.  Two in three start from x0 in
    (0, r], the rest from x0 = -r*10**U(0, 12), at or far below -r."""
    variant = draw(st.sampled_from([Variant.NM, Variant.SDM_JM]))
    plant, actuator, controller, _ = draw(certified_setups(variant) | gated_setups(variant))
    below = draw(st.integers(0, 2)) == 2
    x0 = plant.r * (-10.0 ** draw(st.floats(0.0, 12.0, **finite)) if below else draw(fractions))
    return short_scenario(plant, actuator, controller, x0,
                          cycles=draw(st.floats(4.0, 14.0, **finite)))


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


class TestFlowProperties:
    @given(plants(), st.floats(0.0, 2.0, **finite), st.floats(0.0, 0.3, **finite),
           st.floats(0.0, 0.3, **finite))
    @settings(max_examples=500, deadline=None)
    @example(PLANT, 2.0, 0.3, 0.3)
    def test_semigroup(self, plant, drop, a, b):
        x0 = plant.r * (1.0 - drop)
        chained = flow_x(flow_x(x0, a, plant), b, plant)
        direct = flow_x(x0, a + b, plant)
        scale = max(abs(chained), abs(direct), plant.alpha)
        assert abs(chained - direct) <= 1e-12 * scale

    @given(plants(), st.floats(0.0, 2.0, **finite), st.floats(0.0, 0.5, **finite),
           st.floats(0.0, 0.5, **finite), st.floats(0.0, 1e18, **finite))
    @settings(max_examples=300, deadline=None)
    @example(PLANT, 2.0, 0.0, 0.3, 1e17)
    def test_membrane_monotone_and_frozen_below_zero(self, plant, drop, d1, d2, xi0):
        x0 = plant.r * (1.0 - drop)
        lo, hi = min(d1, d2), max(d1, d2)
        assert xi0 <= flow_xi(x0, xi0, lo, plant) <= flow_xi(x0, xi0, hi, plant)
        if x0 < 0.0:
            crossing = plant.tau * math.log1p(-x0 / plant.r)
            assert flow_xi(x0, xi0, 0.5 * crossing, plant) == xi0

    @given(plants(), st.floats(0.0, 2.0, **finite), st.floats(0.0, 1.0, **finite))
    @settings(max_examples=300, deadline=None)
    @example(PLANT, 2.0, 1.0)
    @example(PLANT, 0.0, 1.0)
    def test_flow_never_exceeds_reference(self, plant, drop, share):
        # from x0 in [-r, r], for a share of max(0.5 s, 10 tau)
        x0 = plant.r * (1.0 - drop)
        assert flow_x(x0, share * max(0.5, 10.0 * plant.tau), plant) <= plant.r


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
    @given(certified_setups(), st.sampled_from(list(Variant)), st.sampled_from([1, 2, 10]),
           st.floats(3.0, 80.0, **finite))
    @settings(max_examples=100, deadline=None)
    # the jm_tracking fixture: 1 s at 10 samples a tick
    @example((PLANT, ActuatorSpec(t_c=1 / 70), ControllerSpec(Variant.SDM_JM, 1.569e16), PLANT.r),
             Variant.SDM_JM, 10, 70.0)
    def test_zeno_bound_for_every_variant(self, setup, variant, samples_per_tick, ticks):
        plant, actuator, controller, x0 = setup
        t_c = actuator.t_c
        traj = simulate(Scenario(plant, actuator, ControllerSpec(variant, controller.delta), x0=x0,
                                 t_end=ticks * t_c, samples_per_tick=samples_per_tick))
        for t, j in zip(traj.t.tolist(), traj.j.tolist()):
            assert j <= math.floor(t / t_c + 1e-9) + 1

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

    @given(certified_runs())
    @settings(max_examples=600, deadline=None)
    # nm_tracking's tuning over 0.3 s (13.4 dwell times) from either end of x0 in [1e16, r]
    @example(Scenario(PLANT, ActuatorSpec(t_c=1 / 70), ControllerSpec(Variant.NM, 1.569e16),
                      x0=1e16, t_end=0.3, samples_per_tick=1))
    @example(Scenario(PLANT, ActuatorSpec(t_c=1 / 70), ControllerSpec(Variant.NM, 1.569e16),
                      x0=PLANT.r, t_end=0.3, samples_per_tick=1))
    def test_feasible_certificate_implies_every_check_passes(self, scenario):
        controller = scenario.controller
        cert = certify(scenario.plant, scenario.actuator, controller)
        assert cert.feasible
        traj = simulate(scenario)
        rep = report(traj, cert)
        assert rep.all_applicable_pass(), rep.failures()
        # the run stays in the envelope, and each gap from a positive error
        # to the next fire is within tau_d
        assert rep.verdicts["envelope"] is True and rep.verdicts["dwell"] is True
        if controller.variant is Variant.NM:  # each cycle from x > 0 contracts by gamma
            assert rep.verdicts["contraction"] is True
        else:  # each fire subtracts whole thresholds and leaves a residue in [0, delta)
            residues = traj.xi[traj.fired]
            assert np.all((0.0 <= residues) & (residues < controller.delta))
