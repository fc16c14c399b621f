"""simulate against a plain tick recurrence, which never replays.

Once a post-fire state repeats bit for bit, simulate copies the rest of the
run from one period back instead of ticking it.  The reference here ticks
every tick, with one scalar flow_x/flow_xi call per sample and
controllers.tick_jump per tick, so it shares no array code with simulate's
interior samples.  It is the one reference tick recurrence of the tests:
all five columns of simulate must match it byte for byte.
"""

import hashlib
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pelletsim import (ActuatorSpec, ControllerSpec, HybridState, PlantParams, Scenario, Variant,
                       controllers, simulate, simulate_numeric)
from pelletsim.flow import flow_x, flow_xi

from test_golden import stretched


def reference_columns(scenario: Scenario) -> tuple[np.ndarray, ...]:
    """simulate's (t, j, x, xi, fired) by ticking every tick, each sample
    from one scalar flow_x/flow_xi call.  Tick i's samples are its start
    state at t = i*t_c, then the flow from it to t = t_c*(i + m/spt) for
    m = 1..spt; the last of these is the pre-jump state of the jump to tick
    i + 1.  A partial last interval keeps the interior samples that fit
    and ends at t_end."""
    plant, actuator, controller = scenario.plant, scenario.actuator, scenario.controller
    t_c, spt, x_sat = actuator.t_c, scenario.samples_per_tick, scenario.x_sat
    n_ticks, remainder = scenario.horizon_ticks()
    offsets = [t_c * (m / spt) for m in range(1, spt + 1)]  # the last is t_c*1.0 == t_c
    cols = array("d"), array("q"), array("d"), array("d"), array("b")  # t, j, x, xi, fired
    x_col, xi_col = cols[2:4]

    def sample(t_k, i, x, xi, fire=False):
        for col, value in zip(cols, (t_k, i, x, xi, fire)):
            col.append(value)

    def flow_samples(i, x, xi, dts):
        """The flow from tick i's start state (x, xi) over each of dts."""
        for m, dt in enumerate(dts, start=1):
            sample((i + m / spt) * t_c, i, flow_x(x, dt, plant), flow_xi(x, xi, dt, plant, x_sat))

    x, xi, fire, since_fire = scenario.x0, scenario.xi0, False, 0
    for i in range(n_ticks):
        sample(i * t_c, i, x, xi, fire)
        flow_samples(i, x, xi, offsets)
        since_fire += 1
        outcome = controllers.tick_jump(HybridState(x_col[-1], xi_col[-1]), since_fire, plant,
                                        controller, actuator)
        x, xi, fire = outcome.state_after.x, outcome.state_after.xi, outcome.fired
        since_fire = 0 if fire else since_fire
    sample(n_ticks * t_c, n_ticks, x, xi, fire)
    if remainder > 0.0:
        flow_samples(n_ticks, x, xi, [dt for dt in offsets[:-1] if dt < remainder - 1e-9 * t_c])
        sample(scenario.t_end, n_ticks, flow_x(x, remainder, plant),
               flow_xi(x, xi, remainder, plant, x_sat))
    return tuple(np.frombuffer(col, dtype)
                 for col, dtype in zip(cols, (float, np.int64, float, float, bool)))


def assert_matches_the_reference(traj, scenario: Scenario) -> tuple[np.ndarray, ...]:
    """traj's five columns equal reference_columns(scenario) byte for byte."""
    reference = reference_columns(scenario)
    for got, want in zip(columns(traj), reference):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return reference


def column_digest(columns) -> str:
    """sha256 of the five columns' bytes, in order."""
    digest = hashlib.sha256()
    for column in columns:
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def columns(traj) -> tuple[np.ndarray, ...]:
    return traj.t, traj.j, traj.x, traj.xi, traj.fired


def assert_orbit_is_the_first_repeat(traj) -> None:
    """The reported (first, period) holds, and the fire before `first`
    does not repeat `period` ticks on."""
    rows = np.flatnonzero(traj.fired)
    states = dict(zip(traj.j[rows].tolist(), zip(traj.x[rows].tolist(), traj.xi[rows].tolist())))
    first, period = traj.orbit
    assert states[first] == states[first + period]
    earlier = [k for k in states if k < first]
    if earlier:
        assert states[max(earlier)] != states.get(max(earlier) + period)


PLANT = PlantParams(tau=0.1, r=5e19, alpha=1e19)


@st.composite
def runs(draw):
    """NM, SDM_JM, SDM_IC and SDM behind gates of 1-4 ticks, with x0 in
    [-3r, r], xi0 in [0, delta), 1, 2 or 10 samples a tick, and 200-5,000
    whole ticks with or without a partial last interval."""
    variant = draw(st.sampled_from([Variant.NM, Variant.SDM_JM, Variant.SDM_IC, Variant.SDM]))
    t_c = draw(st.sampled_from([1 / 70, 1 / 140, 0.007]))
    l = draw(st.integers(1, 4))
    delta = 1.569e16 * draw(st.floats(0.01, 2.0))
    ticks = draw(st.integers(200, 5000))
    tail = draw(st.sampled_from([0.0, 0.5, draw(st.floats(0.01, 0.99))]))
    return Scenario(
        plant=PLANT,
        actuator=ActuatorSpec(t_c=t_c, t_prep=(l - 0.5) * t_c if l > 1 else 0.0),
        controller=ControllerSpec(variant=variant, delta=delta),
        x0=PLANT.r * draw(st.floats(-3.0, 1.0)),
        xi0=delta * draw(st.floats(0.0, 1.0, exclude_max=True)),
        t_end=t_c * (ticks + tail),
        samples_per_tick=draw(st.sampled_from([1, 2, 10])),
    )


def _run(variant, l=1, x0=PLANT.r, ticks=1000.5, spt=10):
    t_c = 1 / 70
    return Scenario(PLANT, ActuatorSpec(t_c=t_c, t_prep=(l - 0.5) * t_c if l > 1 else 0.0),
                    ControllerSpec(variant=variant, delta=1.569e16), x0=x0, t_end=t_c * ticks,
                    samples_per_tick=spt)


@given(runs())
@settings(max_examples=30, deadline=None)
# replayed runs, with a partial last interval at 10 and at 2 samples a
# tick, behind a gate, and with the repeat found on the last tick; and a
# run that never repeats
@example(_run(Variant.NM))
@example(_run(Variant.NM, l=3, x0=-PLANT.r, ticks=2000.25, spt=2))
@example(_run(Variant.NM, ticks=381, spt=1))
@example(_run(Variant.SDM_JM, ticks=4000.75))
def test_simulate_matches_the_plain_recurrence_byte_for_byte(scenario):
    traj = simulate(scenario)
    reference = assert_matches_the_reference(traj, scenario)
    if traj.orbit is not None:
        assert_orbit_is_the_first_repeat(traj)
    # the search compares post-fire states with ==, which equates -0.0 and
    # 0.0: neither column ever holds -0.0 there
    post = reference[4]
    for column in reference[2:4]:
        assert not np.any(np.signbit(column[post]) & (column[post] == 0.0))


def test_a_repeat_found_on_the_last_tick_replays_nothing():
    # nm_tracking from x0 = r repeats from tick 239 with period 3, which the
    # search sees at tick 381; a run of 381 ticks ends on that tick
    assert simulate(_run(Variant.NM, ticks=381, spt=1)).orbit == (239, 3)
    assert simulate(_run(Variant.NM, ticks=380, spt=1)).orbit is None


# (first, period, pellets a period) of the post-fire states in floats, on
# test_golden's runs stretched to about 20,000 samples from x0 = 0.6 r
@pytest.mark.parametrize("name, orbit, pellets", [
    ("nm_tracking", (240, 3), 2),
    ("nm_prep_gate", (537, 3), 1),
    ("nm_small_threshold", (237, 19), 14),
    ("nm_gas_gun", (3760, 20), 1),
    ("sdm_ic_fast", None, None),
    ("sdm_ic_slow", None, None),
    ("sdm_jm", None, None),
    ("sdm_windup", None, None),
])
def test_stretched_runs_report_their_orbit(name, orbit, pellets):
    scenario = stretched(name)
    traj = simulate(scenario)
    assert traj.orbit == orbit
    assert_matches_the_reference(traj, scenario)
    if orbit is not None:
        first, period = orbit
        in_period = (traj.j >= first) & (traj.j < first + period)
        assert np.count_nonzero(traj.fired[in_period]) == pellets
        assert_orbit_is_the_first_repeat(traj)


def test_the_oracle_reports_no_orbit():
    assert simulate_numeric(stretched("nm_tracking"), 100).orbit is None

