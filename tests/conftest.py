import pytest
from hypothesis import strategies as st

from pelletsim import ActuatorSpec, ControllerSpec, PlantParams, Scenario, Variant

finite = dict(allow_nan=False, allow_infinity=False)  # the property tests' float draws

# The ranges of the random plants and certified setups.  The hypothesis
# strategies and the acceptance suite's seeded loops both read them.
ALPHA_RANGE = (1e18, 5e19)  # the pellet increment alpha
TAU_RANGE = (0.01, 1.0)  # the time constant tau
R_RANGE = (1.1, 10.0)  # the reference r, in units of alpha
TC_RANGE = (0.05, 0.95)  # a certified tick t_c, in units of the dwell bound tau_d
FRACTION_RANGE = (1e-6, 1.0)  # a certified delta in units of delta_max, and x0 in units of r

PLANT = PlantParams(tau=0.1, r=5e19, alpha=1e19)  # nm_tracking's, and the `plant` fixture


@st.composite
def plants(draw):
    """alpha, tau and r/alpha uniform over ALPHA_RANGE, TAU_RANGE and R_RANGE."""
    alpha = draw(st.floats(*ALPHA_RANGE, **finite))
    return PlantParams(tau=draw(st.floats(*TAU_RANGE, **finite)),
                       r=alpha * draw(st.floats(*R_RANGE, **finite)), alpha=alpha)


def short_scenario(plant, actuator, controller, x0, cycles=4.0):
    """One sample a tick over `cycles` dwell times tau_d, and at least three ticks."""
    t_end = max(cycles * plant.tau_d, 3.0 * actuator.t_c)
    return Scenario(plant, actuator, controller, x0=x0, t_end=t_end, samples_per_tick=1)


@pytest.fixture
def plant():
    return PLANT


@pytest.fixture
def plant_high_ref():
    return PlantParams(tau=0.1, r=7e19, alpha=1e19)


def make_scenario(plant, variant, delta, t_c, x0, t_end=1.0, t_prep=0.0, xi0=0.0,
                  samples_per_tick=10):
    return Scenario(
        plant=plant,
        actuator=ActuatorSpec(t_c=t_c, t_prep=t_prep),
        controller=ControllerSpec(variant=variant, delta=delta),
        x0=x0,
        xi0=xi0,
        t_end=t_end,
        samples_per_tick=samples_per_tick,
    )


@pytest.fixture
def nm_tracking(plant):
    """Reset controller at the top of its admissible threshold range."""
    return make_scenario(plant, Variant.NM, 1.569e16, 1 / 70, 5e19)


@pytest.fixture
def nm_small_threshold(plant):
    return make_scenario(plant, Variant.NM, 1.0, 1 / 70, 5e19)


@pytest.fixture
def sdm_windup(plant):
    return make_scenario(plant, Variant.SDM, 1.569e16, 1 / 70, 5e19)


@pytest.fixture
def ic_fast(plant):
    """Input clipping with a double-speed actuator."""
    return make_scenario(plant, Variant.SDM_IC, 2.755e16, 1 / 140, 5e19)


@pytest.fixture
def ic_slow(plant_high_ref):
    """Input clipping at reset-family actuator speed and near-zero threshold."""
    return make_scenario(plant_high_ref, Variant.SDM_IC, 1.0, 1 / 70, 7e19)


@pytest.fixture
def jm_tracking(plant):
    return make_scenario(plant, Variant.SDM_JM, 1.569e16, 1 / 70, 5e19)


@pytest.fixture
def nm_prep_gate(plant):
    """Preparation time spanning three ticks."""
    return make_scenario(plant, Variant.NM, 4e14, 0.007, 5e19, t_prep=0.0175)
