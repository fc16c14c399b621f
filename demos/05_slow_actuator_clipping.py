"""Clipped sigma-delta on an actuator that is too slow for its own bound.

With the tick period inside the reset family's budget but beyond the
clipped variant's stricter one, the standard certificate is withheld.  A
near-zero threshold still earns the widened steady-state bound
(-alpha, alpha*(2 - alpha/r)]: worst case the integrator needs two ticks
per pellet, letting the error climb one extra rotation before the shot.
"""

from pathlib import Path

import pelletsim as ps
from pelletsim.io import render_svg

OUT = Path(__file__).parent / "_out"
OUT.mkdir(exist_ok=True)

plant = ps.PlantParams(tau=0.1, r=7e19, alpha=1e19)
actuator = ps.ActuatorSpec(t_c=1 / 70)
controller = ps.ControllerSpec(ps.Variant.SDM_IC, 1.0)

print(f"tick period {actuator.t_c:.5f}s vs clipped-variant limit "
      f"{ps.tc_max(plant, ps.Variant.SDM_IC):.5f}s -> standard bound unavailable")

cert = ps.certify(plant, actuator, controller)
print(f"certificate: feasible={cert.feasible}, scope={cert.bound_scope}")
print(f"  {cert.reason}")
print(f"  bound interval: ({cert.bound_interval[0]:.3e}, {cert.bound_interval[1]:.3e}]")
print(f"  widened ceiling alpha*(2 - alpha/r) = {ps.ub_ic_slow(plant):.4e}")
print()

traj = ps.simulate(ps.Scenario(plant, actuator, controller, x0=plant.r, t_end=1.0))
rep = ps.report(traj, cert)
m = rep.metrics
print(f"steady error band [{m.min_x_steady:.3e}, {m.max_x_steady:.3e}]")
print(f"  exceeds alpha: {m.max_x_steady > plant.alpha}  "
      f"(the basic bound really is lost)")
print(f"  within widened bound: {rep.verdicts['envelope']}")
render_svg(traj, cert, OUT / "slow_actuator_clipping.svg")
print(f"plot: {OUT / 'slow_actuator_clipping.svg'}")
