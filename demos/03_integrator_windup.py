"""Why plain sigma-delta modulation cannot be trusted here.

Subtracting a single threshold per pellet keeps the full error history in
the integrator.  During the transient the membrane gains dozens of
thresholds per tick, so once the error reaches zero the controller keeps
firing at every launch slot until the residue is worked off, driving the
density far past the reference (error below -alpha).  The run is compared
with the reset controller on identical parameters.
"""

from pathlib import Path

import pelletsim as ps
from pelletsim.io import render_svg

OUT = Path(__file__).parent / "_out"
OUT.mkdir(exist_ok=True)

plant = ps.PlantParams(tau=0.1, r=5e19, alpha=1e19)
actuator = ps.ActuatorSpec(t_c=1 / 70)
delta = 1.569e16

for variant in (ps.Variant.SDM, ps.Variant.NM):
    controller = ps.ControllerSpec(variant, delta)
    scenario = ps.Scenario(plant, actuator, controller, x0=plant.r, t_end=1.0)
    cert = ps.certify(plant, actuator, controller)
    traj = ps.simulate(scenario)
    rep = ps.report(traj, cert)

    worst = float(traj.x.min())
    residues = traj.xi[traj.fired] / delta
    print(f"{variant.value}: certificate "
          + ("feasible" if cert.feasible else f"withheld ({cert.reason})"))
    print(f"  wind-up detected: {rep.windup_detected}")
    print(f"  worst undershoot: {worst:.3e}  (pellet size alpha = {plant.alpha:.1e})")
    print(f"  largest post-fire residue: {max(residues):.1f} thresholds")
    render_svg(traj, cert, OUT / f"windup_{variant.value.lower()}.svg")
    print()

print("the reset controller empties the membrane at every fire, so it has no")
print("history to work off and needs no mitigation at all.")
