"""Pellet preparation time as a refractory period.

The gate blocks fires until l = ceil(t_prep/t_c) whole ticks have passed
since the last shot.
If the gate fits inside one tick it changes nothing at all (bitwise).  A
gate spanning l ticks stretches every tuning constraint by l; the
certificate tracks that, and a gas gun is just the limiting case where the
tick is only a sampling period and the gate does all the pacing.
"""

import numpy as np

import pelletsim as ps

plant = ps.PlantParams(tau=0.1, r=5e19, alpha=1e19)

# 1) a gate shorter than one tick is invisible
base = ps.Scenario(plant, ps.ActuatorSpec(t_c=1 / 70),
                   ps.ControllerSpec(ps.Variant.NM, 1.569e16), x0=plant.r, t_end=1.0)
gated = ps.Scenario(plant, ps.ActuatorSpec(t_c=1 / 70, t_prep=0.012),
                    ps.ControllerSpec(ps.Variant.NM, 1.569e16), x0=plant.r, t_end=1.0)
a, b = ps.simulate(base), ps.simulate(gated)
identical = all(np.array_equal(getattr(a, column), getattr(b, column))
                for column in ("t", "j", "x", "xi", "fired"))
print(f"t_prep=12ms inside a 14.3ms tick: trajectories bitwise identical = {identical}")
print()

# 2) a gate spanning three ticks
actuator = ps.ActuatorSpec(t_c=0.007, t_prep=0.0175)
controller = ps.ControllerSpec(ps.Variant.NM, 4e14)
cert = ps.certify(plant, actuator, controller)
print(f"t_c=7ms, t_prep=17.5ms -> l={cert.l} ticks between pellets")
print(f"  tc_max={cert.tc_max:.6f}s  delta_max={cert.delta_max:.3e}  feasible={cert.feasible}")
traj = ps.simulate(ps.Scenario(plant, actuator, controller, x0=plant.r, t_end=1.0))
gaps = np.diff(traj.t[traj.fired])
print(f"  observed fire spacing: min {gaps.min() * 1e3:.1f}ms "
      f"(= {round(float(gaps.min()) / actuator.t_c)} ticks), max {gaps.max() * 1e3:.1f}ms")
m = ps.report(traj, cert).metrics
print(f"  steady error band [{m.min_x_steady:.3e}, {m.max_x_steady:.3e}]")
print()

# 3) gas gun: millisecond sampling, 20 ms preparation
gun = ps.ActuatorSpec(t_c=0.001, t_prep=0.02, mode=ps.ActuatorMode.GAS_GUN)
cert_gun = ps.certify(plant, gun, controller)
print(f"gas gun: sampling {gun.t_c * 1e3:.0f}ms, preparation {gun.t_prep * 1e3:.0f}ms "
      f"-> l={cert_gun.l}, feasible={cert_gun.feasible}")
traj_gun = ps.simulate(ps.Scenario(plant, gun, controller, x0=plant.r, t_end=1.0))
gaps = np.diff(traj_gun.t[traj_gun.fired])
print(f"  shots at least {gaps.min() * 1e3:.0f}ms apart, steady band "
      f"[{ps.report(traj_gun, cert_gun).metrics.min_x_steady:.3e}, "
      f"{ps.report(traj_gun, cert_gun).metrics.max_x_steady:.3e}]")
