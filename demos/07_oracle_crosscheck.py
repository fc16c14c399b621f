"""Cross-validating the closed-form engine against blunt numerics.

The engine never steps an ODE; every flow interval is evaluated in closed
form.  As an independent check, the same scenarios are integrated with
fixed-step fourth-order Runge-Kutta and compared at every tick boundary.
Agreement is far below any physically meaningful scale, and the fire
decisions match tick for tick.
"""

import time

import pelletsim as ps
from pelletsim.oracle import integrate_flow_rk4

plant = ps.PlantParams(tau=0.1, r=5e19, alpha=1e19)
scenarios = {
    "reset controller": ps.Scenario(plant, ps.ActuatorSpec(t_c=1 / 70),
                                    ps.ControllerSpec(ps.Variant.NM, 1.569e16),
                                    x0=plant.r, t_end=1.0),
    "clipped sigma-delta": ps.Scenario(plant, ps.ActuatorSpec(t_c=1 / 140),
                                       ps.ControllerSpec(ps.Variant.SDM_IC, 2.755e16),
                                       x0=plant.r, t_end=1.0),
    "adjusted jump map": ps.Scenario(plant, ps.ActuatorSpec(t_c=1 / 70),
                                     ps.ControllerSpec(ps.Variant.SDM_JM, 1.569e16),
                                     x0=plant.r, t_end=1.0),
}

print(f"{'scenario':22s} {'ticks':>5s} {'max rel dx':>12s} {'max rel dxi':>12s}  fires match")
for name, scenario in scenarios.items():
    analytic = ps.simulate(scenario)
    t0 = time.perf_counter()
    numeric = ps.simulate_numeric(scenario, 1000)
    rk4_s = time.perf_counter() - t0
    result = ps.compare(analytic, numeric)
    print(f"{name:22s} {result.n_ticks:5d} {result.max_rel_x:12.3e} "
          f"{result.max_rel_xi:12.3e}  {result.fire_mismatch is None} "
          f"(rk4 took {rk4_s * 1e3:.0f}ms)")

print()
print("step-halving on a kink-free interval shows the expected 4th-order decay")
print("until the truncation error sinks below the rounding noise of ~1e19-scale")
print("doubles (a few thousand absolute, i.e. ~1e-16 relative):")
x_exact = ps.flow_x(1e19, 1 / 70, plant)
prev = None
for n in (100, 200, 400, 800):
    x_n, _ = integrate_flow_rk4(1e19, 0.0, 1 / 70, plant, None, n)
    err = abs(x_n - x_exact)
    if prev is None:
        ratio = ""
    elif err == 0.0:
        ratio = "  (equal to the closed form)"
    else:
        ratio = f"  ({prev / err:4.1f}x smaller)"
    print(f"  {n:4d} substeps: |dx| = {err:.3e}{ratio}")
    prev = err
