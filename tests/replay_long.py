"""Long-run replay check: simulate against the plain recurrence at 10**6 ticks.

    PYTHONPATH=src python tests/replay_long.py

At one sample a tick, each of the four shipped NM scenarios reaches its
orbit within a few thousand ticks and replays the rest; sdm_jm never
repeats and ticks every tick.  The sha256 of simulate's five columns must
equal that of test_replay's reference recurrence, which ticks every tick
(about 5 s a scenario on 2 vCPUs).  pytest does not collect this file: it
is a CI step, past tier-1's budget.  Exits 1 on a mismatch.
"""

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import SCENARIOS  # noqa: E402
from test_replay import column_digest, columns, reference_columns  # noqa: E402

from pelletsim import simulate  # noqa: E402
from pelletsim.io import load_scenario  # noqa: E402

NAMES = ("nm_tracking", "nm_prep_gate", "nm_small_threshold", "nm_gas_gun", "sdm_jm")
TICKS = 10**6


def main() -> int:
    failed = 0
    for name in NAMES:
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        scenario = dataclasses.replace(scenario, samples_per_tick=1,
                                       t_end=TICKS * scenario.actuator.t_c)
        start = time.perf_counter()
        traj = simulate(scenario)
        replayed = time.perf_counter() - start
        got = column_digest(columns(traj))
        orbit = traj.orbit
        del traj
        start = time.perf_counter()
        want = column_digest(reference_columns(scenario))
        ticked = time.perf_counter() - start
        verdict = "ok" if got == want else "MISMATCH"
        failed += got != want
        print(f"{name}: {verdict}, orbit {orbit}, simulate {replayed:.2f} s, "
              f"reference {ticked:.2f} s, sha256 {got}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
