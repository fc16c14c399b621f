"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check must pass on real pelletsim output and fail once that output is
perturbed: one state shifted by SHIFT*alpha, one fire dropped, one verdict
flipped.  Also confirms that the metric names and units the benchmark prints
are the ones BENCHMARK.json declares.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import worker

pelletsim = worker.import_pelletsim()

import checks  # noqa: E402  (numpy loads after pelletsim, as in a run)
import workloads  # noqa: E402

SHIFT = 1e-4
failures: list[str] = []


def expect(label: str, problem: str | None, should_fail: bool) -> None:
    ok = (problem is not None) == should_fail
    verdict = "ok  " if ok else "FAIL"
    print(f"{verdict} {label}: {problem or 'passes'}")
    if not ok:
        failures.append(label)


def perturbed(cols: dict, **changes) -> dict:
    out = copy.deepcopy(cols)
    for name, (row, value) in changes.items():
        out[name][row] = value
    return out


def trajectory_cases(label: str, cols: dict, model: dict, rel: float) -> None:
    expect(f"{label} unperturbed", checks.check_run(cols, model, rel), False)
    fires = [int(i) for i in checks.np.flatnonzero(cols["fired"])]
    shift = SHIFT * model["alpha"]
    between = perturbed(cols, x=(fires[1] + 1, cols["x"][fires[1] + 1] + shift))
    expect(f"{label} x shifted between ticks (superposition)",
           checks.check_superposition(between, model, rel), True)
    at_fire = perturbed(cols, x=(fires[2], cols["x"][fires[2]] + shift))
    expect(f"{label} x shifted at a fire (jumps)", checks.check_jumps(at_fire, model, rel), True)
    dropped = perturbed(cols, fired=(fires[1], False))
    expect(f"{label} fire dropped (superposition)",
           checks.check_superposition(dropped, model, rel), True)
    expect(f"{label} fire dropped (jumps)", checks.check_jumps(dropped, model, rel), True)
    gaps = checks.np.diff(checks.np.rint(cols["t"][fires] / model["t_c"]))
    tighter = dict(model, l=int(gaps.min()) + 1)
    expect(f"{label} fires closer than l (jumps)", checks.check_jumps(cols, tighter, rel), True)


def main() -> int:
    worker.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=worker.OUT))
    try:
        # trajectory.csv from `pelletsim verify`, on an ungated and a gated scenario
        verify_wl = workloads.LongHorizon(pelletsim, 0, workdir)
        rng = random.Random(0)
        for name in ("nm_tracking", "nm_prep_gate"):
            scenario = pelletsim.io.load_scenario(workloads.SCENARIOS / f"{name}.json")
            case = verify_wl.write_seeded(scenario, name, rng)
            code, _ = verify_wl.run_cli(["verify", case["path"], "-o", case["outdir"]])
            expect(f"verify {name} exit code", None if code == 0 else f"exit {code}", False)
            cols = checks.read_csv_columns(Path(case["outdir"]) / "trajectory.csv")
            trajectory_cases(f"csv {name}", cols, case["model"], checks.CSV_REL)

        # RK4 tick states kept from `pelletsim compare-oracle`
        (workdir / "oracle").mkdir()
        oracle_wl = workloads.OracleCrosscheck(pelletsim, 0, workdir / "oracle")
        oracle_wl.setup()
        case = next(c for c in oracle_wl.cases if c["name"] == "nm_tracking")
        code, text = oracle_wl.run_cli(["compare-oracle", case["path"]])
        expect("compare-oracle exit code", None if code == 0 else f"exit {code}", False)
        expect("compare-oracle output", oracle_wl.check_outputs(text, case["model"]), False)
        trajectory_cases("rk4", workloads.trajectory_columns(oracle_wl.captured), case["model"], 0.0)

        # tuning-grid verdicts from the closed forms
        grid = workloads.TuningGrid(pelletsim, 0, workdir)
        grid.setup()
        row = next(r for r in grid.rows if r["cells"][0]["feasible"])
        out = pelletsim.io.sweep(row["base"], "delta", row["deltas"])
        expect("grid verdicts", checks.check_grid_rows(out, row["cells"]), False)
        flipped = [dict(out[0], feasible=not out[0]["feasible"]), out[1]]
        expect("grid verdict flipped", checks.check_grid_rows(flipped, row["cells"]), True)
        unchecked = [dict(out[0], envelope="not_applicable"), out[1]]
        expect("grid certified cell left unchecked",
               checks.check_grid_rows(unchecked, row["cells"]), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((worker.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, printed in (("end_to_end", worker.END_TO_END), ("per_layer", worker.PER_LAYER)):
        names = {m["name"]: m["unit"] for m in declared[key]}
        expect(f"BENCHMARK.json {key} matches the printed metrics",
               None if names == printed else f"declared {names}, printed {printed}", False)

    print(f"{len(failures)} unexpected outcome(s)" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
