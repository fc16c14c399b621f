"""Mutation check of the verdict layer: every named mutant must fail tier-1.

    python tests/mutants.py

Each entry of MUTANTS replaces one exact text in one file of src/pelletsim
with a plausible wrong one, and names the tier-1 tests that must kill it:
the edge test whose failing side lies just past the bound that the text
sets.  src/ is copied to a temporary directory once.  The named tests of
every mutant first run against the unmutated copy, and must pass there, so
that a kill is the mutant's doing.  Then each mutant in turn is applied to
the copy (its text must occur exactly once), its tests alone run in one
pytest process against the copy, and the file is restored.  A mutant
survives when its tests pass.

pytest does not collect this file: it is a CI step, a few seconds a
mutant.  It uses the standard library only.  Exits 1 when a mutant
survives, when its text does not occur exactly once, or when the
unmutated copy fails its tests.  A check or tolerance added later adds its
mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/pelletsim
    text: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # tier-1 node ids, any of which must fail


VERIFY, CLI, CORE, BOUNDS = ("tests/test_verify.py::", "tests/test_cli.py::",
                             "tests/test_core.py::", "tests/test_bounds.py::")
RESIDUE = "return bool(np.any(traj.xi[traj.fired] >= traj.controller.delta))"

MUTANTS = (
    Mutant("envelope upper slack at 1e-3 r", "verify.py",
           "x <= upper + _REL_SLACK * r", "x <= upper + 1e-3 * r",
           (VERIFY + "TestEnvelope::test_upper_bound_has_a_slack_of_1e_9_r",)),
    Mutant("contraction slack at 0.01 r", "verify.py",
           "slack = _REL_SLACK * traj.plant.r", "slack = 0.01 * traj.plant.r",
           (VERIFY + "TestContraction::test_a_cycle_contracts_within_a_slack_of_1e_9_r",)),
    Mutant("contraction witness at j = 0", "verify.py",
           "CheckWitness(float(traj.t[end]), int(traj.j[end])",
           "CheckWitness(float(traj.t[end]), 0",
           (VERIFY + "TestContraction::test_a_cycle_contracts_within_a_slack_of_1e_9_r",)),
    Mutant("dwell allows one whole tick more", "verify.py",
           "gaps > limit + TICK_EPS", "gaps > limit + 1 + TICK_EPS",
           (VERIFY + "TestDwell::test_gaps_are_counted_in_whole_ticks",)),
    Mutant("dwell's trailing cycle due at its last tick", "verify.py",
           "traj.j[-1] + 1", "traj.j[-1]",
           (VERIFY + "TestDwell::test_a_trailing_cycle_fails_at_its_last_tick_within_the_bound",)),
    Mutant("dwell witness at j = 0", "verify.py",
           "CheckWitness(float(traj.t[start]), int(traj.j[start])",
           "CheckWitness(float(traj.t[start]), 0",
           (VERIFY + "TestDwell::test_gaps_are_counted_in_whole_ticks",)),
    Mutant("cycles open only at x > 0.1 alpha", "verify.py",
           "traj.fired & (traj.x > 0.0)", "traj.fired & (traj.x > 0.1 * traj.plant.alpha)",
           (VERIFY + "TestDwell::test_gaps_are_counted_in_whole_ticks",
            VERIFY + "TestContraction::test_a_cycle_contracts_within_a_slack_of_1e_9_r")),
    Mutant("wind-up at a residue of 2 delta", "verify.py",
           ">= traj.controller.delta", ">= 2 * traj.controller.delta",
           (VERIFY + "TestWindup::test_a_fire_leaving_a_threshold_winds_up",)),
    Mutant("wind-up switched off", "verify.py", RESIDUE, "return False",
           (VERIFY + "TestWindup::test_plain_sigma_delta_detected",)),
    Mutant("wind-up also read from undershoot below -alpha", "verify.py", RESIDUE,
           RESIDUE[:-1] + " or np.any(traj.x < -traj.plant.alpha))",
           (VERIFY + "TestWindup::test_a_start_below_minus_alpha_is_not_windup",)),
    Mutant("compare scales x by 10 alpha", "verify.py",
           "np.maximum(np.abs(a), alpha)", "np.maximum(np.abs(a), 10 * alpha)",
           (VERIFY + "TestCompare::test_x_deviations_are_scaled_by_alpha_near_zero",)),
    Mutant("zeno at limit + 1", "verify.py",
           "_first(traj.j > limit)", "_first(traj.j > limit + 1)",
           (VERIFY + "TestZeno::test_a_jump_count_past_the_tick_count_fails",)),
    Mutant("settling time one row early", "verify.py",
           "settled = int(outside[-1]) + 1", "settled = int(outside[-1])",
           (VERIFY + "TestMetricsAndReport::"
            "test_settling_time_is_the_row_after_the_last_one_outside",)),
    Mutant("prep_ticks shaves 1e-3 of a tick", "core.py",
           "self.t_prep / self.t_c - TICK_EPS", "self.t_prep / self.t_c - 1e-3",
           (CORE + "test_prep_ticks_rounding",)),
    Mutant("prep_ok at 2 tau_d", "bounds.py",
           "actuator.t_prep <= plant.tau_d", "actuator.t_prep <= 2 * plant.tau_d",
           (BOUNDS + "TestCertify::test_prep_time_past_the_dwell_bound_says_so",)),
    Mutant("a failed allocation escapes as a traceback", "engine.py",
           "except MemoryError:", "except ValueError:",
           (CLI + "test_a_run_that_cannot_be_allocated_is_usage_error",)),
)


def run_tests(src: Path, tests) -> bool:
    """Whether the tests pass, run in one pytest process that imports
    pelletsim from `src` (PYTHONPATH comes before any installed copy) and
    writes no bytecode, which a mutant of the same size could leave stale."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600)
    return proc.returncode == 0


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not run_tests(src, sorted({test for m in MUTANTS for test in m.tests})):
            print("the unmutated source fails the mutants' tests")
            return 1
        for m in MUTANTS:
            path = src / "pelletsim" / m.file
            original = path.read_text(encoding="utf-8")
            count = original.count(m.text)
            if count != 1:
                print(f"{m.name}: its text occurs {count} times in {m.file}")
                failed += 1
                continue
            path.write_text(original.replace(m.text, m.replacement), encoding="utf-8")
            try:
                survived = run_tests(src, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{m.name}: {'SURVIVED' if survived else 'killed'}")
            failed += survived
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
