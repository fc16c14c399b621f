"""Run one pelletsim benchmark workload in a fresh process and print its result.

    python3 bench/run.py --workload long_horizon --seed 1 --seconds 10 --trace 0

The workload runs in a child process (worker.py), so that its set-up time
is measured from the moment the process is started and its peak memory is
its own.  The last line printed is the result as one JSON object; with
--trace 1 it holds the per-layer metrics instead of the end-to-end ones.
Exits non-zero, without a result, when the run fails.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("long_horizon", "tuning_grid", "oracle_crosscheck")
# a run must end within 180 s; leave room to stop the child and report
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    worker = Path(__file__).resolve().parent / "worker.py"
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.Popen(
        [sys.executable, str(worker), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--t-spawn", repr(t_spawn)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"bench: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        sys.stderr.write(out)
        print(f"bench: {args.workload} exited with code {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
