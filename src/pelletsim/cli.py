"""Command-line interface.

Verbs: certify, verify, sweep, compare-oracle.  `verify` is the one verb
that runs a scenario and writes its artifacts; the scenario file alone sets
how densely it is sampled (`sim.samples_per_tick`).  Exit code 0 iff every
applicable check passed; 1 when a check failed (the machine-readable reason
lands in summary.json); 2 for unusable input; 141 when the reader of stdout
closed it early.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, replace

from . import bounds, io, oracle, verify
from .core import ValidationError
from .engine import simulate


def _cmd_certify(args) -> int:
    scenario = io.load_scenario(args.scenario)
    cert = bounds.certify(scenario.plant, scenario.actuator, scenario.controller)
    print(io.dump_json(asdict(cert)), end="")
    return 0


def _cmd_verify(args) -> int:
    scenario = io.load_scenario(args.scenario)
    result = io.run_scenario(scenario, outdir=args.outdir, svg=args.svg)
    rep = result.report
    print(f"certificate: {'feasible' if result.certificate.feasible else 'infeasible'}"
          + (f" ({result.certificate.reason})" if result.certificate.reason else ""))
    for name in rep.verdicts:
        print(f"{name}: {rep.status(name)}")
    print(f"windup_detected: {rep.windup_detected}")
    m = rep.metrics
    print(f"pellets: {m.pellet_count}  steady x in [{m.min_x_steady:.4e}, {m.max_x_steady:.4e}]"
          f"  mean {m.mean_x_steady:.4e}")
    return 0 if result.passed else 1


def _cmd_sweep(args) -> int:
    scenario = io.load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print("error: could not parse --values as comma-separated numbers", file=sys.stderr)
        return 2
    rows = io.sweep(scenario, args.axis, values, outdir=args.outdir)
    print(f"wrote {args.outdir}/sweep.csv ({len(rows)} rows)")
    return 0


def _cmd_compare_oracle(args) -> int:
    # the comparison reads tick boundaries only: no intra-tick samples
    scenario = replace(io.load_scenario(args.scenario), samples_per_tick=1)
    analytic = simulate(scenario)
    numeric = oracle.simulate_numeric(scenario, args.oracle_steps)
    result = verify.compare(analytic, numeric, rtol=args.rtol)
    print(f"ticks compared: {result.n_ticks}")
    print(f"max relative deviation: x {result.max_rel_x:.3e}, xi {result.max_rel_xi:.3e}")
    if result.fire_mismatch is not None:
        fm = result.fire_mismatch
        print(f"fire decision mismatch at tick {fm.tick} (t={fm.t:.6f}s)")
    return 0 if result.passed else 1


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="pelletsim",
        description="Deterministic simulator and tuning certificates for "
        "pellet-based plasma density control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_verb(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("scenario", help="scenario JSON file")
        return p

    add_verb("certify", _cmd_certify, "print the tuning certificate")
    p_verify = add_verb("verify", _cmd_verify, "run, check, and write artifacts")
    p_verify.add_argument("-o", "--outdir", default="out")
    p_verify.add_argument("--svg", action="store_true", help="also render plot.svg")
    p_sweep = add_verb("sweep", _cmd_sweep, "rerun over a parameter axis")
    p_sweep.add_argument("-o", "--outdir", default="out")
    p_sweep.add_argument("--axis", choices=tuple(io.SWEEP_AXES), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_cmp = add_verb("compare-oracle", _cmd_compare_oracle, "cross-check against RK4 integration")
    p_cmp.add_argument("--oracle-steps", type=int, default=1000, metavar="N")
    p_cmp.add_argument("--rtol", type=_tolerance, default=verify.RTOL)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # so that a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early (`| head`): stop quietly, with the status a
        # shell reports for a process ended by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + 13
    except (io.ParseError, io.SchemaError, io.EmptyAxis, io.NonFinite, ValidationError,
            oracle.StepTooCoarse, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
