"""The measured process of one benchmark run; started by run.py.

It imports pelletsim from this checkout's src/, builds the workload's inputs
from the seed, runs whole rounds of operations until --seconds have passed,
checks every operation's outputs, and prints the result as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "_out"

END_TO_END = {"setup_s": "s", "ticks_per_s": "ticks/s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}

# per-layer metric -> unit; every value is per round unless its unit is a ratio
PER_LAYER = {
    "setup.import_s": "s",
    "io.load_scenario_s": "s",
    "engine.simulate_s": "s",
    "engine.samples": "count",
    "engine.ticks": "count",
    "engine.ns_per_sample": "ns",
    "engine.bytes_per_sample": "B",
    "flow.flow_x_calls": "count",
    "flow.flow_xi_calls": "count",
    "controllers.tick_jump_s": "s",
    "controllers.fires": "count",
    "verify.report_s": "s",
    "verify.check_envelope_s": "s",
    "verify.check_zeno_s": "s",
    "verify.check_dwell_s": "s",
    "verify.check_contraction_s": "s",
    "verify.detect_windup_s": "s",
    "verify.compute_metrics_s": "s",
    "engine.steady_state_window_calls": "count",
    "bounds.envelope_calls": "count",
    "bounds.certify_s": "s",
    "bounds.certify_calls": "count",
    "core.validate_calls": "count",
    "io.run_scenario_s": "s",
    "io.sweep_s": "s",
    "io.write_trajectory_csv_s": "s",
    "io.csv_bytes": "B",
    "io.render_svg_s": "s",
    "io.svg_bytes": "B",
    "oracle.simulate_numeric_s": "s",
    "oracle.rk4_steps": "count",
    "oracle.ns_per_rk4_step": "ns",
    "verify.compare_s": "s",
    "trace.op_s": "s",
    "trace.layer_self_s": "s",
}


def import_pelletsim():
    """Import pelletsim from this checkout only; exit 1 when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import pelletsim
        from pelletsim import bounds, cli, core, engine, flow, io, oracle, verify
    except ImportError as exc:
        sys.exit(f"bench: cannot import pelletsim from {SRC}: {exc}")
    if Path(pelletsim.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: pelletsim was imported from {pelletsim.__file__}, not from {SRC}")
    return argparse.Namespace(bounds=bounds, cli=cli, core=core, engine=engine, flow=flow,
                              io=io, oracle=oracle, verify=verify)


def retained_bytes_per_sample(pelletsim, scenario) -> float:
    """Bytes that a Trajectory from engine.simulate keeps alive, per sample."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = pelletsim.engine.simulate(scenario)
        retained = tracemalloc.get_traced_memory()[0] - before
        return retained / len(traj)
    finally:
        tracemalloc.stop()


def per_layer(tracer, rounds: int, import_s: float, load_s: float, bytes_per_sample: float) -> dict:
    """Every PER_LAYER value of a traced run, per round where it is a total."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def ns_per(span: str, count: str) -> float:
        return self_s.get(span, 0.0) / counts[count] * 1e9 if counts[count] else 0.0

    values = {
        "setup.import_s": import_s,
        "io.load_scenario_s": load_s,
        "engine.bytes_per_sample": bytes_per_sample,
        "engine.ns_per_sample": ns_per("engine.simulate", "engine.samples"),
        "oracle.ns_per_rk4_step": ns_per("oracle.simulate_numeric", "oracle.rk4_steps"),
        "trace.op_s": sum(op["end"] - op["start"] for op in tracer.ops) / rounds,
        "trace.layer_self_s": sum(self_s.values()) / rounds,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        if name.endswith("_s"):
            total = self_s.get(name[:-2], 0.0)
        elif name.endswith("_calls"):
            total = calls[name[:-6]]
        else:
            total = counts[name]
        values[name] = total / rounds
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    pelletsim = import_pelletsim()
    import_s = time.perf_counter() - t0

    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](pelletsim, args.seed, workdir)
        workload.setup()
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t_spawn

        tracer = None
        if args.trace:
            bytes_per_sample = retained_bytes_per_sample(pelletsim, workload.reference)
            tracer = spans.Tracer(vars(pelletsim))
            tracer.install()
            workload.on_op = tracer.op

        start = time.perf_counter()
        while True:
            workload.round()
            if time.perf_counter() - start >= args.seconds:
                break
        rounds = len(workload.round_rates)
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in workload.problems[:10]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if workload.failed:
        print(f"bench: {workload.failed} of {len(workload.op_times)} operations failed: "
              f"{sorted(workload.failures)}", file=sys.stderr)

    if tracer:
        values = per_layer(tracer, rounds, import_s, workload.load_s, bytes_per_sample)
        units = PER_LAYER
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "rounds": rounds,
            "per_round": values,
            "layers": {name: {"calls": tracer.calls[name],
                              "self_s": tracer.self_s.get(name, 0.0),
                              "total_s": tracer.total_s.get(name, 0.0)}
                       for name in sorted(tracer.calls)},
            "counts": dict(tracer.counts),
            "ops": tracer.ops,
        }, indent=1) + "\n", encoding="utf-8")
    else:
        print(f"bench: host_probe median {statistics.median(workload.probe_s) * 1e3:.3f} ms over "
              f"{len(workload.probe_s)} probes; unscaled ticks_per_s "
              f"{statistics.median(workload.round_rates):.1f}, "
              f"op_p50_ms {statistics.median(workload.op_times) * 1e3:.4f}", file=sys.stderr)
        values = {
            "setup_s": setup_s,
            "ticks_per_s": statistics.median(workload.scaled_rates),
            "op_p50_ms": statistics.median(workload.scaled_op_times) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{len(workload.op_times)} operations", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": len(workload.op_times),
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
