"""The benchmark's workloads: inputs drawn from a seed, rounds of operations,
and the checks of every operation's outputs.

Every round runs the same operations, so a run that stops after whole
rounds has the same share of failed operations whatever its length.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as text_io
import itertools
import json
import math
import random
import re
import statistics
import time
from array import array
from decimal import Decimal
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# seconds between host probes, taken between timed calls
PROBE_EVERY_S = 0.1
# about the time host_probe takes on the reference host (a 2-vCPU VM)
PROBE_REF_S = 5e-3


def host_probe(n: int = 40_000) -> float:
    """Seconds a fixed pure-Python float loop takes now: the benchmark's
    measure of how fast the shared host runs at this moment."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(n):
        acc = acc * 0.999 + (i % 7) * 1e-3
    return time.perf_counter() - start


def prep_ticks(doc: dict) -> int:
    """l = ceil(t_prep/t_c) on the decimal values as written, 1 without a gate."""
    act = doc["actuator"]
    if not act["t_prep"] > 0.0:
        return 1
    return max(1, math.ceil(Decimal(repr(act["t_prep"])) / Decimal(repr(act["t_c"]))))


def trajectory_columns(traj) -> dict:
    """The t, j, x and fired columns of an in-memory pelletsim Trajectory."""
    samples = traj.samples
    return {
        "t": np.array([s.time.t for s in samples]),
        "j": np.array([s.time.j for s in samples], dtype=float),
        "x": np.array([s.state.x for s in samples]),
        "fired": np.array([s.fired for s in samples], dtype=bool),
    }


class Workload:
    """Shared bookkeeping: each operation's time, each round's throughput,
    both as measured and scaled to the reference host, the host probes, and
    failed operations and failed checks."""

    def __init__(self, pelletsim, seed: int, workdir: Path):
        self.pelletsim = pelletsim
        self.seed = seed
        self.workdir = workdir
        self.op_times = array("d")  # seconds, one per operation
        self.scaled_op_times = array("d")  # the same, scaled to the reference host
        self.ticks = 0
        self.timed_s = 0.0
        self.failed = 0
        self.failures: set[str] = set()
        self.problems: list[str] = []
        self.round_rates: list[float] = []  # ticks per timed second, one per round
        self.scaled_rates: list[float] = []  # the same, scaled to the reference host
        self.load_s = 0.0  # time in io.load_scenario during set-up
        self.probe_s: list[float] = []  # host_probe times, taken between timed calls
        self._next_probe = 0.0
        self._probe_p = None  # median probe time of the last round that took one
        self.on_op = None  # called with (label, start, end) around each timed call
        self.reference = None  # scenario whose retained bytes per sample are measured

    def _load(self, path: Path):
        start = time.perf_counter()
        scenario = self.pelletsim.io.load_scenario(path)
        self.load_s += time.perf_counter() - start
        return scenario

    def round(self) -> None:
        """Run one round and note its throughput and operation times, as
        measured and scaled to a host that runs host_probe in PROBE_REF_S.
        The scale is the median of the probes taken in this round (or in
        the last round that took one), so that the host's slow and fast
        phases cancel."""
        ticks, timed_s, ops, probes = self.ticks, self.timed_s, len(self.op_times), len(self.probe_s)
        self.run_round()
        if len(self.probe_s) > probes:
            self._probe_p = statistics.median(self.probe_s[probes:])
        scale = PROBE_REF_S / self._probe_p
        rate = (self.ticks - ticks) / (self.timed_s - timed_s)
        self.round_rates.append(rate)
        self.scaled_rates.append(rate / scale)
        self.scaled_op_times.extend(t * scale for t in self.op_times[ops:])

    def _timed(self, label: str, call, cells: int, ticks: int):
        """Time one call that runs `cells` operations and advances `ticks`
        ticks in all, and probe the host after it when a probe is due."""
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        if self.on_op:
            self.on_op(label, start, end)
        seconds = end - start
        self.op_times.extend([seconds / cells] * cells)
        self.timed_s += seconds
        self.ticks += ticks
        if end >= self._next_probe:
            self.probe_s.append(host_probe())
            self._next_probe = time.perf_counter() + PROBE_EVERY_S
        return result

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        out = text_io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.pelletsim.cli.main(argv)
        return code, out.getvalue()

    def _fail(self, label: str) -> None:
        self.failed += 1
        self.failures.add(label)

    def _check(self, label: str, problem: str | None) -> None:
        if problem:
            self.problems.append(f"{label}: {problem}")

    def case(self, name: str, path: Path, scenario) -> dict:
        """One operation's input file, its scenario, and what the checks need,
        read from the file with the json module."""
        doc = json.loads(path.read_text(encoding="utf-8"))
        return {"name": name, "path": str(path), "outdir": str(path.parent),
                "scenario": scenario, "model": checks.model_from_doc(doc, prep_ticks(doc))}

    def write_seeded(self, scenario, name: str, rng: random.Random, **changes) -> dict:
        """Write the scenario with the initial error scaled by a fraction in
        [0.5, 1] drawn from the seed, into a directory of its own."""
        scenario = dataclasses.replace(scenario, x0=scenario.x0 * rng.uniform(0.5, 1.0), **changes)
        outdir = self.workdir / name
        outdir.mkdir()
        path = outdir / "scenario.json"
        path.write_text(self.pelletsim.io.emit_scenario(scenario), encoding="utf-8")
        return self.case(name, path, scenario)


class LongHorizon(Workload):
    """One shipped scenario per variant, plus the preparation gate and the gas
    gun, run through `pelletsim verify --svg` at their own samples per tick.
    Each is stretched to a long horizon that holds about SAMPLES samples, so
    that every operation does about the same work and the median operation
    is a typical one."""

    NAMES = ("nm_tracking", "sdm_windup", "sdm_ic_fast", "sdm_jm", "nm_prep_gate", "nm_gas_gun")
    SAMPLES = 20_000

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.cases = []
        for name in self.NAMES:
            scenario = self._load(SCENARIOS / f"{name}.json")
            ticks = self.SAMPLES / (scenario.samples_per_tick + 1)
            t_end = round(ticks * scenario.actuator.t_c, 1)
            self.cases.append(self.write_seeded(scenario, name, rng, t_end=t_end))
        self.reference = self.cases[0]["scenario"]
        rng.shuffle(self.cases)

    def run_round(self) -> None:
        for case in self.cases:
            argv = ["verify", case["path"], "--svg", "-o", case["outdir"]]
            code, _ = self._timed(case["name"], lambda: self.run_cli(argv), 1, case["model"]["n_ticks"])
            if code != 0:
                self._fail(case["name"])
                continue
            self._check(case["name"], self.check_outputs(Path(case["outdir"]), case["model"]))

    @staticmethod
    def check_outputs(outdir: Path, model: dict) -> str | None:
        cols = checks.read_csv_columns(outdir / "trajectory.csv")
        problem = checks.check_run(cols, model, checks.CSV_REL)
        if problem:
            return problem
        summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
        pellets = summary["verify"]["metrics"]["pellet_count"]
        if pellets != int(cols["fired"].sum()):
            return f"summary.json counts {pellets} pellets, trajectory.csv {int(cols['fired'].sum())}"
        svg = (outdir / "plot.svg").read_text(encoding="utf-8")
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            return "plot.svg is not a complete svg document"
        return None


class TuningGrid(Workload):
    """A lattice over (variant, r, t_c, l = t_prep/t_c).  Each lattice point is
    one io.sweep along delta with one fraction of the threshold scale inside
    the admissible range and one outside, at a short horizon, one sample per
    tick and no artifacts.  The seed draws only the fractions."""

    TEMPLATES = {"NM": "nm_tracking", "SDM": "sdm_windup", "SDM_IC": "sdm_ic_fast", "SDM_JM": "sdm_jm"}
    R = (2e19, 3e19, 5e19, 7e19, 1e20)
    T_C = ("0.001", "0.002", "0.003", "0.004", "0.005", "0.007")
    L = range(1, 8)
    T_END = 0.2
    INSIDE, OUTSIDE = (0.05, 0.95), (1.05, 1.5)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        p = self.pelletsim
        self.rows = []
        for variant, name in self.TEMPLATES.items():
            template = self._load(SCENARIOS / f"{name}.json")
            tau, alpha = template.plant.tau, template.plant.alpha
            for r, tc, l in itertools.product(self.R, self.T_C, self.L):
                t_c, t_prep = float(tc), float(Decimal(tc) * l)
                scale = checks.threshold_scale(variant, tau, r, alpha, t_c, l)
                deltas = [scale * rng.uniform(*self.INSIDE), scale * rng.uniform(*self.OUTSIDE)]
                base = p.engine.Scenario(
                    plant=p.core.PlantParams(tau=tau, r=r, alpha=alpha),
                    actuator=p.core.ActuatorSpec(t_c=t_c, t_prep=t_prep),
                    controller=p.core.ControllerSpec(variant=variant, delta=deltas[0]),
                    x0=r, t_end=self.T_END, samples_per_tick=1,
                )
                label = f"{variant} r={r:g} t_c={tc} t_prep={t_prep!r}"
                cells = [{
                    "label": label, "delta": d,
                    "feasible": checks.expected_feasible(variant, tau, r, alpha, t_c, l, t_prep, d),
                } for d in deltas]
                self.rows.append({"label": label, "base": base, "deltas": deltas, "cells": cells,
                                  "ticks": checks.n_ticks(self.T_END, t_c)})
        self.reference = self.rows[0]["base"]

    def run_round(self) -> None:
        sweep = self.pelletsim.io.sweep
        for row in self.rows:
            cells = row["cells"]
            out = self._timed(row["label"], lambda: sweep(row["base"], "delta", row["deltas"]),
                              len(cells), row["ticks"] * len(cells))
            problem = checks.check_grid_rows(out, cells)
            self._check(row["label"], problem)
            if problem:
                continue
            for got, cell in zip(out, cells):
                if got["envelope"] == "fail":
                    self._fail(f"{cell['label']} delta={cell['delta']!r}")


class OracleCrosscheck(Workload):
    """`pelletsim compare-oracle` at STEPS RK4 steps per tick on every shipped
    scenario.  The seed draws only their order.  The scenarios run as shipped:
    with its initial error scaled, sdm_ic_slow makes the RK4 oracle miss a
    fire for some x0 (its fixed steps lose about half a step of clipped input
    at the kink), so failures would depend on the seed."""

    STEPS = 1000

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.cases = [self.case(path.stem, path, self._load(path))
                      for path in sorted(SCENARIOS.glob("*.json"))]
        self.reference = next(c["scenario"] for c in self.cases if c["name"] == "nm_tracking")
        rng.shuffle(self.cases)
        # keep the RK4 trajectory that compare-oracle computes, at the
        # attribute through which the CLI calls it
        oracle = self.pelletsim.oracle
        numeric = oracle.simulate_numeric

        def keep(*args, **kwargs):
            self.captured = numeric(*args, **kwargs)
            return self.captured

        oracle.simulate_numeric = keep

    def run_round(self) -> None:
        argv_tail = ["--oracle-steps", str(self.STEPS)]
        for case in self.cases:
            self.captured = None
            argv = ["compare-oracle", case["path"], *argv_tail]
            model = case["model"]
            # engine and RK4 ticks
            code, text = self._timed(case["name"], lambda: self.run_cli(argv), 1, 2 * model["n_ticks"])
            if code != 0:
                self._fail(case["name"])
                continue
            self._check(case["name"], self.check_outputs(text, model))

    def check_outputs(self, text: str, model: dict) -> str | None:
        compared = re.search(r"ticks compared: (\d+)", text)
        if not compared or int(compared.group(1)) != model["n_ticks"]:
            got = compared.group(1) if compared else "no"
            return f"compare-oracle reports {got} ticks, expected {model['n_ticks']}"
        if self.captured is None:
            return "compare-oracle did not run the RK4 oracle"
        return checks.check_run(trajectory_columns(self.captured), model, 0.0)


WORKLOADS = {
    "long_horizon": LongHorizon,
    "tuning_grid": TuningGrid,
    "oracle_crosscheck": OracleCrosscheck,
}
