"""Per-layer spans and counters, recorded from outside pelletsim.

The tracer replaces a function by a wrapper at each place the program looks
it up: a module attribute, which is where every caller inside the package
finds it.  Several functions are imported by name into other modules, so
one function can have several lookup sites, all listed in SITES.

A span records calls and inclusive time, and its self time: the inclusive
time less the time of the spans it caused.  Counters record calls and a
count taken from the call's arguments or result, at no timing cost.
Spans are aggregated per name in memory; the top-level operation spans are
kept one by one and written out with the aggregates at the end.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import checks

# (layer name, lookup sites as "module.attribute", span or counter)
SITES = (
    ("engine.simulate", ("io.simulate", "cli.simulate"), "span"),
    ("controllers.tick_jump", ("engine.tick_jump", "oracle.tick_jump"), "span"),
    ("flow.flow_x", ("flow.flow_x", "bounds.flow_x"), "count"),
    ("flow.flow_xi", ("flow.flow_xi",), "count"),
    ("core.validate", ("engine.validate", "bounds.validate", "core.validate"), "count"),
    ("bounds.certify", ("bounds.certify",), "span"),
    ("bounds.envelope", ("bounds.envelope",), "count"),
    ("engine.steady_state_window", ("verify.steady_state_window",), "count"),
    ("verify.report", ("verify.report",), "span"),
    ("verify.check_envelope", ("verify.check_envelope",), "span"),
    ("verify.check_zeno", ("verify.check_zeno",), "span"),
    ("verify.check_dwell", ("verify.check_dwell",), "span"),
    ("verify.check_contraction", ("verify.check_contraction",), "span"),
    ("verify.detect_windup", ("verify.detect_windup",), "span"),
    ("verify.compute_metrics", ("verify.compute_metrics",), "span"),
    ("verify.compare", ("verify.compare",), "span"),
    ("io.load_scenario", ("io.load_scenario",), "span"),
    ("io.run_scenario", ("io.run_scenario",), "span"),
    ("io.sweep", ("io.sweep",), "span"),
    ("io.write_trajectory_csv", ("io.write_trajectory_csv",), "span"),
    ("io.render_svg", ("io.render_svg",), "span"),
    ("oracle.simulate_numeric", ("oracle.simulate_numeric",), "span"),
    ("oracle.integrate_flow_rk4", ("oracle.integrate_flow_rk4",), "count"),
)


def _simulated(tracer, result, args, kwargs):
    scenario = args[0] if args else kwargs["scenario"]
    tracer.counts["engine.samples"] += len(result)
    tracer.counts["engine.ticks"] += checks.n_ticks(scenario.t_end, scenario.actuator.t_c)


def _jumped(tracer, result, args, kwargs):
    tracer.counts["controllers.fires"] += bool(result.fired)


def _file_bytes(key, position):
    def hook(tracer, result, args, kwargs):
        path = args[position] if len(args) > position else kwargs["path"]
        tracer.counts[key] += os.path.getsize(path)
    return hook


def _rk4_steps(tracer, result, args, kwargs):
    tracer.counts["oracle.rk4_steps"] += args[5] if len(args) > 5 else kwargs["n_steps"]


# counts taken from a call, keyed by layer name
HOOKS = {
    "engine.simulate": _simulated,
    "controllers.tick_jump": _jumped,
    "io.write_trajectory_csv": _file_bytes("io.csv_bytes", 1),
    "io.render_svg": _file_bytes("io.svg_bytes", 2),
    "oracle.integrate_flow_rk4": _rk4_steps,
}


class Tracer:
    """Installs wrappers at every lookup site and removes them again."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.ops: list[dict] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple] = []

    def _span(self, name, fn, hook):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                self.total_s[name] += dt
                self.self_s[name] += dt - children
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if hook:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    def _counter(self, name, fn, hook):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if hook:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        for name, sites, kind in SITES:
            make = self._span if kind == "span" else self._counter
            for site in sites:
                module_name, attr = site.split(".")
                module = self.modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original, HOOKS.get(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def op(self, label: str, start: float, end: float) -> None:
        """Record one top-level operation span."""
        self.ops.append({"name": label, "start": start, "end": end, "parent": None})
