"""The names bench/spans.py wraps, and the arguments its hooks read by
position, still exist in pelletsim; else only a traced benchmark run fails."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # nothing under bench/
import spans  # noqa: E402

sys.dont_write_bytecode = dont_write
sys.path.remove(BENCH)


def _resolve(site: str):
    module, attr = site.split(".")
    return getattr(importlib.import_module(f"pelletsim.{module}"), attr)


@pytest.mark.parametrize("site", [site for _, sites, _ in spans.SITES for site in sites])
def test_every_traced_site_resolves_to_a_callable(site):
    assert callable(_resolve(site))


# (layer, parameter, position): the hooks read args[position], else kwargs[parameter]
@pytest.mark.parametrize("layer, parameter, position", [
    ("engine.simulate", "scenario", 0),
    ("io.write_trajectory_csv", "path", 1),
    ("io.render_svg", "path", 2),
    ("oracle.integrate_flow_rk4", "n_steps", 5),
])
def test_hooks_find_their_arguments_by_position(layer, parameter, position):
    assert layer in spans.HOOKS
    assert list(inspect.signature(_resolve(layer)).parameters).index(parameter) == position
