"""Deterministic hybrid simulator and stability certificates for
pellet-based plasma density control."""

from .bounds import certify, delta_max, envelope, tc_max, ub_ic_slow
from .controllers import JumpOutcome, tick_jump
from .core import (
    ActuatorMode,
    ActuatorSpec,
    Certificate,
    ControllerSpec,
    EmptyTrajectory,
    HybridState,
    HybridTime,
    NonPositiveParam,
    PlantParams,
    RNotAboveAlpha,
    Trajectory,
    TrajectorySample,
    ValidationError,
    Variant,
    r_max,
    validate,
)
from .engine import Scenario, simulate, steady_state_window
from .flow import flow_x, flow_xi, sat_crossing_time, zero_crossing_time
from .io import (
    EmptyAxis,
    NonFinite,
    ParseError,
    RunResult,
    SchemaError,
    emit_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
    sweep,
)
from .oracle import StepTooCoarse, simulate_numeric
from .verify import (
    ComparisonResult,
    GridMismatch,
    Metrics,
    VerifyReport,
    check_contraction,
    check_dwell,
    check_envelope,
    check_zeno,
    compare,
    compute_metrics,
    detect_windup,
    report,
)

__version__ = "0.1.0"

__all__ = [
    "ActuatorMode", "ActuatorSpec", "Certificate", "ComparisonResult",
    "ControllerSpec", "EmptyAxis", "EmptyTrajectory", "GridMismatch",
    "HybridState", "HybridTime", "JumpOutcome", "Metrics", "NonFinite", "NonPositiveParam",
    "ParseError", "PlantParams", "RNotAboveAlpha", "RunResult", "Scenario",
    "SchemaError", "StepTooCoarse", "Trajectory", "TrajectorySample",
    "ValidationError", "Variant", "VerifyReport", "certify",
    "check_contraction", "check_dwell", "check_envelope", "check_zeno",
    "compare", "compute_metrics", "delta_max", "detect_windup",
    "emit_scenario", "envelope", "flow_x", "flow_xi", "load_scenario",
    "parse_scenario", "r_max", "report", "run_scenario", "sat_crossing_time",
    "simulate", "simulate_numeric", "steady_state_window", "sweep", "tc_max",
    "tick_jump", "ub_ic_slow", "validate", "zero_crossing_time",
]
