"""Causal-past guards over message charts, with online vector-clock monitors.

The library models asynchronous multi-agent executions as message charts,
evaluates guards denotationally against the causal order (the oracle),
runs equivalent per-lifeline online monitors that piggyback clocks and
latest-value views on messages, and differentially verifies that the two
agree at every event.
"""

from .denot import sat, sat_table
from .lang import (
    Cone,
    Formula,
    GuardSet,
    ParseError,
    close_guards,
    expand_derived,
    guard_cones,
    parse_guard,
    pretty,
)
from .monitor import (
    EventDescriptor,
    MessagePayload,
    MonitorError,
    MonitorState,
    init_monitor,
    on_event,
)
from .msc import EventKind, Msc, MscError, MscReport, validate_msc
from .simulator import (
    CoherenceReport,
    DifferentialReport,
    FuzzParams,
    Oracle,
    RunLog,
    Scenario,
    ScenarioError,
    check_coherence,
    differential_check,
    fuzz_sweep,
    gen_random_formulas,
    gen_random_msc,
    load_scenario,
    prepare_oracle,
    run_scenario,
    sample_linear_extension,
)
from .trace import TraceFormatError, dump_trace, load_trace

__version__ = "0.1.0"

__all__ = [
    "CoherenceReport",
    "Cone",
    "DifferentialReport",
    "EventDescriptor",
    "EventKind",
    "Formula",
    "FuzzParams",
    "GuardSet",
    "MessagePayload",
    "MonitorError",
    "MonitorState",
    "Msc",
    "MscError",
    "MscReport",
    "Oracle",
    "ParseError",
    "RunLog",
    "Scenario",
    "ScenarioError",
    "TraceFormatError",
    "check_coherence",
    "close_guards",
    "differential_check",
    "dump_trace",
    "expand_derived",
    "fuzz_sweep",
    "gen_random_formulas",
    "gen_random_msc",
    "guard_cones",
    "init_monitor",
    "load_scenario",
    "load_trace",
    "on_event",
    "parse_guard",
    "prepare_oracle",
    "pretty",
    "run_scenario",
    "sample_linear_extension",
    "sat",
    "sat_table",
    "validate_msc",
]
