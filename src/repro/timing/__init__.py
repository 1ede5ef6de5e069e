"""Static timing analysis substrate: clock model, STA engine, metrics, paths."""

from repro.timing.clock import ClockModel
from repro.timing.metrics import (
    TimingSummary,
    choose_clock_period,
    nve,
    summarize,
    tns,
    violating_endpoints,
    wns,
)
from repro.timing.incremental import (
    IncrementalState,
    check_enabled,
    incremental_analyze,
    set_check,
)
from repro.timing.paths import TimingPath, trace_critical_path
from repro.timing.sta import (
    CompiledTiming,
    TimingAnalyzer,
    TimingReport,
    analyze,
    compile_timing,
)

__all__ = [
    "ClockModel",
    "TimingAnalyzer",
    "TimingReport",
    "CompiledTiming",
    "IncrementalState",
    "analyze",
    "compile_timing",
    "check_enabled",
    "incremental_analyze",
    "set_check",
    "TimingSummary",
    "summarize",
    "tns",
    "wns",
    "nve",
    "violating_endpoints",
    "choose_clock_period",
    "TimingPath",
    "trace_critical_path",
]
