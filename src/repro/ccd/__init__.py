"""Concurrent Clock and Data optimization engine.

The substrate standing in for a commercial placement optimizer: endpoint
margins (:mod:`~repro.ccd.margins`), the useful-skew engine
(:mod:`~repro.ccd.useful_skew`), the budgeted data-path optimizer
(:mod:`~repro.ccd.datapath_opt`) and the end-to-end placement flow
(:mod:`~repro.ccd.flow`).
"""

from repro.ccd.datapath_opt import DatapathResult, optimize_datapath
from repro.ccd.flow import (
    FlowConfig,
    FlowResult,
    NetlistState,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.ccd.fullflow import (
    FullFlowResult,
    FullFlowStage,
    default_stages,
    run_full_flow,
)
from repro.ccd.margins import margins_by_amount, margins_to_wns, remove_margins
from repro.ccd.useful_skew import UsefulSkewResult, optimize_useful_skew

__all__ = [
    "FullFlowStage",
    "FullFlowResult",
    "default_stages",
    "run_full_flow",
    "FlowConfig",
    "FlowResult",
    "run_flow",
    "NetlistState",
    "snapshot_netlist_state",
    "restore_netlist_state",
    "margins_to_wns",
    "margins_by_amount",
    "remove_margins",
    "UsefulSkewResult",
    "optimize_useful_skew",
    "DatapathResult",
    "optimize_datapath",
]
