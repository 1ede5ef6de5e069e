"""Placement-stage optimization flow (paper Fig. 1 and Fig. 2).

Both flows run the *same* optimization steps on a globally placed netlist —
the only difference is the endpoint-prioritization front end:

``default flow``
    useful skew  →  data-path optimization  →  final useful-skew cleanup

``RL-enhanced flow``
    margins on the agent-selected endpoints (worsened to WNS)
    →  useful skew (over-fixes the margined endpoints)
    →  **margins removed**
    →  data-path optimization  →  final useful-skew cleanup

matching the paper's constraint that "the total optimization steps between
the left flow (default) and the right flow (ours) are exactly the same" and
that margins are removed after the useful-skew step (Algorithm 1 line 16).

:func:`run_flow` deep-copies nothing: it *mutates* the provided netlist and
returns the final clock; callers that need repeated runs from the same
starting point (every RL episode!) snapshot state with
:func:`snapshot_netlist_state` / :func:`restore_netlist_state`, which is two
orders of magnitude cheaper than re-generating or deep-copying the design.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.ccd.datapath_opt import DatapathConfig, DatapathResult, optimize_datapath
from repro.ccd.margins import margins_by_amount, margins_to_wns, remove_margins
from repro.ccd.useful_skew import UsefulSkewConfig, UsefulSkewResult, optimize_useful_skew
from repro.netlist.core import Netlist
from repro.power.models import PowerReport, report_power
from repro.timing.clock import ClockModel
from repro.timing.metrics import TimingSummary, summarize
from repro.timing.sta import TimingAnalyzer, TimingReport


@dataclass(frozen=True)
class FlowConfig:
    """One placement-optimization recipe, shared by both flows."""

    clock_period: float
    skew: UsefulSkewConfig = UsefulSkewConfig()
    datapath: DatapathConfig = DatapathConfig()
    final_skew_pass: bool = True
    # Margin mode for the prioritized endpoints: "wns" (paper default:
    # worsen to design WNS → over-fix) or a float (uniform margin; negative
    # reproduces the rejected "under-fix" variant for the A1 ablation).
    margin_mode: object = "wns"
    # Incremental STA (default); False runs every analysis on the full
    # engine — the oracle the equivalence tests and perfbench's full-STA
    # check compare against.
    incremental_sta: bool = True


@dataclass
class FlowResult:
    """Everything Table II and the figures need from one flow run."""

    begin: TimingSummary
    final: TimingSummary
    begin_power: PowerReport
    final_power: PowerReport
    clock: ClockModel
    report: TimingReport
    prioritized: List[int]
    skew_result: UsefulSkewResult
    datapath_result: DatapathResult
    runtime_seconds: float
    arrival_adjustments: Dict[int, float] = field(default_factory=dict)

    @property
    def tns(self) -> float:
        return self.final.tns

    @property
    def wns(self) -> float:
        return self.final.wns

    @property
    def nve(self) -> int:
        return self.final.nve


def _sta_flow_stats(counters_before: Mapping[str, float]) -> Dict[str, float]:
    """Per-flow delta of the ``sta.*`` counters plus the frontier-peak gauge.

    The recorder's counters are process-cumulative; the flow record wants
    how much *this* run cost, so subtract the values captured at entry.
    The gauge is a running max, reported as-is.
    """
    recorder = obs.get_recorder()
    stats = {
        name.split(".", 1)[1]: recorder.counters.get(name, 0.0) - before
        for name, before in counters_before.items()
    }
    stats["frontier_peak"] = recorder.gauges.get("sta.frontier_peak", 0.0)
    return stats


def _check_finite_slack(netlist: Netlist, report: TimingReport, boundary: str) -> None:
    """Refuse a flow boundary whose endpoint slacks are not all finite.

    The reward is TNS, so one NaN slack would otherwise reach training as
    a NaN reward with nothing louder than a NumPy ``RuntimeWarning``.
    """
    finite = np.isfinite(report.slack)
    if finite.all():
        return
    position = int(np.argmin(finite))
    cell = netlist.cells[int(report.endpoints[position])]
    raise ValueError(
        f"{boundary} STA: non-finite slack {float(report.slack[position])!r} "
        f"at endpoint cell {cell.index} ({cell.name!r}); "
        f"{int((~finite).sum())} of {finite.size} endpoints affected"
    )


def run_flow(
    netlist: Netlist,
    config: FlowConfig,
    prioritized_endpoints: Iterable[int] = (),
) -> FlowResult:
    """Run the placement-stage CCD flow; see module docstring.

    With an empty ``prioritized_endpoints`` this is the *default tool flow*;
    with an agent/baseline selection it is the *RL-enhanced flow*.
    """
    watch = obs.Stopwatch()
    prioritized = [int(e) for e in prioritized_endpoints]
    sta_counters = (
        "sta.full_analyze",
        "sta.incremental_analyze",
        "sta.frontier_cells",
        "sta.vectorized_levels",
        "sta.scalar_levels",
    )
    counters_before = {
        name: obs.get_recorder().counters.get(name, 0.0) for name in sta_counters
    }
    with obs.span("flow.run", attrs={"prioritized": len(prioritized)}):
        analyzer = TimingAnalyzer(netlist, incremental=config.incremental_sta)
        clock = ClockModel.for_netlist(netlist, config.clock_period)

        with obs.span("flow.begin_sta") as sp_begin:
            begin_report = analyzer.analyze(clock)
            _check_finite_slack(netlist, begin_report, "begin")
            begin_summary = summarize(begin_report)
            begin_power = report_power(netlist, clock, analyzer.compiled.load_cap)

        # --- endpoint prioritization via margins (RL flow only) ------- #
        margins: Mapping[int, float] = {}
        if prioritized:
            if config.margin_mode == "wns":
                margins = margins_to_wns(begin_report, prioritized)
            else:
                margins = margins_by_amount(prioritized, float(config.margin_mode))
            # Margins are a view: analyze() diffs them itself, nothing to
            # dirty (see TimingAnalyzer.notify_margins).
            analyzer.notify_margins()

        # --- clock-path optimization: useful skew --------------------- #
        with obs.span("flow.skew") as sp_skew:
            skew_result = optimize_useful_skew(analyzer, clock, margins, config.skew)

        # --- margins removed (Algorithm 1 line 16) -------------------- #
        margins = remove_margins(margins)
        analyzer.notify_margins()

        # --- remaining placement optimization: data-path fixing ------- #
        with obs.span("flow.datapath") as sp_datapath:
            datapath_result = optimize_datapath(
                analyzer, clock, margins, config.datapath
            )

        # --- final skew cleanup (CCD interleaving continues in tail) -- #
        with obs.span("flow.final_skew") as sp_final_skew:
            if config.final_skew_pass:
                optimize_useful_skew(analyzer, clock, margins, config.skew)

        with obs.span("flow.final_sta") as sp_final:
            final_report = analyzer.analyze(clock)
            _check_finite_slack(netlist, final_report, "final")
            final_summary = summarize(final_report)
            final_power = report_power(netlist, clock, analyzer.compiled.load_cap)
    runtime = watch.elapsed
    obs.gauge("flow.endpoints", begin_summary.num_endpoints)

    if obs.records_active():
        obs.emit(
            "flow",
            {
                "endpoints": begin_summary.num_endpoints,
                "prioritized": len(prioritized),
                "begin_tns": begin_summary.tns,
                "begin_wns": begin_summary.wns,
                "final_tns": final_summary.tns,
                "final_wns": final_summary.wns,
                "final_nve": final_summary.nve,
                "skew_commits": skew_result.commits,
                "datapath_moves": datapath_result.total_moves,
                "phases": {
                    "begin_sta": sp_begin.elapsed,
                    "skew": sp_skew.elapsed,
                    "datapath": sp_datapath.elapsed,
                    "final_skew": sp_final_skew.elapsed,
                    "final_sta": sp_final.elapsed,
                },
                "runtime_seconds": runtime,
                "sta": _sta_flow_stats(counters_before),
            },
        )

    return FlowResult(
        begin=begin_summary,
        final=final_summary,
        begin_power=begin_power,
        final_power=final_power,
        clock=clock,
        report=final_report,
        prioritized=prioritized,
        skew_result=skew_result,
        datapath_result=datapath_result,
        runtime_seconds=runtime,
        arrival_adjustments=dict(clock.adjustments()),
    )


# ---------------------------------------------------------------------- #
# Netlist state snapshots: each RL episode replays the flow from the same
# post-global-placement state.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class NetlistState:
    """Reversible snapshot of flow-mutable netlist state.

    When observability verify mode is on (``REPRO_OBS_VERIFY=1``) and the
    snapshot was taken with a ``verify_clock_period``, the snapshot also
    pins the begin timing summary; every restore then re-runs STA and
    asserts the summary came back **bit-for-bit**, so silent snapshot drift
    surfaces as a hard error in CI instead of a bogus RL reward.
    """

    num_cells: int
    num_nets: int
    size_indices: Tuple[int, ...]
    net_sinks: Tuple[Tuple[Tuple[int, int], ...], ...]
    cell_fanins: Tuple[Tuple[Optional[int], ...], ...]
    cell_fanouts: Tuple[Optional[int], ...]
    parasitic_scale: float = 1.0
    verify_clock_period: Optional[float] = None
    verify_summary: Optional[TimingSummary] = None


def _fresh_summary(netlist: Netlist, clock_period: float) -> TimingSummary:
    """Begin-state summary from a fresh analyzer (deterministic)."""
    analyzer = TimingAnalyzer(netlist)
    clock = ClockModel.for_netlist(netlist, clock_period)
    return summarize(analyzer.analyze(clock))


def flow_config_digest(config: FlowConfig) -> str:
    """Stable content digest of one flow recipe (reward-cache key half).

    Built from the ``repr`` of every reward-affecting field — the nested
    configs are frozen dataclasses whose reprs are deterministic — so two
    configs digest equal iff they run the same optimization.
    """
    payload = repr(
        (
            config.clock_period,
            config.skew,
            config.datapath,
            config.final_skew_pass,
            config.margin_mode,
            config.incremental_sta,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def netlist_state_digest(state: NetlistState) -> str:
    """Stable content digest of a snapshot's *structural* fields.

    The verify-mode fields are excluded: they change with observability
    settings, not with the design, and the digest addresses design content
    (the reward-cache key's other half).
    """
    payload = repr(
        (
            state.num_cells,
            state.num_nets,
            state.size_indices,
            state.net_sinks,
            state.cell_fanins,
            state.cell_fanouts,
            state.parasitic_scale,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def snapshot_netlist_state(
    netlist: Netlist, verify_clock_period: Optional[float] = None
) -> NetlistState:
    """Capture sizes and connectivity before a flow run.

    ``verify_clock_period`` arms the verify-mode integrity check (see
    :class:`NetlistState`); it costs one extra STA run per snapshot and per
    restore, so it is only honoured when verify mode is enabled.
    """
    verify_summary = None
    if verify_clock_period is not None and obs.verify_enabled():
        verify_summary = _fresh_summary(netlist, verify_clock_period)
    else:
        verify_clock_period = None
    return NetlistState(
        num_cells=netlist.num_cells,
        num_nets=netlist.num_nets,
        size_indices=tuple(c.size_index for c in netlist.cells),
        net_sinks=tuple(tuple(net.sinks) for net in netlist.nets),
        cell_fanins=tuple(tuple(c.fanin_nets) for c in netlist.cells),
        cell_fanouts=tuple(c.fanout_net for c in netlist.cells),
        parasitic_scale=netlist.parasitic_scale,
        verify_clock_period=verify_clock_period,
        verify_summary=verify_summary,
    )


def restore_netlist_state(netlist: Netlist, state: NetlistState) -> None:
    """Undo flow mutations: drop inserted buffers, restore sizes and wiring."""
    # Remove cells/nets appended after the snapshot (buffer insertions only
    # ever append, never reorder).
    del netlist.cells[state.num_cells :]
    for name in [c for c in netlist._name_to_cell if netlist._name_to_cell[c] >= state.num_cells]:
        del netlist._name_to_cell[name]
    del netlist.nets[state.num_nets :]
    for cell, size_index in zip(netlist.cells, state.size_indices):
        cell.size_index = size_index
    for cell, fanins, fanout in zip(netlist.cells, state.cell_fanins, state.cell_fanouts):
        cell.fanin_nets = list(fanins)
        cell.fanout_net = fanout
    for net, sinks in zip(netlist.nets, state.net_sinks):
        net.sinks = list(sinks)
    netlist.parasitic_scale = state.parasitic_scale
    # A restore is itself a (bulk) mutation: bump the version so any
    # TimingAnalyzer that lived through the episode recompiles instead of
    # trusting caches patched by mid-episode notify_resize() calls.
    netlist.mutation_version += 1

    if state.verify_summary is not None and obs.verify_enabled():
        assert state.verify_clock_period is not None
        roundtrip = _fresh_summary(netlist, state.verify_clock_period)
        if roundtrip != state.verify_summary:
            raise RuntimeError(
                "netlist snapshot drift: timing after restore_netlist_state "
                f"differs from the pre-run summary — expected "
                f"{state.verify_summary}, got {roundtrip}"
            )
        obs.incr("flow.verified_restores")
