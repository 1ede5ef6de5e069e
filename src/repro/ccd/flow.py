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

**Begin-state timing is compiled once per snapshot.**  Every flow after a
snapshot or a restore starts from the same timing state, so the first one
keeps a pristine copy of its compiled view, its begin incremental state
and its begin report (a *begin bundle*).  A later flow that starts at the
same snapshot, with incremental STA and the same clock period, runs on
buffer copies of that bundle instead of recompiling the netlist and
re-running begin STA.  Anything else — a mutation after the restore
(``mutation_version`` moved), another snapshot, another period,
``incremental_sta=False`` — takes the from-scratch path.  Bundles live in
a module-level weak-key map, never on the netlist, so pickling a netlist
never pickles compiled views (see ``docs/timing.md``).

**A flow computes no power.**  The reward is the final TNS; the harnesses
that print power (Table II, the A4 and A5 ablations) call
:func:`repro.power.models.report_power` on the flow's final netlist state,
before they restore it.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.ccd.datapath_opt import DatapathResult, optimize_datapath
from repro.ccd.margins import margins_by_amount, margins_to_wns, remove_margins
from repro.ccd.useful_skew import UsefulSkewResult, optimize_useful_skew
from repro.netlist.core import Netlist
from repro.timing import incremental as inc
from repro.timing.clock import ClockModel
from repro.timing.incremental import IncrementalState
from repro.timing.metrics import TimingSummary, summarize
from repro.timing.sta import (
    CompiledTiming,
    TimingAnalyzer,
    TimingReport,
    buffer_mismatches,
    compile_timing,
)
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FlowConfig:
    """One placement-optimization recipe, shared by both flows."""

    clock_period: float
    # Data-path effort: moves per initially violating endpoint
    # (:func:`~repro.ccd.datapath_opt.optimize_datapath`).
    datapath_effort: float = 2.0
    # Margin mode for the prioritized endpoints: "wns" (paper default:
    # worsen to design WNS → over-fix) or a float (uniform margin; negative
    # reproduces the rejected "under-fix" variant for the A1 ablation).
    margin_mode: object = "wns"
    # Incremental STA (default); False runs every analysis on the full
    # engine — the oracle the equivalence tests and perfbench's full-STA
    # check compare against.
    incremental_sta: bool = True

    def __post_init__(self) -> None:
        check_positive("datapath_effort", self.datapath_effort)


@dataclass
class FlowResult:
    """Everything Table II and the figures need from one flow run; the
    final skew schedule is ``clock.adjustments()``."""

    begin: TimingSummary
    final: TimingSummary
    clock: ClockModel
    report: TimingReport
    prioritized: List[int]
    skew_result: UsefulSkewResult
    datapath_result: DatapathResult
    runtime_seconds: float

    @property
    def tns(self) -> float:
        return self.final.tns

    @property
    def wns(self) -> float:
        return self.final.wns

    @property
    def nve(self) -> int:
        return self.final.nve


def _sta_flow_stats(
    counters_before: Mapping[str, float], analyzer: TimingAnalyzer
) -> Dict[str, float]:
    """Per-flow delta of the ``sta.*`` counters plus the flow's frontier peak.

    The recorder's counters are process-cumulative; the flow record wants
    how much *this* run cost, so subtract the values captured at entry.
    The peak is the flow's own analyzer's.
    """
    recorder = obs.get_recorder()
    stats = {
        name.split(".", 1)[1]: recorder.counters.get(name, 0.0) - before
        for name, before in counters_before.items()
    }
    stats["frontier_peak"] = float(analyzer.frontier_peak)
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


@dataclass(frozen=True)
class _BeginTiming:
    """Begin-state timing of one restored snapshot at one clock period.

    ``compiled`` and ``state`` are pristine: no flow runs on them, only on
    the copies :meth:`analyzer` hands out.  The report and summary are
    never mutated, so flows share them.  ``compiled`` is kept detached
    (``netlist=None``): the bundle map is weak-keyed by the netlist, and a
    strong reference from its value would keep the netlist alive forever.
    """

    snapshot: "NetlistState"
    period: float
    compiled: CompiledTiming
    state: IncrementalState
    report: TimingReport
    summary: TimingSummary

    def analyzer(self, netlist: Netlist) -> TimingAnalyzer:
        """An analyzer for ``netlist`` at its current version, on fresh copies."""
        compiled = self.compiled.copy()
        compiled.netlist = netlist
        return TimingAnalyzer.resume(
            compiled, self.state.copy(compiled), netlist.mutation_version
        )


#: Per netlist: the snapshot it was last taken at or restored to and the
#: ``mutation_version`` it was left at.
_restored: "weakref.WeakKeyDictionary[Netlist, Tuple[NetlistState, int]]" = (
    weakref.WeakKeyDictionary()
)
#: Per netlist: the begin bundle of the last snapshot a flow started from.
_begin_timing: "weakref.WeakKeyDictionary[Netlist, _BeginTiming]" = (
    weakref.WeakKeyDictionary()
)


def _check_begin(netlist: Netlist, compiled: CompiledTiming) -> None:
    """Shadow check: a copied begin compile must equal a fresh compile."""
    drift = buffer_mismatches(compiled.buffers, compile_timing(netlist).buffers)
    if drift:
        raise RuntimeError(
            "begin-state timing drift: the copied begin state differs from "
            f"a fresh one in {', '.join(drift)} — the netlist was changed "
            "after restore_netlist_state without a mutation_version bump "
            "(cell coordinates are unversioned)"
        )


def _begin_sta(
    netlist: Netlist, config: FlowConfig, clock: ClockModel
) -> Tuple[TimingAnalyzer, TimingReport, TimingSummary]:
    """A flow's analyzer and begin timing.

    Served by copies of the snapshot's begin bundle when it may serve this
    flow (module docstring); otherwise compiled and analyzed from scratch,
    keeping a new bundle when the netlist still sits at a restore.
    """
    # The snapshot the netlist sits at, if nothing mutated it since.
    restored = _restored.get(netlist) if config.incremental_sta else None
    snapshot = None
    if restored is not None and restored[1] == netlist.mutation_version:
        snapshot = restored[0]
    begin = _begin_timing.get(netlist) if snapshot is not None else None
    if (
        begin is not None
        and begin.snapshot is snapshot
        and begin.period == config.clock_period
    ):
        obs.incr("flow.begin_copies")
        analyzer = begin.analyzer(netlist)
        if inc.check_enabled():
            _check_begin(netlist, analyzer.compiled)
        _check_finite_slack(netlist, begin.report, "begin")
        return analyzer, begin.report, begin.summary

    analyzer = TimingAnalyzer(netlist, incremental=config.incremental_sta)
    report = analyzer.analyze(clock)
    _check_finite_slack(netlist, report, "begin")
    summary = summarize(report)
    if snapshot is not None:
        # Copy before notify_resize patches the live view.
        compiled = analyzer.compiled.copy()
        compiled.netlist = None
        _begin_timing[netlist] = _BeginTiming(
            snapshot=snapshot,
            period=config.clock_period,
            compiled=compiled,
            state=analyzer.state.copy(compiled),
            report=report,
            summary=summary,
        )
    return analyzer, report, summary


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
        clock = ClockModel.for_netlist(netlist, config.clock_period)

        with obs.span("flow.begin_sta") as sp_begin:
            analyzer, begin_report, begin_summary = _begin_sta(
                netlist, config, clock
            )

        # --- endpoint prioritization via margins (RL flow only) ------- #
        margins: Mapping[int, float] = {}
        if prioritized:
            if config.margin_mode == "wns":
                margins = margins_to_wns(begin_report, prioritized)
            else:
                margins = margins_by_amount(prioritized, float(config.margin_mode))

        # --- clock-path optimization: useful skew --------------------- #
        with obs.span("flow.skew") as sp_skew:
            skew_result = optimize_useful_skew(analyzer, clock, margins)

        # --- margins removed (Algorithm 1 line 16) -------------------- #
        margins = remove_margins(margins)

        # --- remaining placement optimization: data-path fixing ------- #
        with obs.span("flow.datapath") as sp_datapath:
            datapath_result = optimize_datapath(analyzer, clock, config.datapath_effort)

        # --- final skew cleanup (CCD interleaving continues in tail) -- #
        with obs.span("flow.final_skew") as sp_final_skew:
            optimize_useful_skew(analyzer, clock, margins)

        with obs.span("flow.final_sta") as sp_final:
            final_report = analyzer.analyze(clock)
            _check_finite_slack(netlist, final_report, "final")
            final_summary = summarize(final_report)
    runtime = watch.elapsed

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
                "sta": _sta_flow_stats(counters_before, analyzer),
            },
        )

    return FlowResult(
        begin=begin_summary,
        final=final_summary,
        clock=clock,
        report=final_report,
        prioritized=prioritized,
        skew_result=skew_result,
        datapath_result=datapath_result,
        runtime_seconds=runtime,
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

    Built from the ``repr`` of every field, so two configs digest equal
    iff they run the same optimization.
    """
    payload = repr(
        (
            config.clock_period,
            config.datapath_effort,
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
    restore, so it is only honoured when verify mode is enabled.  Like a
    restore, it records that the netlist sits at the new snapshot, so the
    first flow from it keeps the begin bundle (module docstring).
    """
    verify_summary = None
    if verify_clock_period is not None and obs.verify_enabled():
        verify_summary = _fresh_summary(netlist, verify_clock_period)
    else:
        verify_clock_period = None
    state = NetlistState(
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
    # The netlist sits at its snapshot, as after a restore: the first flow
    # from it keeps the begin bundle.
    _restored[netlist] = (state, netlist.mutation_version)
    return state


def restore_netlist_state(netlist: Netlist, state: NetlistState) -> None:
    """Undo flow mutations: drop inserted buffers, restore sizes and wiring.

    The restore bumps ``mutation_version``, so any ``TimingAnalyzer`` that
    lived through the episode recompiles.  It also records ``state`` and
    the version it left, so the next :func:`run_flow` can start from the
    snapshot's begin bundle (module docstring) while nothing has mutated
    the netlist since.
    """
    # Remove cells/nets appended after the snapshot (buffer insertions only
    # ever append, never reorder); the name index needs a scan only then.
    if len(netlist.cells) > state.num_cells:
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
    _restored[netlist] = (state, netlist.mutation_version)

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
