"""Budgeted data-path optimization (delay fixing).

Models the logic-optimization half of commercial CCD: greedy, effort-bounded
moves on the most critical paths —

* **gate sizing** — upsize the path cell with the largest estimated delay
  gain (drive-resistance drop × load, discounted by the input-cap increase
  reflected onto the upstream net);
* **fanout buffering** — when no path cell is worth upsizing, split a
  high-fanout net on the critical path, moving the farthest sinks behind a
  fresh buffer.

The engine's *effort budget* is the crucial realism: commercial optimizers
spend bounded effort ordered by (margin-aware) endpoint criticality, so
effort wasted on endpoints that useful skew could have fixed is effort other
endpoints never receive.  That coupling is what makes endpoint
prioritization globally consequential — the paper's core observation.

Every move is a real netlist mutation re-verified by STA; moves that fail
to improve TNS are rolled back and charged a small probe cost, mimicking
the trial-based inner loops of production optimizers.  Margins are removed
before this stage (Algorithm 1 l.16), so it sees true slack only.  A sizing
move is a *probe* of the analyzer: its analysis re-times only the forward
cone (a probe reads no required time), and a rejected one, once resized
back in the netlist, is restored from the probe's journal — compiled
coefficients and loads, then timing — with no second patch and no
re-timing.  The gain scan reads the compiled view and its size tables,
not per-cell objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.netlist.core import Netlist
from repro.timing.clock import ClockModel
from repro.timing.metrics import tns
from repro.timing.paths import trace_critical_path
from repro.timing.sta import CompiledTiming, TimingAnalyzer
from repro.utils.validation import check_positive


# Effort model: ``effort_per_violation`` × (initial violating endpoints)
# bounds the total number of moves, clamped to [MIN_MOVES, MAX_MOVES];
# endpoints are served worst-apparent-slack first, ENDPOINTS_PER_ROUND per
# STA round.
MIN_MOVES = 16
MAX_MOVES = 600
ENDPOINTS_PER_ROUND = 8
MAX_ROUNDS = 60
BUFFER_FANOUT_THRESHOLD = 6
#: Probe cost charged for rolled-back moves.
FAILED_MOVE_COST = 0.25


@dataclass
class DatapathResult:
    """Move accounting for one optimization run."""

    sizing_moves: int = 0
    buffer_moves: int = 0
    rolled_back: int = 0
    rounds: int = 0
    budget_spent: float = 0.0

    @property
    def total_moves(self) -> int:
        return self.sizing_moves + self.buffer_moves


def optimize_datapath(
    analyzer: TimingAnalyzer,
    clock: ClockModel,
    effort_per_violation: float = 2.0,
) -> DatapathResult:
    """Run budgeted greedy delay fixing; mutates the netlist in place."""
    check_positive("effort_per_violation", effort_per_violation)
    with obs.span("ccd.datapath"):
        result = _optimize_datapath(analyzer, clock, effort_per_violation)
    obs.incr("datapath.sizing_moves", result.sizing_moves)
    obs.incr("datapath.buffer_moves", result.buffer_moves)
    obs.incr("datapath.rolled_back", result.rolled_back)
    return result


def _optimize_datapath(
    analyzer: TimingAnalyzer,
    clock: ClockModel,
    effort_per_violation: float,
) -> DatapathResult:
    result = DatapathResult()

    report = analyzer.analyze(clock)
    report_tns = tns(report.slack)
    initial_violations = int((report.slack < 0).sum())
    if initial_violations == 0:
        return result
    budget = float(np.clip(effort_per_violation * initial_violations, MIN_MOVES, MAX_MOVES))

    # (cell, target size) moves rejected since the timing state last
    # changed; _fix_endpoint keeps it (see its docstring).
    rejected: Set[Tuple[int, int]] = set()
    for _round in range(MAX_ROUNDS):
        if budget <= 0:
            break
        slack = report.slack
        violating = report.endpoints[slack < 0]
        if violating.size == 0:
            break
        order = np.argsort(slack[slack < 0])
        targets = violating[order][:ENDPOINTS_PER_ROUND]
        result.rounds += 1
        any_move = False
        for endpoint in targets:
            if budget <= 0:
                break
            # Within a round, criticality is served from the round-start
            # report — the batched behaviour of commercial optimizers — but
            # each move is verified against the freshest timing state.
            moved, cost, report, report_tns = _fix_endpoint(
                analyzer, clock, int(endpoint), report, report_tns, result, rejected
            )
            budget -= cost
            result.budget_spent += cost
            any_move = any_move or moved
        if not any_move:
            break
    return result


def _fix_endpoint(
    analyzer: TimingAnalyzer,
    clock: ClockModel,
    endpoint: int,
    report,
    report_tns: float,
    result: DatapathResult,
    rejected: Set[Tuple[int, int]],
):
    """Try the best single move for one endpoint.

    ``report_tns`` is ``tns(report.slack)``.  Returns ``(moved, cost,
    freshest_report, its_tns)`` so the caller never pays for a redundant
    STA run or TNS sum.  The report may be a probe's
    :class:`~repro.timing.sta.ProbeReport`: this loop reads only endpoint
    slack and cell arrivals.

    ``rejected`` holds the ``(cell, target size)`` sizing moves rejected
    since the timing state last changed.  A journaled rollback leaves the
    state byte for byte as it was, so such a move would be rejected again:
    a hit is charged and counted as that rejection was (``FAILED_MOVE_COST``,
    one more ``rolled_back``) and returns the same report and TNS, with
    no probe.  A commit or a buffer insertion clears the set, and so does
    a rollback that was not exact.
    """
    netlist = analyzer.netlist
    cells = netlist.cells
    compiled = analyzer.compiled
    path = trace_critical_path(compiled, report, endpoint)

    # Candidate 1: sizing — pick the path cell with the best estimated gain
    # (the first on a tie).
    best_cell = None
    best_gain = 0.0
    for cell_index, gain in _upsize_gains(compiled, path.cells):
        if gain > best_gain:
            best_gain = gain
            best_cell = cell_index

    # A sizing move is a probe (docs/timing.md, "Probes"): its analysis
    # re-times only the forward cones of the re-coefficiented cells, and a
    # rejected move, once resized back, is restored from the probe's journal
    # — compiled coefficients and timing alike — with no second patch and no
    # re-propagation.
    if best_cell is not None:
        move = (best_cell, cells[best_cell].size_index + 1)
        if move in rejected:
            result.rolled_back += 1
            return (False, FAILED_MOVE_COST, report, report_tns)
        analyzer.open_probe()
        previous = netlist.resize_cell(*move)
        analyzer.notify_resize(best_cell)
        fresh = analyzer.analyze(clock)
        fresh_tns = tns(fresh.slack)
        if fresh_tns < report_tns - 1e-12:
            netlist.resize_cell(best_cell, previous)
            if analyzer.rollback_probe():
                rejected.add(move)
            else:
                rejected.clear()
            result.rolled_back += 1
            # After the rollback the pre-move report is valid again.
            return (False, FAILED_MOVE_COST, report, report_tns)
        analyzer.commit_probe()
        rejected.clear()
        result.sizing_moves += 1
        return (True, 1.0, fresh, fresh_tns)

    # Candidate 2, read only when no cell is worth upsizing: buffering.  A
    # structural split invalidate()s for a full recompute (fallback rules in
    # docs/timing.md).
    best_net = _buffer_net(compiled, path.cells, BUFFER_FANOUT_THRESHOLD)
    if best_net is not None:
        _split_net(netlist, best_net, keep_on_path=set(path.cells))
        rejected.clear()
        analyzer.invalidate()
        fresh = analyzer.analyze(clock)
        fresh_tns = tns(fresh.slack)
        if fresh_tns < report_tns - 1e-12:
            # Buffer insertion is not rolled back (removal is not a move real
            # tools make cheaply either); charge it as a failed probe.
            result.rolled_back += 1
            result.buffer_moves += 1
            return (True, 1.0 + FAILED_MOVE_COST, fresh, fresh_tns)
        result.buffer_moves += 1
        return (True, 1.0, fresh, fresh_tns)

    return (False, FAILED_MOVE_COST, report, report_tns)


def _upsize_gains(
    compiled: CompiledTiming, cell_indices: Iterable[int]
) -> Iterator[Tuple[int, float]]:
    """``(cell, estimated delay gain)`` of one upsize step, in order, for
    each of ``cell_indices`` with a larger size left (ports have none).

    Gain = drive-resistance reduction × driven load, minus the penalty of
    presenting a larger input capacitance to the upstream drivers.  The
    load and the drivers' coefficients are read from ``compiled`` (current
    for the netlist: :meth:`TimingAnalyzer.notify_resize` keeps them so),
    the two sizes from its ``size_*`` tables, at the cell's current size
    row and the next.
    """
    cells = compiled.netlist.cells
    buffers = compiled.buffers
    size_base = buffers["size_base"]
    size_last = buffers["size_last"]
    size_drive_res = buffers["size_drive_res"]
    size_intrinsic = buffers["size_intrinsic"]
    size_input_cap = buffers["size_input_cap"]
    size_slew_sens = buffers["size_slew_sens"]
    load_cap = buffers["load_cap"]
    drive_res = buffers["drive_res"]
    slew_load = buffers["slew_load"]
    fanin = compiled.topology.fanin
    for cell_index in cell_indices:
        current = size_base[cell_index] + cells[cell_index].size_index
        if current >= size_last[current]:
            continue
        upsized = current + 1
        gain = (size_drive_res[current] - size_drive_res[upsized]) * load_cap[cell_index]
        gain += size_intrinsic[current] - size_intrinsic[upsized]
        # Larger input pins slow every upstream driver (drive delay) and
        # degrade the driver's output slew, which feeds back into this
        # cell's own delay and its siblings' — count both first-order
        # terms.  Drivers in pin order.
        cap_increase = size_input_cap[upsized] - size_input_cap[current]
        slew_sensitivity = size_slew_sens[current]
        for driver, _pin in fanin[cell_index]:
            gain -= drive_res[driver] * cap_increase
            gain -= slew_load[driver] * cap_increase * slew_sensitivity
        yield cell_index, gain


def _buffer_net(
    compiled: CompiledTiming, path_cells: List[int], threshold: int
) -> Optional[int]:
    """The fan-out net of the path cell with the most sinks, if more than
    ``threshold`` (the first such cell on a tie), else ``None``.

    A cell's sink count is its CSR fanout row length: one edge per sink pin
    of the net it drives.
    """
    cells = compiled.netlist.cells
    indptr = compiled.buffers["fanout_indptr"]
    best_net = None
    best_fanout = threshold
    for cell_index in path_cells:
        net_index = cells[cell_index].fanout_net
        if net_index is None:
            continue
        fanout = indptr[cell_index + 1] - indptr[cell_index]
        if fanout > best_fanout:
            best_fanout = fanout
            best_net = net_index
    return best_net


def _split_net(netlist: Netlist, net_index: int, keep_on_path: set) -> None:
    """Buffer the off-path, farthest-from-driver half of a net's sinks."""
    net = netlist.nets[net_index]
    driver = netlist.cells[net.driver]
    off_path = [
        (cell, pin)
        for cell, pin in net.sinks
        if cell not in keep_on_path
    ]
    if len(off_path) < 2:
        # Nothing sensible to split off; buffer the farthest half of all
        # sinks except one (a net must keep at least one direct sink).
        candidates = sorted(
            net.sinks,
            key=lambda s: abs(netlist.cells[s[0]].x - driver.x)
            + abs(netlist.cells[s[0]].y - driver.y),
        )
        off_path = candidates[len(candidates) // 2 :]
        if len(off_path) >= len(net.sinks):
            off_path = off_path[1:]
    if not off_path:
        return
    netlist.insert_buffer(net_index, off_path, size_index=2)
