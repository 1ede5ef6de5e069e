"""The probe path: one shared topology for the scalar walks, and a memo of
rejected moves in the data-path optimizer.

Every scalar timing walk (the forward sweep, the endpoint-arrival update,
the backward sweep and ``trace_critical_path``, and the sizing gain) reads
a compile's :class:`~repro.timing.sta.Topology`: tuples of real fan-in
pins and sinks instead of padded ``fanin_idx`` rows.  The data-path
optimizer skips a sizing move it already rejected on the same timing
state.  This module keeps the padded-row walks they replaced as oracles
and pins:

* ``run_flow`` is byte-equal to a run with every oracle patched in, on a
  320-cell, a 2K-cell and an all-max-size 1000-cell design (the last one
  buffers, so it recompiles mid-flow), and does the same work: the same
  frontier cells, level dispatches, analyses, moves and rollbacks (the
  oracle forward loop recomputes every frontier cell's slew, the engine
  only the notified cells');
* the memo is exact: the same flow results with it patched out, the same
  ``rolled_back``, fewer probes; a forced repeat makes no probe;
* the topology equals the padded rows, is built lazily, is shared by
  ``copy()`` (which still reads its own wire delays) and is fresh after a
  structural edit; an endpoint with two pins is recomputed after the
  sweep, not written inline;
* a probe report's arrival and slew views go stale after a later
  analysis and are readable again after a rollback;
* under ``REPRO_STA_CHECK`` a topology that disagrees with the buffers is
  caught, naming the cell.

Run under ``REPRO_STA_CHECK=1`` (the ``sta-differential`` CI job does),
every analysis here is also shadow-checked, the topology included.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import obs
from repro.ccd import datapath_opt
from repro.ccd.datapath_opt import DatapathResult, _fix_endpoint, _split_net
from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.netlist.core import Netlist
from repro.netlist.generator import GeneratorConfig, generate_design
from repro.netlist.library import get_library
from repro.placement import PlacementConfig, place_design
from repro.timing import incremental as inc
from repro.timing import sta
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period, tns
from repro.timing.paths import TimingPath, trace_critical_path
from repro.timing.sta import _NO_DRIVER, ProbeReport, TimingAnalyzer, TimingReport

REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(TimingReport))


# ---------------------------------------------------------------------- #
# Oracles: the padded-row walks the topology replaced
# ---------------------------------------------------------------------- #
def oracle_topology(compiled):
    """``(fanin, fanout, ep_sinks)`` read off the padded rows and the CSR."""
    cb = compiled.buffers
    fanin = cb["fanin_idx"]
    max_pins = compiled.fanin_idx.shape[1]
    indptr = cb["fanout_indptr"]
    sinks = cb["fanout_indices"]
    is_flop = cb["is_flop"]
    is_ep = cb["is_ep"]
    ep_pos = cb["ep_pos"]
    level_of = cb["level_of"]
    n = compiled.fanin_idx.shape[0]
    pins, out, eps = [], [], []
    for c in range(n):
        row = c * max_pins
        pins.append(
            tuple((fanin[p], p) for p in range(row, row + max_pins) if fanin[p] != _NO_DRIVER)
        )
    for c in range(n):
        edges = sinks[indptr[c] : indptr[c + 1]]
        out.append(tuple((s, level_of[s]) for s in edges if not is_flop[s]))
        # An endpoint sink's own pins driven by c, in pin order: the CSR
        # lists a driver's edges into one sink in pin order too.
        driven = {s: [p for u, p in pins[s] if u == c] for s in edges if is_ep[s]}
        eps.append(
            tuple(
                (ep_pos[s], driven[s].pop(0) if len(pins[s]) == 1 else -1)
                for s in edges
                if is_ep[s]
            )
        )
    return pins, out, eps


def _count_dispatch(counters, size):
    """Tally a slot as the engine does: by the density threshold."""
    if size >= inc.vector_threshold():
        counters.vectorized += 1
    else:
        counters.scalar += 1


def oracle_forward_sweep(state, fr, counters, dirty, ep_arr_dirty):
    """The padded-row scalar forward loop, run on every slot; it recomputes
    every frontier cell's slew beside its arrival (``dirty`` unread) and
    returns the cells whose slew moved."""
    compiled = state.compiled
    cb = compiled.buffers
    sb = state.buffers
    arrival = sb["arrival"]
    slew = sb["slew"]
    ca = sb["clock_arrival"]
    fanin = cb["fanin_idx"]
    fanin_wire = cb["fanin_wire_delay"]
    max_pins = compiled.fanin_idx.shape[1]
    indptr = cb["fanout_indptr"]
    sinks = cb["fanout_indices"]
    journal = state.journal
    src_slot = state.num_levels
    slew_cells = []
    for k in (src_slot, *range(src_slot)):
        cells = fr.buckets[k]
        level_chunks = fr.chunks[k]
        if not cells and not level_chunks:
            continue
        fr.buckets[k] = []
        fr.chunks[k] = []
        for chunk in level_chunks:
            cells.extend(chunk.tolist())
        counters.frontier += len(cells)
        _count_dispatch(counters, len(cells))
        for c in cells:
            if k == src_slot:
                self_delay = cb["drive_res"][c] * cb["load_cap"][c]
                if cb["is_flop"][c]:
                    new_arr = ca[c] + cb["clk_to_q"][c] + self_delay
                else:
                    new_arr = self_delay
            else:
                best = -math.inf
                row = c * max_pins
                if cb["is_outport"][c]:
                    for p in range(row, row + max_pins):
                        u = fanin[p]
                        if u < 0:
                            continue
                        v = arrival[u] + fanin_wire[p]
                        if v > best:
                            best = v
                    new_arr = best + 0.0
                else:
                    ic = cb["intrinsic"][c]
                    ss = cb["slew_sens"][c]
                    for p in range(row, row + max_pins):
                        u = fanin[p]
                        if u < 0:
                            continue
                        v = (arrival[u] + fanin_wire[p]) + (ic + ss * slew[u])
                        if v > best:
                            best = v
                    new_arr = best + cb["drive_res"][c] * cb["load_cap"][c]
            new_slew = cb["slew_intr"][c] + cb["slew_load"][c] * cb["load_cap"][c]
            da = new_arr - arrival[c]
            ds = new_slew - slew[c]
            slew_moved = ds > inc.PRUNE_TOL or ds < -inc.PRUNE_TOL
            if not (slew_moved or da > inc.PRUNE_TOL or da < -inc.PRUNE_TOL):
                continue
            if journal is not None:
                journal.arrivals.append((c, arrival[c]))
                journal.slews.append((c, slew[c]))
            arrival[c] = new_arr
            slew[c] = new_slew
            if slew_moved:
                slew_cells.append(c)
            for s in sinks[indptr[c] : indptr[c + 1]]:
                if cb["is_ep"][s]:
                    ep_arr_dirty.add(cb["ep_pos"][s])
                if not cb["is_flop"][s] and fr.seen_buf[s] != fr.stamp:
                    fr.seen_buf[s] = fr.stamp
                    fr.buckets[cb["level_of"][s]].append(s)
    return slew_cells


def oracle_recompute_ep_arrival(state, positions):
    """The padded-row scalar endpoint-arrival loop, for every position."""
    compiled = state.compiled
    cb = compiled.buffers
    fanin = cb["fanin_idx"]
    fanin_wire = cb["fanin_wire_delay"]
    arrival = state.buffers["arrival"]
    ep_arrival = state.buffers["ep_arrival"]
    max_pins = compiled.fanin_idx.shape[1]
    for pos in positions:
        row = cb["endpoint_cells"][pos] * max_pins
        best = -math.inf
        hit = False
        for p in range(row, row + max_pins):
            u = fanin[p]
            if u < 0:
                continue
            hit = True
            v = arrival[u] + fanin_wire[p]
            if v > best:
                best = v
        ep_arrival[pos] = best if hit else 0.0


def oracle_backward_incremental(state, fr, counters, name, ep_seed, seed_cells, ep_dirty_pos):
    """The padded-row scalar backward loop, run on every slot."""
    compiled = state.compiled
    cb = compiled.buffers
    required = state.buffers[name]
    ep_seed_buf = ep_seed[0]
    slew = state.buffers["slew"]
    fanin = cb["fanin_idx"]
    max_pins = compiled.fanin_idx.shape[1]
    indptr = cb["fanout_indptr"]
    sinks = cb["fanout_indices"]
    fanout_wire = cb["fanout_wire_delay"]
    src_slot = state.num_levels
    stamp = fr.reset()

    def push(v):
        if fr.seen_buf[v] != stamp:
            fr.seen_buf[v] = stamp
            fr.buckets[src_slot if cb["is_src"][v] else cb["level_of"][v]].append(v)

    for u in seed_cells:
        push(u)
    for pos in ep_dirty_pos:
        row = cb["endpoint_cells"][pos] * max_pins
        for v in fanin[row : row + max_pins]:
            if v >= 0:
                push(v)

    for k in (*range(src_slot - 1, -1, -1), src_slot):
        cells = fr.buckets[k]
        level_chunks = fr.chunks[k]
        if not cells and not level_chunks:
            continue
        fr.buckets[k] = []
        fr.chunks[k] = []
        for chunk in level_chunks:
            cells.extend(chunk.tolist())
        counters.frontier += len(cells)
        _count_dispatch(counters, len(cells))
        for u in cells:
            best = math.inf
            su = slew[u]
            for j in range(indptr[u], indptr[u + 1]):
                s = sinks[j]
                if cb["is_ep"][s]:
                    contrib = ep_seed_buf[cb["ep_pos"][s]] - fanout_wire[j]
                else:
                    contrib = (
                        required[s]
                        - (
                            cb["intrinsic"][s]
                            + cb["slew_sens"][s] * su
                            + cb["drive_res"][s] * cb["load_cap"][s]
                        )
                        - fanout_wire[j]
                    )
                if contrib < best:
                    best = contrib
            if k == src_slot:
                required[u] = best
                continue
            old = required[u]
            if best == old:
                continue
            d = best - old
            if -inc.PRUNE_TOL <= d <= inc.PRUNE_TOL:
                continue
            required[u] = best
            if cb["is_comb"][u]:
                row = u * max_pins
                for v in fanin[row : row + max_pins]:
                    if v >= 0:
                        push(v)


def oracle_trace_critical_path(compiled, report, endpoint_cell):
    """The padded-row critical-path walk."""
    cb = compiled.buffers
    ep_pos = cb["ep_pos"]
    k = ep_pos[endpoint_cell] if 0 <= endpoint_cell < len(ep_pos) else -1
    if k < 0:
        raise KeyError(f"cell {endpoint_cell} is not an endpoint")
    fanin = cb["fanin_idx"]
    wire = cb["fanin_wire_delay"]
    max_pins = compiled.fanin_idx.shape[1]
    arrival = report.cell_arrival
    chain = [endpoint_cell]
    current = endpoint_cell
    for _ in range(len(ep_pos) + 1):
        row = current * max_pins
        best_driver = _NO_DRIVER
        best_time = -math.inf
        for p in range(row, row + max_pins):
            driver = fanin[p]
            if driver == _NO_DRIVER:
                continue
            t = arrival[driver] + wire[p]
            if t > best_time:
                best_time = t
                best_driver = driver
        if best_driver == _NO_DRIVER:
            break
        chain.append(best_driver)
        if cb["is_src"][best_driver]:
            break
        current = best_driver
    chain.reverse()
    return TimingPath(
        endpoint=endpoint_cell,
        cells=chain,
        arrival=float(report.arrival[k]),
        slack=float(report.slack[k]),
    )


def oracle_sizing_gain(compiled, cell_index):
    """The padded-row sizing gain: drivers from the cell's pin slots, both
    sizes from its cell type's size ladder."""
    buffers = compiled.buffers
    cell = compiled.netlist.cells[cell_index]
    current = cell.cell_type.sizes[cell.size_index]
    upsized = cell.cell_type.sizes[cell.size_index + 1]
    gain = (current.drive_resistance - upsized.drive_resistance) * buffers["load_cap"][
        cell_index
    ]
    gain += current.intrinsic_delay - upsized.intrinsic_delay
    cap_increase = upsized.input_cap - current.input_cap
    fanin = buffers["fanin_idx"]
    row = cell_index * compiled.fanin_idx.shape[1]
    for pin in range(row, row + cell.cell_type.num_inputs):
        driver = fanin[pin]
        if driver == _NO_DRIVER:
            continue
        gain -= buffers["drive_res"][driver] * cap_increase
        gain -= buffers["slew_load"][driver] * cap_increase * current.slew_sensitivity
    return gain


def oracle_upsize_gains(compiled, cell_indices):
    """The scan's candidates and gains from the cells' types and sizes."""
    for cell_index in cell_indices:
        cell = compiled.netlist.cells[cell_index]
        if cell.cell_type.is_port or cell.size_index >= cell.cell_type.max_size_index:
            continue
        yield cell_index, oracle_sizing_gain(compiled, cell_index)


def patch_oracles(patch):
    """Patch every padded-row oracle in for the topology walk it became."""
    patch.setattr(inc, "_forward_sweep", oracle_forward_sweep)
    patch.setattr(inc, "_recompute_ep_arrival", oracle_recompute_ep_arrival)
    patch.setattr(inc, "_backward_incremental", oracle_backward_incremental)
    patch.setattr(datapath_opt, "trace_critical_path", oracle_trace_critical_path)
    patch.setattr(datapath_opt, "_upsize_gains", oracle_upsize_gains)


def patch_memo_out(patch):
    """Give every ``_fix_endpoint`` call an empty rejected-move set."""
    fix = datapath_opt._fix_endpoint
    patch.setattr(datapath_opt, "_fix_endpoint", lambda *args: fix(*args[:-1], set()))


def count_probes(patch):
    """Count ``open_probe`` calls into the returned one-item list."""
    counts = [0]
    open_probe = TimingAnalyzer.open_probe

    def counted(self):
        counts[0] += 1
        open_probe(self)

    patch.setattr(TimingAnalyzer, "open_probe", counted)
    return counts


# ---------------------------------------------------------------------- #
# Designs
# ---------------------------------------------------------------------- #
def _design(cells: int, seed: int, saturate: bool = False):
    """A placed design; ``saturate`` upsizes every gate to its largest size,
    so the optimizer turns to buffering."""
    netlist = generate_design(
        GeneratorConfig(
            name=f"probepath{cells}",
            library="tech7",
            n_cells=cells,
            n_inputs=max(8, cells // 40),
            n_outputs=max(6, cells // 60),
            seed=seed,
        )
    )
    place_design(netlist, PlacementConfig(seed=seed))
    if saturate:
        for cell in netlist.cells:
            if not cell.cell_type.is_port:
                netlist.resize_cell(cell.index, cell.cell_type.max_size_index)
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    return netlist, choose_clock_period(report, nominal, 0.4)


def _sizable(netlist):
    return [
        c.index
        for c in netlist.cells
        if not c.cell_type.is_port and not c.is_sequential and c.sizing_headroom > 0
    ]


def _run_all(netlist, period, selections):
    config = FlowConfig(clock_period=period)
    # A fresh snapshot per sweep: no begin bundle is shared between them.
    snapshot = snapshot_netlist_state(netlist)
    results = []
    for selection in selections:
        restore_netlist_state(netlist, snapshot)
        results.append(run_flow(netlist, config, prioritized_endpoints=selection))
    restore_netlist_state(netlist, snapshot)
    return results


def _selections(netlist, count, seed):
    endpoints = netlist.endpoints()
    rng = np.random.default_rng(seed)
    return [[]] + [
        [int(e) for e in rng.choice(endpoints, size=k, replace=False)]
        for k in (2, 5, 9)[:count]
    ]


#: The recorder counters an oracle-patched run must match exactly.
WORK_COUNTERS = (
    "sta.frontier_cells",
    "sta.scalar_levels",
    "sta.vectorized_levels",
    "sta.incremental_analyze",
    "datapath.sizing_moves",
    "datapath.rolled_back",
)


def _counted(run):
    """``run()`` with a clean, enabled recorder; returns its result and
    the :data:`WORK_COUNTERS`."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        result = run()
        counters = obs.get_recorder().counters
        return result, {name: counters.get(name, 0.0) for name in WORK_COUNTERS}
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


def _assert_flows_equal(ours_all, theirs_all):
    assert len(ours_all) == len(theirs_all)
    for ours, theirs in zip(ours_all, theirs_all):
        for name in REPORT_FIELDS:
            ours_bytes = getattr(ours.report, name).tobytes()
            assert ours_bytes == getattr(theirs.report, name).tobytes(), name
        assert ours.clock.arrivals == theirs.clock.arrivals
        assert ours.skew_result == theirs.skew_result
        assert ours.datapath_result == theirs.datapath_result
        assert ours.begin == theirs.begin
        assert ours.final == theirs.final


# ---------------------------------------------------------------------- #
# (a) run_flow is byte-equal to a run on the padded-row oracles
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "cells,saturate,count",
    [(320, False, 3), (2000, False, 2), (1000, True, 2)],
    ids=["320", "2000", "1000-saturated"],
)
def test_flow_byte_equal_to_padded_row_walks(cells, saturate, count, monkeypatch):
    netlist, period = _design(cells, seed=3, saturate=saturate)
    selections = _selections(netlist, count, seed=cells)

    ours_all, ours_work = _counted(lambda: _run_all(netlist, period, selections))
    with monkeypatch.context() as patch:
        patch_oracles(patch)
        oracle_all, oracle_work = _counted(lambda: _run_all(netlist, period, selections))

    assert ours_work == oracle_work
    assert ours_work["sta.frontier_cells"] > 0 and ours_work["sta.scalar_levels"] > 0
    if saturate:
        assert sum(r.datapath_result.buffer_moves for r in ours_all) > 0
    else:
        assert sum(r.datapath_result.sizing_moves for r in ours_all) > 0
    assert sum(r.datapath_result.rolled_back for r in ours_all) > 0
    _assert_flows_equal(ours_all, oracle_all)


def test_topology_equals_padded_rows_through_edits():
    netlist, period = _design(1000, seed=5)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    rng = np.random.default_rng(13)
    for step in range(12):
        if step % 4 == 3:
            nets = [n.index for n in netlist.nets if n.fanout >= 3]
            _split_net(netlist, int(rng.choice(nets)), keep_on_path=set())
            analyzer.invalidate()
        else:
            cell = int(rng.choice(_sizable(netlist)))
            netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
            analyzer.notify_resize(cell)
        analyzer.analyze(clock)
        topology = analyzer.compiled.topology
        assert (topology.fanin, topology.fanout, topology.ep_sinks) == oracle_topology(
            analyzer.compiled
        )


# ---------------------------------------------------------------------- #
# (b) the rejected-move memo is exact
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("cells,seed", [(320, 5), (1000, 3)], ids=["320", "1000"])
def test_memo_changes_nothing_but_the_probe_count(cells, seed, monkeypatch):
    netlist, period = _design(cells, seed=seed)
    selections = _selections(netlist, 3, seed=cells)

    with monkeypatch.context() as patch:
        probes = count_probes(patch)
        ours_all = _run_all(netlist, period, selections)
    with monkeypatch.context() as patch:
        patch_memo_out(patch)
        probes_without = count_probes(patch)
        without_all = _run_all(netlist, period, selections)

    _assert_flows_equal(ours_all, without_all)
    rolled_back = [r.datapath_result.rolled_back for r in ours_all]
    assert rolled_back == [r.datapath_result.rolled_back for r in without_all]
    assert 0 < probes[0] < probes_without[0]


def _rejecting_endpoint(analyzer, clock, result, rejected):
    """Serve violating endpoints until one's best sizing move is rejected;
    returns that endpoint with the report and TNS it was served on."""
    report = analyzer.analyze(clock)
    report_tns = tns(report.slack)
    for endpoint in report.endpoints[np.argsort(report.slack)].tolist():
        served = (report, report_tns)
        _moved, _cost, report, report_tns = _fix_endpoint(
            analyzer, clock, endpoint, report, report_tns, result, rejected
        )
        if rejected:
            return endpoint, served
    raise AssertionError("no sizing move was rejected")


def test_forced_repeat_of_a_rejected_move_makes_no_probe(monkeypatch):
    netlist, period = _design(320, seed=3)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    result = DatapathResult()
    rejected = set()
    endpoint, (report, report_tns) = _rejecting_endpoint(analyzer, clock, result, rejected)
    (move,) = rejected
    rolled_back = result.rolled_back
    version = netlist.mutation_version

    with monkeypatch.context() as patch:
        probes = count_probes(patch)
        repeat = _fix_endpoint(
            analyzer, clock, endpoint, report, report_tns, result, rejected
        )
    assert probes[0] == 0
    assert netlist.mutation_version == version  # no resize either
    assert repeat[0] is False and repeat[1] == datapath_opt.FAILED_MOVE_COST
    assert repeat[2] is report and repeat[3] == report_tns
    assert result.rolled_back == rolled_back + 1
    assert rejected == {move}

    # Without the memo the same move is probed, and rejected again.
    with monkeypatch.context() as patch:
        probes = count_probes(patch)
        probed = _fix_endpoint(
            analyzer, clock, endpoint, report, report_tns, result, set()
        )
    assert probes[0] == 1
    assert probed == repeat


@pytest.mark.parametrize("saturate", (False, True), ids=("commit", "buffer"))
def test_memo_is_cleared_when_the_timing_changes(saturate, monkeypatch):
    netlist, period = _design(320, seed=3, saturate=saturate)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    report = analyzer.analyze(clock)
    # A fanout threshold of 1 makes every unsizable path bufferable.
    monkeypatch.setattr(datapath_opt, "BUFFER_FANOUT_THRESHOLD", 1)
    result = DatapathResult()
    rejected = {(-1, 1)}  # stands for a move rejected on the old timing
    report_tns = tns(report.slack)
    for endpoint in report.endpoints[np.argsort(report.slack)].tolist():
        moved, _cost, report, report_tns = _fix_endpoint(
            analyzer, clock, endpoint, report, report_tns, result, rejected
        )
        if moved:
            break
    assert (result.buffer_moves, result.sizing_moves) == ((1, 0) if saturate else (0, 1))
    assert rejected == set()


def test_memo_is_cleared_when_the_rollback_is_not_exact(monkeypatch):
    netlist, period = _design(320, seed=3)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    rejected = set()
    endpoint, (report, report_tns) = _rejecting_endpoint(
        analyzer, clock, DatapathResult(), rejected
    )
    rejected.clear()
    rollback = TimingAnalyzer.rollback_probe
    monkeypatch.setattr(TimingAnalyzer, "rollback_probe", lambda self: rollback(self) and False)
    _fix_endpoint(
        analyzer, clock, endpoint, report, report_tns, DatapathResult(), rejected
    )
    assert rejected == set()


def test_rollback_probe_reports_whether_it_restored(fresh_design):
    netlist, period = fresh_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cell = _sizable(netlist)[0]
    flop = next(f for f, bound in clock.bounds.items() if bound > 1e-6)
    for clock_write in (False, True):
        analyzer.open_probe()
        previous = netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
        analyzer.notify_resize(cell)
        if clock_write:  # not journaled
            clock.set_arrival(flop, clock.bound(flop) / 2)
        analyzer.analyze(clock)
        netlist.resize_cell(cell, previous)
        analyzer.notify_resize(cell)
        assert analyzer.rollback_probe() is not clock_write


# ---------------------------------------------------------------------- #
# (c) one topology per compile: lazy, shared by copies, fresh after edits
# ---------------------------------------------------------------------- #
def test_topology_is_lazy_and_shared_by_copies(fresh_design):
    netlist, period = fresh_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)  # compile + full analysis: no topology yet
    compiled = analyzer.compiled
    assert compiled.shared_topology.fanin is None
    copy = compiled.copy()
    assert copy.shared_topology is compiled.shared_topology

    cell = _sizable(netlist)[0]
    netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
    analyzer.notify_resize(cell)
    analyzer.analyze(clock)  # the first incremental analysis builds it
    topology = compiled.shared_topology
    assert topology.fanin is not None
    assert copy.topology is topology
    assert compiled.copy().topology is topology


def test_copy_walks_its_own_wire_delays(fresh_design):
    netlist, period = fresh_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    compiled = analyzer.compiled
    state = analyzer.state
    original_wire = compiled.fanin_wire_delay.copy()

    # Stretch every wire into one cell of the copy (its fan-in rows and
    # the CSR edges into it alike), then re-time it there.
    copy = compiled.copy()
    resumed = TimingAnalyzer.resume(copy, state.copy(copy), netlist.mutation_version)
    cell = _sizable(netlist)[0]
    copy.fanin_wire_delay[cell] += 0.05
    copy.fanout_wire_delay[copy.fanout_indices == cell] += 0.05
    resumed.state.pending.add(cell)
    resumed.state.pending.update(netlist.fanin_cells(cell))
    report = resumed.analyze(clock)
    full = sta.analyze(copy, clock)
    for name in REPORT_FIELDS:
        assert np.allclose(getattr(report, name), getattr(full, name), rtol=0.0, atol=1e-9)
    assert report.cell_arrival[cell] > analyzer.analyze(clock).cell_arrival[cell]
    assert copy.topology is compiled.topology
    assert compiled.fanin_wire_delay.tobytes() == original_wire.tobytes()

    # trace_critical_path on the copy reads the copy's wires too.
    for endpoint in report.endpoints.tolist():
        assert trace_critical_path(copy, report, endpoint) == oracle_trace_critical_path(
            copy, report, endpoint
        )


def test_structural_edit_gets_a_fresh_topology(fresh_design):
    netlist, period = fresh_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cell = _sizable(netlist)[0]
    netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
    analyzer.notify_resize(cell)
    analyzer.analyze(clock)
    before = analyzer.compiled.topology

    net = max(netlist.nets, key=lambda n: n.fanout)
    _split_net(netlist, net.index, keep_on_path=set())
    analyzer.invalidate()
    analyzer.analyze(clock)
    compiled = analyzer.compiled
    assert compiled.shared_topology is not before
    assert compiled.shared_topology.fanin is None  # not built by the compile
    topology = compiled.topology
    assert len(topology.fanin) == netlist.num_cells > len(before.fanin)
    assert (topology.fanin, topology.fanout, topology.ep_sinks) == oracle_topology(compiled)


@pytest.mark.parametrize("threshold", (1 << 30, 0), ids=("scalar", "vector"))
def test_endpoint_with_two_pins_takes_the_max_after_the_sweep(threshold):
    """The bundled libraries' endpoints have one pin each, whose arrival the
    forward loop writes inline; a flop with two data pins is collected
    instead and recomputed as the max over its pins, on either kernel."""
    library = get_library("tech7")
    dff2 = dataclasses.replace(library.cell_type("DFF"), name="DFF2", num_inputs=2)
    library = dataclasses.replace(library, cell_types={**library.cell_types, "DFF2": dff2})
    netlist = Netlist("twopin", library)
    cells = {
        name: netlist.add_cell(name, library.cell_type(kind))
        for name, kind in (
            ("a", "INPORT"), ("b", "INPORT"), ("inv", "INV"), ("buf", "BUF"),
            ("ff", "DFF2"), ("out", "OUTPORT"),
        )
    }
    for i, cell in enumerate(cells.values()):
        cell.x, cell.y = 7.0 * i, 3.0 * (i % 2)
    netlist.add_net("na", cells["a"].index, [(cells["inv"].index, 0)])
    netlist.add_net("nb", cells["b"].index, [(cells["buf"].index, 0)])
    netlist.add_net("ni", cells["inv"].index, [(cells["ff"].index, 0)])
    netlist.add_net("nf", cells["buf"].index, [(cells["ff"].index, 1)])
    netlist.add_net("nq", cells["ff"].index, [(cells["out"].index, 0)])
    clock = ClockModel(period=1.0)
    previous = inc.set_vector_threshold(threshold)
    try:
        analyzer = TimingAnalyzer(netlist)
        analyzer.analyze(clock)
        compiled = analyzer.compiled
        ff_pos = int(compiled.ep_pos[cells["ff"].index])
        out = cells["out"].index
        topology = compiled.topology
        assert topology.ep_sinks[cells["inv"].index] == ((ff_pos, -1),)
        assert topology.ep_sinks[cells["ff"].index] == (
            (int(compiled.ep_pos[out]), out * compiled.fanin_idx.shape[1]),
        )
        for name in ("inv", "buf", "inv"):
            cell = cells[name]
            netlist.resize_cell(cell.index, cell.size_index + 1)
            analyzer.notify_resize(cell.index)
            report = analyzer.analyze(clock)
            full = sta.analyze(compiled, clock)
            for field in REPORT_FIELDS:
                assert getattr(report, field).tobytes() == getattr(full, field).tobytes(), field
    finally:
        inc.set_vector_threshold(previous)


# ---------------------------------------------------------------------- #
# (d) a probe report's views are guarded by the state's generation
# ---------------------------------------------------------------------- #
def _probe(netlist, analyzer, clock, cell):
    analyzer.open_probe()
    previous = netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
    analyzer.notify_resize(cell)
    report = analyzer.analyze(clock)
    assert isinstance(report, ProbeReport)
    return previous


def test_probe_views_go_stale_and_return_after_rollback(fresh_design):
    netlist, period = fresh_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    first_cell, second_cell = _sizable(netlist)[:2]

    _probe(netlist, analyzer, clock, first_cell)
    analyzer.commit_probe()
    analyzer.open_probe()
    first = analyzer.analyze(clock)  # nothing pending: the same timing, a new report
    analyzer.commit_probe()
    arrival = first.cell_arrival.copy()
    slew = first.cell_slew.copy()
    with pytest.raises(ValueError):
        first.cell_arrival[0] = 0.0  # read-only views
    with pytest.raises(ValueError):
        first.endpoints[0] = 0

    previous = _probe(netlist, analyzer, clock, second_cell)
    second = analyzer.analyze(clock)
    for name in ("cell_arrival", "cell_slew"):
        with pytest.raises(RuntimeError, match=f"{name} of this probe report is stale"):
            getattr(first, name)
    assert first.slack.size  # the per-endpoint vectors are copies, always readable
    assert not np.array_equal(second.cell_arrival, arrival)

    netlist.resize_cell(second_cell, previous)
    analyzer.notify_resize(second_cell)
    assert analyzer.rollback_probe()
    assert first.cell_arrival.tobytes() == arrival.tobytes()
    assert first.cell_slew.tobytes() == slew.tobytes()
    with pytest.raises(RuntimeError, match="stale"):
        second.cell_arrival  # noqa: B018 -- the read is the test

    # Later analyses never reuse the rolled-back probe's generations, even
    # when as many run as it ran.
    _probe(netlist, analyzer, clock, second_cell)
    analyzer.analyze(clock)
    with pytest.raises(RuntimeError, match="stale"):
        second.cell_arrival  # noqa: B018
    with pytest.raises(RuntimeError, match="stale"):
        first.cell_arrival  # noqa: B018
    analyzer.commit_probe()


# ---------------------------------------------------------------------- #
# (e) the shadow check holds the topology to the buffers
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("field", ("fanin", "fanout", "ep_sinks"))
def test_shadow_check_names_the_cell_of_a_corrupt_topology(fresh_design, field):
    netlist, period = fresh_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cells = _sizable(netlist)
    netlist.resize_cell(cells[0], netlist.cells[cells[0]].size_index + 1)
    analyzer.notify_resize(cells[0])
    analyzer.analyze(clock)
    topology = analyzer.compiled.topology
    rows = getattr(topology, field)
    victim = next(c for c in range(len(rows)) if rows[c])
    rows[victim] = rows[victim][1:]

    previous_check = inc.set_check(True)
    try:
        netlist.resize_cell(cells[1], netlist.cells[cells[1]].size_index + 1)
        analyzer.notify_resize(cells[1])
        name = netlist.cells[victim].name
        with pytest.raises(RuntimeError, match=rf"cell '{name}' \(index {victim}\): its {field}"):
            analyzer.analyze(clock)
    finally:
        inc.set_check(previous_check)


def test_shadow_check_catches_a_buffer_patched_under_the_topology(fresh_design):
    netlist, period = fresh_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cell = _sizable(netlist)[0]
    netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
    analyzer.notify_resize(cell)
    analyzer.analyze(clock)
    compiled = analyzer.compiled
    driver = int(compiled.fanin_idx[cell, 0])
    compiled.fanin_idx[cell, 0] = _NO_DRIVER  # the topology still has the pin

    previous_check = inc.set_check(True)
    try:
        analyzer.notify_resize(cell)
        with pytest.raises(RuntimeError, match=rf"index {cell}\): its fanin differs"):
            analyzer.analyze(clock)
    finally:
        inc.set_check(previous_check)
        compiled.fanin_idx[cell, 0] = driver
