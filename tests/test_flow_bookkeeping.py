"""The flow's per-move bookkeeping reads the compiled timing arrays.

The data-path optimizer's sizing gain and buffer candidate, the useful-skew
worklists and the resize load patch read the analyzer's compiled buffers
or the library size table instead of per-cell Python properties.  This
module keeps the property-chain implementations they replaced as oracles
and pins:

* ``run_flow`` is byte-equal to a run with every oracle patched in (every
  ``TimingReport`` array, the skew schedule, both stage results);
* the gain equals the oracle's bit for bit on every sizable cell after
  random resizes and splits, and a tie goes to the first path cell;
* the recovery worklist and the buffer candidate equal the oracles' when
  slacks or fanouts tie;
* under ``REPRO_STA_CHECK`` a wrong load patch is caught by name.

Run under ``REPRO_STA_CHECK=1`` (the ``sta-differential`` CI job does),
every analysis and every load patch here is also shadow-checked.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.ccd import datapath_opt, useful_skew
from repro.ccd.datapath_opt import (
    DatapathResult,
    _buffer_net,
    _fix_endpoint,
    _sizing_gain,
    _split_net,
)
from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.ccd.useful_skew import _apparent_slack, _recovery_worklist
from repro.netlist.generator import GeneratorConfig, generate_design
from repro.placement import PlacementConfig, place_design
from repro.timing import incremental as inc
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period, tns
from repro.timing.paths import trace_critical_path
from repro.timing.sta import TimingAnalyzer, TimingReport

REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(TimingReport))


# ---------------------------------------------------------------------- #
# Oracles: the property-chain implementations the compiled reads replaced
# ---------------------------------------------------------------------- #
def oracle_net_load_cap(netlist, net_index):
    net = netlist.nets[net_index]
    cap = 0.0
    for sink_cell, _pin in net.sinks:
        sink = netlist.cells[sink_cell]
        if sink.is_output_port:
            cap += netlist.library.default_port_cap
        else:
            cap += sink.size.input_cap
    cap += (
        netlist.parasitic_scale
        * netlist.library.wire_cap_per_um
        * netlist.net_hpwl(net_index)
    )
    return cap


def oracle_sizing_gain(netlist, cell_index):
    cell = netlist.cells[cell_index]
    current = cell.size
    upsized = cell.cell_type.size(cell.size_index + 1)
    load = 0.0
    if cell.fanout_net is not None:
        load = oracle_net_load_cap(netlist, cell.fanout_net)
    gain = (current.drive_resistance - upsized.drive_resistance) * load
    gain += current.intrinsic_delay - upsized.intrinsic_delay
    cap_increase = upsized.input_cap - current.input_cap
    for driver in netlist.fanin_cells(cell_index):
        driver_size = netlist.cells[driver].size
        gain -= driver_size.drive_resistance * cap_increase
        gain -= (
            driver_size.slew_load_factor * cap_increase * current.slew_sensitivity
        )
    return gain


def oracle_buffer_net(netlist, path_cells, threshold):
    best_net = None
    best_fanout = threshold
    for cell_index in path_cells:
        net_index = netlist.cells[cell_index].fanout_net
        if net_index is None:
            continue
        fanout = netlist.nets[net_index].fanout
        if fanout > best_fanout:
            best_fanout = fanout
            best_net = net_index
    return best_net


def oracle_apparent_slack(report):
    return {
        int(e): float(s) for e, s in zip(report.endpoints, report.slack_with_margins)
    }


def oracle_recovery_worklist(analyzer, report, committed, window):
    flop_launch = [
        (float(report.cell_worst_slack_margined[f]), f)
        for f in analyzer.netlist.sequential_cells()
        if f not in committed
    ]
    return sorted(flop_launch)[:window]


def oracle_notify_resize(self, cell_index):
    obs.incr("sta.incremental_update")
    netlist = self.netlist
    cell = netlist.cells[cell_index]
    size = cell.size
    dirty = {cell_index}
    for net_index in cell.fanin_nets:
        if net_index is not None:
            dirty.add(netlist.nets[net_index].driver)
    compiled = self._compiled
    if compiled is not None:
        compiled.intrinsic[cell_index] = size.intrinsic_delay
        compiled.drive_res[cell_index] = size.drive_resistance
        compiled.slew_sens[cell_index] = size.slew_sensitivity
        compiled.slew_intr[cell_index] = size.slew_intrinsic
        compiled.slew_load[cell_index] = size.slew_load_factor
        for net_index in cell.fanin_nets:
            if net_index is None:
                continue
            driver = netlist.nets[net_index].driver
            compiled.load_cap[driver] = oracle_net_load_cap(netlist, net_index)
    if self._state is not None:
        self._state.pending.update(dirty)
    self._expected_version = netlist.mutation_version


def patch_oracles(patch):
    """Patch every oracle in for the implementation it was replaced by."""
    patch.setattr(
        datapath_opt,
        "_sizing_gain",
        lambda compiled, cell: oracle_sizing_gain(compiled.netlist, cell.index),
    )
    patch.setattr(
        datapath_opt,
        "_buffer_net",
        lambda compiled, path_cells, threshold: oracle_buffer_net(
            compiled.netlist, path_cells, threshold
        ),
    )
    patch.setattr(useful_skew, "_apparent_slack", oracle_apparent_slack)
    patch.setattr(useful_skew, "_recovery_worklist", oracle_recovery_worklist)
    patch.setattr(TimingAnalyzer, "notify_resize", oracle_notify_resize)


# ---------------------------------------------------------------------- #
# Designs
# ---------------------------------------------------------------------- #
def _design(cells: int, seed: int, saturate: bool = False):
    """A placed design; ``saturate`` upsizes every gate to its largest size,
    so the optimizer turns to buffering."""
    netlist = generate_design(
        GeneratorConfig(
            name=f"bookkeeping{cells}",
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
        if not c.cell_type.is_port and c.sizing_headroom > 0
    ]


def _random_edits(netlist, analyzer, clock, rng, steps):
    """Random upsizes, downsizes and buffer splits, each notified."""
    for step in range(steps):
        if step % 7 == 6:
            nets = [n.index for n in netlist.nets if n.fanout >= 3]
            _split_net(netlist, int(rng.choice(nets)), keep_on_path=set())
            analyzer.invalidate()
        else:
            cell = int(rng.choice(_sizable(netlist)))
            size = netlist.cells[cell].size_index
            netlist.resize_cell(cell, size + 1 if size == 0 or step % 3 else size - 1)
            analyzer.notify_resize(cell)
        analyzer.analyze(clock)


def _same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


# ---------------------------------------------------------------------- #
# (a) run_flow is byte-equal to a run on the oracles
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "cells,saturate", [(320, False), (1000, False), (1000, True)],
    ids=["320", "1000", "1000-saturated"],
)
def test_flow_byte_equal_to_oracle_bookkeeping(cells, saturate, monkeypatch):
    netlist, period = _design(cells, seed=3, saturate=saturate)
    endpoints = netlist.endpoints()
    rng = np.random.default_rng(cells)
    selections = [[]] + [
        [int(e) for e in rng.choice(endpoints, size=k, replace=False)] for k in (2, 5, 9)
    ]
    config = FlowConfig(clock_period=period)

    def run_all():
        # A fresh snapshot per sweep: no begin bundle is shared between them.
        snapshot = snapshot_netlist_state(netlist)
        results = []
        for selection in selections:
            restore_netlist_state(netlist, snapshot)
            results.append(run_flow(netlist, config, prioritized_endpoints=selection))
        restore_netlist_state(netlist, snapshot)
        return results

    ours_all = run_all()
    with monkeypatch.context() as patch:
        patch_oracles(patch)
        oracle_all = run_all()

    assert sum(r.datapath_result.sizing_moves for r in ours_all) > 0
    assert sum(r.skew_result.recovery_commits for r in ours_all) > 0
    if saturate:
        assert sum(r.datapath_result.buffer_moves for r in ours_all) > 0
    for ours, theirs in zip(ours_all, oracle_all):
        for name in REPORT_FIELDS:
            ours_bytes = getattr(ours.report, name).tobytes()
            assert ours_bytes == getattr(theirs.report, name).tobytes(), name
        assert ours.clock.arrivals == theirs.clock.arrivals
        assert ours.skew_result == theirs.skew_result
        assert ours.datapath_result == theirs.datapath_result
        assert ours.begin == theirs.begin
        assert ours.final == theirs.final


# ---------------------------------------------------------------------- #
# (b) the gain model, bit for bit, and its first-max rule
# ---------------------------------------------------------------------- #
def test_sizing_gain_equals_oracle_after_random_edits():
    netlist, period = _design(1000, seed=5)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    rng = np.random.default_rng(29)
    for _round in range(4):
        _random_edits(netlist, analyzer, clock, rng, steps=15)
        compiled = analyzer.compiled
        for cell_index in _sizable(netlist):
            ours = _sizing_gain(compiled, netlist.cells[cell_index])
            theirs = oracle_sizing_gain(netlist, cell_index)
            assert _same_bits(ours, theirs), cell_index


def test_gain_tie_goes_to_the_first_path_cell(monkeypatch):
    netlist, period = _design(320, seed=3)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    report = analyzer.analyze(clock)
    k = int(np.argmin(report.slack))
    endpoint = int(report.endpoints[k])
    path = trace_critical_path(analyzer.compiled, report, endpoint).cells
    candidates = [c for c in path if c in set(_sizable(netlist))]
    assert len(candidates) >= 2

    resized = []
    monkeypatch.setattr(datapath_opt, "_sizing_gain", lambda compiled, cell: 1.0)
    monkeypatch.setattr(
        netlist, "resize_cell",
        lambda cell, size, _resize=netlist.resize_cell: resized.append(cell) or _resize(cell, size),
    )
    _fix_endpoint(
        analyzer, clock, endpoint, report, tns(report.slack), DatapathResult(), set(),
    )
    assert resized[0] == candidates[0]


# ---------------------------------------------------------------------- #
# (c) worklists and the buffer candidate when keys tie
# ---------------------------------------------------------------------- #
def test_recovery_worklist_equals_oracle_on_tied_launch_slacks():
    netlist, period = _design(320, seed=3)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    report = analyzer.analyze(clock)
    flops = netlist.sequential_cells()
    rng = np.random.default_rng(7)
    launch = report.cell_worst_slack_margined.copy()
    # Shuffled flops in groups sharing a slack, one unconstrained (+inf).
    tied = [int(f) for f in rng.permutation(flops)[:9]]
    launch[tied[:4]] = -0.125
    launch[tied[4:7]] = -0.5
    launch[tied[7:]] = np.inf
    tied_report = dataclasses.replace(report, cell_worst_slack_margined=launch)
    for committed in (set(), {tied[0], tied[5], int(flops[0])}):
        for window in (3, 5, 8, len(flops) + 1):
            ours = _recovery_worklist(analyzer, tied_report, committed, window)
            assert ours == oracle_recovery_worklist(analyzer, tied_report, committed, window)
    assert _apparent_slack(tied_report) == oracle_apparent_slack(tied_report)
    assert list(_apparent_slack(report)) == list(oracle_apparent_slack(report))


def test_buffer_net_equals_oracle_after_splits():
    netlist, period = _design(1000, seed=5)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    rng = np.random.default_rng(11)
    for _round in range(3):
        _random_edits(netlist, analyzer, clock, rng, steps=14)
        report = analyzer.analyze(clock)
        compiled = analyzer.compiled
        for endpoint in report.endpoints[np.argsort(report.slack)[:40]].tolist():
            path = trace_critical_path(compiled, report, endpoint).cells
            # Thresholds below, at and above the path's fanouts force ties.
            for threshold in (-1, 0, 1, 2, 3, 6):
                ours = _buffer_net(compiled, path, threshold)
                assert ours == oracle_buffer_net(netlist, path, threshold)


# ---------------------------------------------------------------------- #
# (d) the load patch and the net-load formula
# ---------------------------------------------------------------------- #
def test_net_load_cap_composes_sink_and_wire_terms():
    netlist, _period = _design(320, seed=3)
    netlist.parasitic_scale = 1.3
    for net in netlist.nets:
        expected = oracle_net_load_cap(netlist, net.index)
        assert _same_bits(netlist.net_load_cap(net.index), expected)
        assert _same_bits(
            netlist.net_sink_cap(net.index) + netlist.net_wire_cap(net.index), expected
        )


def test_load_patch_tracks_oracle_through_random_edits():
    netlist, period = _design(1000, seed=5)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    _random_edits(netlist, analyzer, clock, np.random.default_rng(3), steps=40)
    load_cap = analyzer.compiled.buffers["load_cap"]
    for cell in netlist.cells:
        expected = 0.0
        if cell.fanout_net is not None:
            expected = oracle_net_load_cap(netlist, cell.fanout_net)
        assert _same_bits(load_cap[cell.index], expected), cell.index


def test_shadow_check_names_a_wrong_load_patch(fresh_design):
    netlist, period = fresh_design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cell = next(
        netlist.cells[c] for c in _sizable(netlist)
        if not netlist.cells[netlist.fanin_cells(c)[0]].cell_type.is_port
    )
    net = netlist.nets[cell.fanin_nets[0]]
    driver = netlist.cells[net.driver]
    previous_check = inc.set_check(True)
    try:
        netlist.resize_cell(cell.index, cell.size_index + 1)
        analyzer.notify_resize(cell.index)  # a correct patch passes
        analyzer.compiled.buffers["wire_cap"][driver.index] += 0.5
        netlist.resize_cell(cell.index, cell.size_index - 1)
        with pytest.raises(RuntimeError) as caught:
            analyzer.notify_resize(cell.index)
    finally:
        inc.set_check(previous_check)
    message = str(caught.value)
    assert repr(cell.name) in message
    assert repr(driver.name) in message
    assert repr(net.name) in message


# ---------------------------------------------------------------------- #
# restore keeps the name index exact with and without appended cells
# ---------------------------------------------------------------------- #
def test_restore_name_index_with_and_without_appended_cells():
    netlist, period = _design(320, seed=3)
    names = dict(netlist._name_to_cell)
    snapshot = snapshot_netlist_state(netlist)
    restore_netlist_state(netlist, snapshot)
    assert netlist._name_to_cell == names
    net = next(n for n in netlist.nets if n.fanout >= 3)
    buffer = netlist.insert_buffer(net.index, net.sinks[:2])
    assert buffer.name in netlist._name_to_cell
    restore_netlist_state(netlist, snapshot)
    assert netlist._name_to_cell == names
    assert len(netlist.cells) == snapshot.num_cells
