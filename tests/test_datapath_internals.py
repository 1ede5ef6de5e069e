"""Focused tests for data-path optimizer internals and flow accounting."""

from __future__ import annotations

import numpy as np

from repro.ccd import datapath_opt
from repro.ccd.datapath_opt import (
    _split_net,
    _upsize_gains,
    optimize_datapath,
)
from repro.ccd.flow import FlowConfig, run_flow, snapshot_netlist_state, restore_netlist_state
from repro.netlist.core import Netlist
from repro.netlist.library import get_library
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer


def _chain_with_fanout():
    """in -> drv -> {s0..s7} -> ... with a heavily loaded middle net."""
    lib = get_library("tech7")
    nl = Netlist("fan", lib)
    src = nl.add_cell("src", lib.cell_type("INPORT"))
    drv = nl.add_cell("drv", lib.cell_type("INV"))
    nl.add_net("n_src", src.index, [(drv.index, 0)])
    sinks = []
    for i in range(8):
        s = nl.add_cell(f"s{i}", lib.cell_type("BUF"))
        s.x, s.y = 10.0 * i, 5.0
        sinks.append(s)
    nl.add_net("n_fan", drv.index, [(s.index, 0) for s in sinks])
    outs = []
    for i, s in enumerate(sinks):
        o = nl.add_cell(f"o{i}", lib.cell_type("OUTPORT"))
        o.x, o.y = 10.0 * i, 20.0
        nl.add_net(f"n_s{i}", s.index, [(o.index, 0)])
        outs.append(o)
    return nl, drv, sinks


def _gain(nl, cell):
    """The optimizer's gain estimate, on a fresh compile of ``nl``."""
    ((_cell, gain),) = _upsize_gains(TimingAnalyzer(nl).compiled, [cell.index])
    return gain


class TestSizingGain:
    def test_gain_positive_for_loaded_min_size_cell(self):
        nl, drv, sinks = _chain_with_fanout()
        # drv drives 8 buffer pins: upsizing one step should look profitable.
        assert _gain(nl, drv) > 0

    def test_gain_shrinks_as_cell_grows(self):
        nl, drv, sinks = _chain_with_fanout()
        gains = []
        for size in range(drv.cell_type.max_size_index):
            nl.resize_cell(drv.index, size)
            gains.append(_gain(nl, drv))
        # Diminishing returns along the ladder (allowing small wobble).
        assert gains[0] > gains[-1]

    def test_gain_accounts_for_upstream_penalty(self):
        """A cell with a weak driver sees a smaller (or negative) gain."""
        nl, drv, sinks = _chain_with_fanout()
        base_gain = _gain(nl, sinks[0])
        # Weaken the driver (downsizing drv makes its resistance higher).
        assert drv.size_index == 0  # already weakest; upsize to compare
        nl.resize_cell(drv.index, drv.cell_type.max_size_index)
        strong_driver_gain = _gain(nl, sinks[0])
        assert strong_driver_gain >= base_gain

    def test_compiled_load_cap_tracks_net_load_cap(self, fresh_design):
        """The optimizer reads each cell's load from the analyzer's compiled
        ``load_cap``; that is only sound while it equals ``net_load_cap`` of
        the cell's fan-out net through every probe resize, rollback and
        buffer split (notify_resize re-patches drivers, splits invalidate)."""
        netlist, period = fresh_design
        clock = ClockModel.for_netlist(netlist, period)
        analyzer = TimingAnalyzer(netlist)
        analyzer.analyze(clock)
        rng = np.random.default_rng(17)

        def assert_tracks(context):
            load_cap = analyzer.compiled.load_cap
            for cell in netlist.cells:
                expected = 0.0
                if cell.fanout_net is not None:
                    expected = netlist.net_load_cap(cell.fanout_net)
                assert load_cap[cell.index] == expected, (context, cell.index)

        for step in range(30):
            comb = [
                c.index
                for c in netlist.cells
                if not c.cell_type.is_port and not c.is_sequential and c.sizing_headroom > 0
            ]
            cell = int(rng.choice(comb))
            if step % 5 == 4:
                nets = [n.index for n in netlist.nets if n.fanout >= 3]
                _split_net(netlist, int(rng.choice(nets)), keep_on_path=set())
                analyzer.invalidate()
            else:
                previous = netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
                analyzer.notify_resize(cell)
                if step % 2:  # rolled-back probe
                    analyzer.analyze(clock)
                    netlist.resize_cell(cell, previous)
                    analyzer.notify_resize(cell)
            analyzer.analyze(clock)
            assert_tracks(f"step {step}")


class TestSplitNet:
    def test_split_reduces_driver_load(self):
        nl, drv, sinks = _chain_with_fanout()
        before = nl.net_load_cap(drv.fanout_net)
        _split_net(nl, drv.fanout_net, keep_on_path={sinks[0].index})
        after = nl.net_load_cap(drv.fanout_net)
        assert after < before

    def test_split_preserves_connectivity(self):
        nl, drv, sinks = _chain_with_fanout()
        _split_net(nl, drv.fanout_net, keep_on_path={sinks[0].index})
        from repro.netlist.validate import validate_netlist

        validate_netlist(nl)
        # Every original sink still reachable from drv within two hops.
        direct = set(nl.fanout_cells(drv.index))
        two_hop = set()
        for c in direct:
            two_hop.update(nl.fanout_cells(c))
        reachable = direct | two_hop
        for s in sinks:
            assert s.index in reachable

    def test_on_path_sinks_stay_direct(self):
        nl, drv, sinks = _chain_with_fanout()
        keep = {sinks[0].index, sinks[1].index}
        _split_net(nl, drv.fanout_net, keep_on_path=keep)
        direct = set(nl.fanout_cells(drv.index))
        assert keep <= direct


class TestDatapathOnFanoutDesign:
    def test_buffering_move_triggers_on_high_fanout(self, monkeypatch):
        nl, drv, sinks = _chain_with_fanout()
        # Saturate sizing headroom so buffering is the only move left.
        for cell in [drv] + sinks:
            nl.resize_cell(cell.index, cell.cell_type.max_size_index)
        analyzer = TimingAnalyzer(nl)
        # Tight clock so outputs violate.
        clock = ClockModel(period=0.05)
        monkeypatch.setattr(datapath_opt, "BUFFER_FANOUT_THRESHOLD", 4)
        monkeypatch.setattr(datapath_opt, "MIN_MOVES", 8)
        result = optimize_datapath(analyzer, clock, effort_per_violation=4.0)
        assert result.buffer_moves >= 1

    def test_rounds_bounded(self, fresh_design, monkeypatch):
        nl, period = fresh_design
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, period)
        monkeypatch.setattr(datapath_opt, "MAX_ROUNDS", 2)
        result = optimize_datapath(analyzer, clock)
        assert result.rounds <= 2


class TestFlowAccounting:
    def test_flow_result_properties(self, fresh_design):
        nl, period = fresh_design
        snap = snapshot_netlist_state(nl)
        result = run_flow(nl, FlowConfig(clock_period=period))
        restore_netlist_state(nl, snap)
        assert result.tns == result.final.tns
        assert result.wns == result.final.wns
        assert result.nve == result.final.nve
        assert result.prioritized == []

    def test_skew_and_datapath_results_populated(self, fresh_design):
        nl, period = fresh_design
        snap = snapshot_netlist_state(nl)
        result = run_flow(nl, FlowConfig(clock_period=period))
        restore_netlist_state(nl, snap)
        assert result.skew_result.passes_run >= 1
        assert result.datapath_result.budget_spent >= 0
        assert result.skew_result.total_adjustment >= 0
