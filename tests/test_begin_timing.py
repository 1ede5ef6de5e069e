"""The begin-state bundle: one compile per restored snapshot.

``run_flow`` keeps a pristine copy of the begin timing (compiled view,
incremental state, report) of the snapshot it last started from,
and later flows at that restore run on buffer copies of it.  These tests
pin the bundle's contract: its copies equal a from-scratch compile and
state byte for byte, it serves a flow only when nothing has changed since
the restore, and it never travels with a pickled netlist.
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro import obs
from repro.ccd import flow as flow_module
from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.netlist.generator import quick_design
from repro.placement.global_place import PlacementConfig, place_design
from repro.timing import incremental as inc
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer, buffer_mismatches, compile_timing


@pytest.fixture(autouse=True)
def recorder():
    """A clean, enabled recorder, so ``flow.begin_copies`` counts."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    yield obs.get_recorder()
    obs.reset()
    if not was_enabled:
        obs.disable()


@pytest.fixture
def design():
    netlist = quick_design(name="begin", n_cells=240, seed=7)
    place_design(netlist, PlacementConfig(seed=7))
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, 0.35)
    selection = [int(e) for e in report.endpoints[np.argsort(report.slack)[:5]]]
    return netlist, FlowConfig(clock_period=period), selection


def _copies(recorder) -> float:
    return recorder.counters.get("flow.begin_copies", 0.0)


def _outcome(result):
    """Everything a flow reports that a reward or table reads."""
    return (
        result.begin,
        result.final,
        result.clock.adjustments(),
        result.skew_result.commits,
        result.datapath_result.total_moves,
    )


def _fresh_flow(netlist, config, selection):
    """The flow with no bundle to start from: compile and begin STA anew."""
    flow_module._restored.pop(netlist, None)
    return run_flow(netlist, config, prioritized_endpoints=selection)


def _warm(netlist, snapshot, config):
    """Restore and run one flow, so the snapshot's bundle exists."""
    restore_netlist_state(netlist, snapshot)
    run_flow(netlist, config)
    restore_netlist_state(netlist, snapshot)


def _mutate_cells(rng, netlist, analyzer, clock):
    """Seeded probes, resizes and skew commits, then one buffer split."""
    comb = [
        c.index for c in netlist.cells if not c.cell_type.is_port and not c.is_sequential
    ]
    flops = netlist.sequential_cells()
    for _ in range(12):
        cell = netlist.cells[int(rng.choice(comb))]
        previous = cell.size_index
        netlist.resize_cell(
            cell.index, int(rng.integers(0, cell.cell_type.max_size_index + 1))
        )
        analyzer.notify_resize(cell.index)
        analyzer.analyze(clock)
        if rng.random() < 0.5:  # a rejected probe rolls back
            netlist.resize_cell(cell.index, previous)
            analyzer.notify_resize(cell.index)
            analyzer.analyze(clock)
        flop = int(rng.choice(flops))
        room = clock.bound(flop) - clock.arrival(flop)
        if room > 1e-9:
            clock.adjust_arrival(flop, float(rng.uniform(0.0, room)))
            analyzer.notify_skew((flop,))
            analyzer.analyze(clock)
    net = next(n for n in netlist.nets if n.fanout >= 2)
    netlist.insert_buffer(net.index, net.sinks[:1])
    analyzer.invalidate()
    analyzer.analyze(clock)


class TestBundleContract:
    def test_copies_equal_a_fresh_compile_and_state_byte_for_byte(self, design):
        netlist, config, selection = design
        snapshot = snapshot_netlist_state(netlist)
        _warm(netlist, snapshot, config)
        begin = flow_module._begin_timing[netlist]

        # Drive a flow-sized sequence of edits on a copy of the bundle.
        live = begin.analyzer(netlist)
        clock = ClockModel.for_netlist(netlist, config.clock_period)
        _mutate_cells(np.random.default_rng(3), netlist, live, clock)
        run_flow(netlist, config, prioritized_endpoints=selection)
        restore_netlist_state(netlist, snapshot)

        copy = begin.analyzer(netlist)
        fresh = compile_timing(netlist)
        _, fresh_state = inc.build_state(
            fresh, ClockModel.for_netlist(netlist, config.clock_period)
        )
        assert buffer_mismatches(copy.compiled.buffers, fresh.buffers) == []
        assert buffer_mismatches(copy.state.buffers, fresh_state.buffers) == []
        assert len(copy.compiled.levels) == len(fresh.levels)
        for ours, theirs in zip(copy.compiled.levels, fresh.levels):
            assert np.array_equal(ours, theirs)
        assert copy.compiled.netlist is netlist
        assert copy.state.compiled is copy.compiled
        assert copy.state.period == fresh_state.period
        assert copy.state.num_levels == fresh_state.num_levels
        assert copy.state.clock_synced == fresh_state.clock_synced == {}
        assert copy.state.margined == fresh_state.margined == set()
        assert copy.state.pending == set()

    def test_copies_share_no_buffer_with_the_bundle(self, design):
        netlist, config, _ = design
        snapshot = snapshot_netlist_state(netlist)
        _warm(netlist, snapshot, config)
        begin = flow_module._begin_timing[netlist]
        copy = begin.analyzer(netlist)
        for owner, original in ((copy.compiled, begin.compiled), (copy.state, begin.state)):
            for name, buf in owner.buffers.items():
                assert buf is not original.buffers[name], name
                view = getattr(owner, name)
                assert np.shares_memory(view, np.frombuffer(buf, dtype=view.dtype)), name
                assert not np.shares_memory(view, getattr(original, name)), name

    def test_repeat_flows_match_fresh_flows(self, design, recorder):
        netlist, config, selection = design
        snapshot = snapshot_netlist_state(netlist)
        _warm(netlist, snapshot, config)
        for sel in (selection, [], selection[:2]):
            restore_netlist_state(netlist, snapshot)
            before = _copies(recorder)
            reused = run_flow(netlist, config, prioritized_endpoints=sel)
            assert _copies(recorder) == before + 1
            restore_netlist_state(netlist, snapshot)
            assert _outcome(reused) == _outcome(_fresh_flow(netlist, config, sel))

    def test_first_flow_after_a_snapshot_keeps_the_bundle(self, design, recorder):
        """A snapshot registers the netlist as a restore does: snapshot →
        flow → restore → flow compiles and runs begin STA once."""
        netlist, config, selection = design
        snapshot = snapshot_netlist_state(netlist)
        counters = recorder.counters
        full_before = counters.get("sta.full_analyze", 0.0)
        copies_before = _copies(recorder)
        first = run_flow(netlist, config, prioritized_endpoints=selection)
        restore_netlist_state(netlist, snapshot)
        second = run_flow(netlist, config, prioritized_endpoints=selection)
        restore_netlist_state(netlist, snapshot)
        assert counters.get("sta.full_analyze", 0.0) - full_before == 1
        assert _copies(recorder) - copies_before == 1
        assert _outcome(first) == _outcome(second)


class TestBundleNotUsed:
    """Each case skips the bundle and matches a from-scratch flow."""

    def _assert_bypassed(self, recorder, netlist, snapshot, config, selection, edit):
        _warm(netlist, snapshot, config)
        edit()
        before = _copies(recorder)
        result = run_flow(netlist, config, prioritized_endpoints=selection)
        assert _copies(recorder) == before
        restore_netlist_state(netlist, snapshot)
        edit()
        assert _outcome(result) == _outcome(_fresh_flow(netlist, config, selection))

    def test_mutation_after_restore(self, design, recorder):
        netlist, config, selection = design
        snapshot = snapshot_netlist_state(netlist)
        cell = next(
            c for c in netlist.cells if not c.cell_type.is_port and c.sizing_headroom > 0
        )
        self._assert_bypassed(
            recorder, netlist, snapshot, config, selection,
            lambda: netlist.resize_cell(cell.index, cell.size_index + 1),
        )

    def test_parasitic_scale_change(self, design, recorder):
        netlist, config, selection = design
        snapshot = snapshot_netlist_state(netlist)

        def grow():
            netlist.parasitic_scale *= 1.5

        self._assert_bypassed(recorder, netlist, snapshot, config, selection, grow)

    def test_different_snapshot(self, design, recorder):
        netlist, config, selection = design
        snapshot = snapshot_netlist_state(netlist)
        cell = next(
            c for c in netlist.cells if not c.cell_type.is_port and c.sizing_headroom > 0
        )
        netlist.resize_cell(cell.index, cell.size_index + 1)
        other = snapshot_netlist_state(netlist)
        restore_netlist_state(netlist, snapshot)
        self._assert_bypassed(
            recorder, netlist, snapshot, config, selection,
            lambda: restore_netlist_state(netlist, other),
        )
        # The other snapshot's first flow built its own bundle.
        assert flow_module._begin_timing[netlist].snapshot is other

    @pytest.mark.parametrize(
        "variant",
        [
            pytest.param(lambda c: FlowConfig(clock_period=c.clock_period * 1.1), id="period"),
            pytest.param(
                lambda c: FlowConfig(clock_period=c.clock_period, incremental_sta=False),
                id="full_sta",
            ),
        ],
    )
    def test_other_config(self, design, recorder, variant):
        netlist, config, selection = design
        snapshot = snapshot_netlist_state(netlist)
        _warm(netlist, snapshot, config)
        other = variant(config)
        before = _copies(recorder)
        result = run_flow(netlist, other, prioritized_endpoints=selection)
        assert _copies(recorder) == before
        restore_netlist_state(netlist, snapshot)
        assert _outcome(result) == _outcome(_fresh_flow(netlist, other, selection))

    def test_flow_without_restore(self, design, recorder):
        netlist, config, _ = design
        snapshot = snapshot_netlist_state(netlist)
        _warm(netlist, snapshot, config)
        run_flow(netlist, config)
        before = _copies(recorder)
        run_flow(netlist, config)  # the first flow's edits are still in place
        assert _copies(recorder) == before
        restore_netlist_state(netlist, snapshot)


class TestBundleSafety:
    def test_pickled_netlist_carries_no_bundle(self, design):
        netlist, config, selection = design
        snapshot = snapshot_netlist_state(netlist)
        restore_netlist_state(netlist, snapshot)
        before = len(pickle.dumps(netlist))
        run_flow(netlist, config, prioritized_endpoints=selection)
        restore_netlist_state(netlist, snapshot)
        run_flow(netlist, config, prioritized_endpoints=selection)
        restore_netlist_state(netlist, snapshot)
        assert netlist in flow_module._begin_timing
        assert len(pickle.dumps(netlist)) == before

    def test_bundle_dies_with_its_netlist(self, design):
        _, config, _ = design
        netlist = quick_design(name="short_lived", n_cells=120, seed=2)
        place_design(netlist, PlacementConfig(seed=2))
        snapshot = snapshot_netlist_state(netlist)
        _warm(netlist, snapshot, config)
        count = len(flow_module._begin_timing)
        del netlist
        gc.collect()
        assert len(flow_module._begin_timing) == count - 1

    @pytest.mark.parametrize("field, amount", [("x", 25.0)], ids=["coordinate"])
    def test_shadow_check_catches_unversioned_write(self, design, field, amount):
        netlist, config, _ = design
        snapshot = snapshot_netlist_state(netlist)
        _warm(netlist, snapshot, config)
        previous = inc.set_check(True)
        cell = next(c for c in netlist.cells if c.fanin_nets and c.fanout_net is not None)
        try:
            run_flow(netlist, config)  # unchanged: the check passes
            restore_netlist_state(netlist, snapshot)
            setattr(cell, field, getattr(cell, field) + amount)
            with pytest.raises(RuntimeError, match="begin-state timing drift"):
                run_flow(netlist, config)
        finally:
            setattr(cell, field, getattr(cell, field) - amount)
            inc.set_check(previous)
