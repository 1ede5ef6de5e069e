"""Tests for the power models."""

from __future__ import annotations

import pytest

from repro.ccd.datapath_opt import _split_net
from repro.ccd.flow import FlowConfig, run_flow
from repro.netlist.generator import quick_design
from repro.placement.global_place import PlacementConfig, place_design
from repro.power.models import (
    cell_internal_power,
    cell_leakage_power,
    net_switching_power,
    report_power,
)
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer


@pytest.fixture
def placed():
    nl = quick_design(n_cells=300, seed=21)
    place_design(nl, PlacementConfig(seed=1))
    return nl


class TestComponents:
    def test_internal_scales_with_toggle(self, placed):
        cell = next(c for c in placed.cells if not c.cell_type.is_port)
        cell.toggle_rate = 0.1
        low = cell_internal_power(placed, cell.index)
        cell.toggle_rate = 0.5
        high = cell_internal_power(placed, cell.index)
        assert high == pytest.approx(5 * low)

    def test_leakage_independent_of_toggle(self, placed):
        cell = next(c for c in placed.cells if not c.cell_type.is_port)
        cell.toggle_rate = 0.1
        a = cell_leakage_power(placed, cell.index)
        cell.toggle_rate = 0.9
        assert cell_leakage_power(placed, cell.index) == a

    def test_upsizing_increases_power(self, placed):
        cell = next(
            c
            for c in placed.cells
            if not c.cell_type.is_port and c.sizing_headroom > 0
        )
        before_int = cell_internal_power(placed, cell.index)
        before_leak = cell_leakage_power(placed, cell.index)
        placed.resize_cell(cell.index, cell.size_index + 1)
        assert cell_internal_power(placed, cell.index) > before_int
        assert cell_leakage_power(placed, cell.index) > before_leak

    def test_switching_scales_with_frequency(self, placed):
        p1 = net_switching_power(placed, 0, frequency_ghz=1.0)
        p2 = net_switching_power(placed, 0, frequency_ghz=2.0)
        assert p2 == pytest.approx(2 * p1)

    def test_ports_have_zero_intrinsic_power(self, placed):
        port = next(c for c in placed.cells if c.is_input_port)
        assert cell_internal_power(placed, port.index) == 0.0
        assert cell_leakage_power(placed, port.index) == 0.0


class TestReport:
    def test_total_is_sum_of_components(self, placed):
        report = report_power(placed, ClockModel(period=0.8))
        assert report.total == pytest.approx(
            report.internal + report.leakage + report.switching
        )
        assert report.total > 0

    def test_faster_clock_more_switching(self, placed):
        slow = report_power(placed, ClockModel(period=1.0))
        fast = report_power(placed, ClockModel(period=0.5))
        assert fast.switching == pytest.approx(2 * slow.switching)
        assert fast.internal == pytest.approx(slow.internal)

    def test_str_contains_total(self, placed):
        assert "total" in str(report_power(placed, ClockModel(period=0.8)))

    def test_skew_is_power_neutral(self, placed):
        """Useful skew must not change reported power (the paper's asymmetry)."""
        clock = ClockModel.for_netlist(placed, 0.8)
        before = report_power(placed, clock)
        for f in placed.sequential_cells():
            if clock.bound(f) > 0:
                clock.adjust_arrival(f, clock.bound(f) / 2)
        after = report_power(placed, clock)
        assert after.total == pytest.approx(before.total)

    def test_flow_power_from_compiled_loads_is_bitwise_exact(self, placed):
        """run_flow reports power from the analyzer's compiled loads; after
        the flow's resizes, and after a buffer split, that must equal the
        per-net recomputation of ``report_power(netlist, clock)`` bit for bit."""
        nominal = placed.library.default_clock_period
        report = TimingAnalyzer(placed).analyze(ClockModel.for_netlist(placed, nominal))
        period = choose_clock_period(report, nominal, 0.35)
        begin = report_power(placed, ClockModel.for_netlist(placed, period))
        result = run_flow(
            placed, FlowConfig(clock_period=period), prioritized_endpoints=placed.endpoints()[:4]
        )
        assert result.datapath_result.sizing_moves > 0
        final = report_power(placed, result.clock)

        analyzer = TimingAnalyzer(placed)
        analyzer.analyze(result.clock)
        net = max(placed.nets, key=lambda n: n.fanout)
        _split_net(placed, net.index, keep_on_path=set())
        analyzer.invalidate()
        analyzer.analyze(result.clock)
        split = report_power(placed, result.clock, analyzer.compiled.load_cap)
        pairs = (
            (result.begin_power, begin),
            (result.final_power, final),
            (split, report_power(placed, result.clock)),
        )
        for fast, old_path in pairs:
            for name in ("internal", "leakage", "switching"):
                assert getattr(fast, name).hex() == getattr(old_path, name).hex(), name
