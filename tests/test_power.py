"""Tests for the power models."""

from __future__ import annotations

import pytest

from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainConfig, train_rlccd
from repro.ccd import flow
from repro.ccd.flow import FlowConfig, restore_netlist_state, run_flow, snapshot_netlist_state
from repro.features.table1 import NUM_FEATURES
from repro.netlist.generator import GeneratorConfig, generate_design, quick_design
from repro.placement.global_place import PlacementConfig, place_design
from repro.power import models
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


def _smoke_design():
    """perfbench's smoke design: 320 generated cells, 40% violating."""
    netlist = generate_design(
        GeneratorConfig(
            name="power_smoke", library="tech7", n_cells=320, n_inputs=8, n_outputs=6, seed=0
        )
    )
    place_design(netlist, PlacementConfig(seed=0))
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    return netlist, choose_clock_period(report, nominal, 0.4)


def test_reward_path_computes_no_power(monkeypatch):
    """The reward is the final TNS: neither a flow nor a training run
    computes power."""

    def refuse(*args, **kwargs):
        raise AssertionError("power computed on the reward path")

    monkeypatch.setattr(models, "report_power", refuse)
    monkeypatch.setattr(flow, "report_power", refuse, raising=False)
    netlist, period = _smoke_design()
    config = FlowConfig(clock_period=period)
    snapshot = snapshot_netlist_state(netlist)
    result = run_flow(netlist, config, prioritized_endpoints=netlist.endpoints()[:4])
    restore_netlist_state(netlist, snapshot)
    assert result.datapath_result.total_moves > 0

    env = EndpointSelectionEnv(netlist, period)
    training = train_rlccd(
        RLCCDPolicy(NUM_FEATURES, rng=0),
        env,
        config,
        TrainConfig(max_episodes=3, plateau_patience=3, seed=0),
    )
    assert training.episodes_run == 3
