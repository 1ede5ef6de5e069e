"""Tests for margins, the useful-skew engine, the data-path optimizer and
the placement flow."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.ccd import flow as flow_module
from repro.ccd import datapath_opt
from repro.ccd.datapath_opt import optimize_datapath
from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.ccd.margins import margins_by_amount, margins_to_wns, remove_margins
from repro.ccd.useful_skew import optimize_useful_skew
from repro.timing.clock import ClockModel
from repro.timing.metrics import tns, violating_endpoints
from repro.timing.sta import TimingAnalyzer


def _context(design):
    nl, period = design
    analyzer = TimingAnalyzer(nl)
    clock = ClockModel.for_netlist(nl, period)
    report = analyzer.analyze(clock)
    return nl, period, analyzer, clock, report


class TestMargins:
    def test_margins_bring_apparent_slack_to_wns(self, small_design):
        nl, period, analyzer, clock, report = _context(small_design)
        viol = violating_endpoints(report)[:5].tolist()
        margins = margins_to_wns(report, viol)
        margined = analyzer.analyze(clock, margins)
        design_wns = report.slack.min()
        for e in viol:
            k = int(np.nonzero(margined.endpoints == e)[0][0])
            assert margined.slack_with_margins[k] == pytest.approx(design_wns)

    def test_margins_non_negative(self, small_design):
        nl, period, analyzer, clock, report = _context(small_design)
        margins = margins_to_wns(report, violating_endpoints(report).tolist())
        assert all(m >= 0.0 for m in margins.values())

    def test_worst_endpoint_gets_zero_margin(self, small_design):
        nl, period, analyzer, clock, report = _context(small_design)
        worst = int(report.endpoints[np.argmin(report.slack)])
        margins = margins_to_wns(report, [worst])
        assert margins[worst] == pytest.approx(0.0)

    def test_non_endpoint_raises(self, small_design):
        nl, period, analyzer, clock, report = _context(small_design)
        comb = next(
            c.index for c in nl.cells if not c.is_endpoint and not c.is_startpoint
        )
        with pytest.raises(KeyError):
            margins_to_wns(report, [comb])

    def test_margins_by_amount_signs(self):
        m = margins_by_amount([3, 4], 0.1)
        assert m == {3: 0.1, 4: 0.1}
        m = margins_by_amount([3], -0.05)  # under-fix variant
        assert m[3] == -0.05

    def test_remove_margins_restores_exactly(self, small_design):
        nl, period, analyzer, clock, report = _context(small_design)
        viol = violating_endpoints(report)[:5].tolist()
        margins = margins_to_wns(report, viol)
        cleared = analyzer.analyze(clock, remove_margins(margins))
        plain = analyzer.analyze(clock)
        np.testing.assert_array_equal(cleared.slack, plain.slack)
        np.testing.assert_array_equal(cleared.margins, plain.margins)


class TestUsefulSkew:
    def test_improves_tns(self, fresh_design):
        nl, period, analyzer, clock, report = _context(fresh_design)
        before = tns(report.slack)
        optimize_useful_skew(analyzer, clock)
        after = tns(analyzer.analyze(clock).slack)
        assert after > before

    def test_respects_bounds(self, fresh_design):
        nl, period, analyzer, clock, report = _context(fresh_design)
        optimize_useful_skew(analyzer, clock)
        for f, v in clock.arrivals.items():
            assert abs(v) <= clock.bound(f) + 1e-9

    def test_conservative_never_creates_new_violations(self, fresh_design):
        nl, period, analyzer, clock, report = _context(fresh_design)
        healthy_before = set(report.endpoints[report.slack >= 0].tolist())
        optimize_useful_skew(analyzer, clock)
        after = analyzer.analyze(clock)
        healthy_after = set(after.endpoints[after.slack >= -1e-9].tolist())
        assert healthy_before <= healthy_after

    def test_rigid_flops_never_move(self, fresh_design):
        nl, period, analyzer, clock, report = _context(fresh_design)
        rigid = {f for f in nl.sequential_cells() if clock.bound(f) == 0.0}
        optimize_useful_skew(analyzer, clock)
        for f in rigid:
            assert clock.arrival(f) == 0.0

    def test_margins_change_allocation(self, fresh_design):
        """Margined endpoints receive at least as much capture skew."""
        nl, period, analyzer, clock, report = _context(fresh_design)
        viol = violating_endpoints(report)
        flex = [
            int(e)
            for e in viol
            if nl.cells[int(e)].is_sequential and clock.bound(int(e)) > 0.02
        ]
        if not flex:
            pytest.skip("no flexible violating flop in fixture")
        target = flex[min(4, len(flex) - 1)]  # not the worst one
        plain_clock = clock.copy()
        optimize_useful_skew(analyzer, plain_clock)
        margin_clock = clock.copy()
        margins = margins_to_wns(report, [target])
        optimize_useful_skew(analyzer, margin_clock, margins)
        assert margin_clock.arrival(target) >= plain_clock.arrival(target) - 1e-9

    def test_result_accounting(self, fresh_design):
        nl, period, analyzer, clock, report = _context(fresh_design)
        result = optimize_useful_skew(analyzer, clock)
        assert result.commits >= 0
        assert result.passes_run >= 1
        assert result.total_adjustment == pytest.approx(clock.total_adjustment())


class TestDatapath:
    def test_invalid_config(self, fresh_design):
        nl, period, analyzer, clock, _ = _context(fresh_design)
        with pytest.raises(ValueError):
            FlowConfig(clock_period=period, datapath_effort=0)
        with pytest.raises(ValueError):
            optimize_datapath(analyzer, clock, effort_per_violation=-1.0)

    def test_improves_tns(self, fresh_design):
        nl, period, analyzer, clock, report = _context(fresh_design)
        before = tns(report.slack)
        result = optimize_datapath(analyzer, clock)
        after = tns(analyzer.analyze(clock).slack)
        assert after >= before
        assert result.total_moves > 0

    def test_no_violations_no_moves(self, fresh_design):
        nl, period, analyzer, _, _ = _context(fresh_design)
        generous = ClockModel.for_netlist(nl, period * 10)
        result = optimize_datapath(analyzer, generous)
        assert result.total_moves == 0

    def test_budget_respected(self, fresh_design, monkeypatch):
        nl, period, analyzer, clock, report = _context(fresh_design)
        monkeypatch.setattr(datapath_opt, "MIN_MOVES", 3)
        monkeypatch.setattr(datapath_opt, "MAX_MOVES", 3)
        result = optimize_datapath(analyzer, clock, effort_per_violation=0.1)
        assert result.budget_spent <= 3 + 1.5  # one in-flight move may finish

    def test_moves_mutate_netlist(self, fresh_design):
        nl, period, analyzer, clock, report = _context(fresh_design)
        sizes_before = [c.size_index for c in nl.cells]
        n_before = nl.num_cells
        result = optimize_datapath(analyzer, clock)
        sizes_after = [c.size_index for c in nl.cells[:n_before]]
        changed = sizes_before != sizes_after or nl.num_cells > n_before
        assert changed == (result.total_moves > 0)


class TestFlow:
    def test_default_flow_improves(self, fresh_design):
        nl, period = fresh_design
        result = run_flow(nl, FlowConfig(clock_period=period))
        assert result.final.tns > result.begin.tns
        assert result.final.nve <= result.begin.nve
        assert result.runtime_seconds > 0

    def test_prioritized_flow_runs(self, fresh_design):
        nl, period = fresh_design
        snapshot = snapshot_netlist_state(nl)
        analyzer = TimingAnalyzer(nl)
        report = analyzer.analyze(ClockModel.for_netlist(nl, period))
        sel = violating_endpoints(report)[:5].tolist()
        result = run_flow(nl, FlowConfig(clock_period=period), sel)
        assert result.prioritized == sel
        assert result.final.tns > result.begin.tns
        restore_netlist_state(nl, snapshot)

    def test_same_begin_state_both_flows(self, fresh_design):
        nl, period = fresh_design
        snapshot = snapshot_netlist_state(nl)
        r1 = run_flow(nl, FlowConfig(clock_period=period))
        restore_netlist_state(nl, snapshot)
        r2 = run_flow(nl, FlowConfig(clock_period=period), [nl.endpoints()[0]])
        restore_netlist_state(nl, snapshot)
        assert r1.begin.tns == pytest.approx(r2.begin.tns)

    def test_flow_deterministic(self, fresh_design):
        nl, period = fresh_design
        snapshot = snapshot_netlist_state(nl)
        r1 = run_flow(nl, FlowConfig(clock_period=period))
        restore_netlist_state(nl, snapshot)
        r2 = run_flow(nl, FlowConfig(clock_period=period))
        restore_netlist_state(nl, snapshot)
        assert r1.final.tns == pytest.approx(r2.final.tns)
        assert r1.final.nve == r2.final.nve

    def test_snapshot_restore_roundtrip(self, fresh_design):
        nl, period = fresh_design
        snapshot = snapshot_netlist_state(nl)
        sizes = [c.size_index for c in nl.cells]
        n_cells, n_nets = nl.num_cells, nl.num_nets
        run_flow(nl, FlowConfig(clock_period=period))
        restore_netlist_state(nl, snapshot)
        assert nl.num_cells == n_cells
        assert nl.num_nets == n_nets
        assert [c.size_index for c in nl.cells] == sizes
        # Timing identical after restore.
        analyzer = TimingAnalyzer(nl)
        analyzer.analyze(ClockModel.for_netlist(nl, period))
        rep2_nl_sizes = [c.size_index for c in nl.cells]
        assert rep2_nl_sizes == sizes

    def test_restore_removes_inserted_buffers(self, fresh_design):
        nl, period = fresh_design
        snapshot = snapshot_netlist_state(nl)
        names_before = {c.name for c in nl.cells}
        run_flow(
            nl,
            FlowConfig(clock_period=period, datapath_effort=4.0),
        )
        restore_netlist_state(nl, snapshot)
        assert {c.name for c in nl.cells} == names_before
        with pytest.raises(KeyError):
            nl.cell_by_name("definitely_not_there")

    def test_arrival_adjustments_recorded(self, fresh_design):
        nl, period = fresh_design
        snapshot = snapshot_netlist_state(nl)
        result = run_flow(nl, FlowConfig(clock_period=period))
        restore_netlist_state(nl, snapshot)
        adjustments = result.clock.adjustments()
        assert len(adjustments) > 0
        for f, v in adjustments.items():
            assert v != 0.0
            assert abs(v) <= nl.skew_bounds.get(f, 0.0) + 1e-9

    def test_underfix_margin_mode(self, fresh_design):
        nl, period = fresh_design
        snapshot = snapshot_netlist_state(nl)
        analyzer = TimingAnalyzer(nl)
        report = analyzer.analyze(ClockModel.for_netlist(nl, period))
        sel = violating_endpoints(report)[:5].tolist()
        result = run_flow(
            nl,
            FlowConfig(clock_period=period, margin_mode=-0.05),
            sel,
        )
        restore_netlist_state(nl, snapshot)
        assert result.final.tns > result.begin.tns  # still optimizes overall


class TestFlowBoundaries:
    """``run_flow`` refuses non-finite endpoint slack at begin and final STA,
    so a NaN can never become a TNS reward."""

    def test_nan_coordinate_refused_at_begin_sta(self, fresh_design):
        # Setting a coordinate in code bypasses the validated loader.
        nl, period = fresh_design
        flop = next(c for c in nl.cells if c.is_sequential)
        flop.x = float("nan")
        with np.errstate(invalid="ignore"):
            report = TimingAnalyzer(nl).analyze(ClockModel.for_netlist(nl, period))
        bad = report.endpoints[~np.isfinite(report.slack)]
        assert bad.size > 0
        first = nl.cells[int(bad[0])]
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as exc:
            run_flow(nl, FlowConfig(clock_period=period))
        message = str(exc.value)
        assert message.startswith("begin STA: non-finite slack nan")
        assert f"endpoint cell {first.index} ({first.name!r})" in message

    def test_non_finite_slack_refused_at_final_sta(self, fresh_design, monkeypatch):
        nl, period = fresh_design
        real_datapath = flow_module.optimize_datapath
        poisoned = []

        def poison_after_datapath(analyzer, clock, effort_per_violation):
            result = real_datapath(analyzer, clock, effort_per_violation)
            real_analyze = analyzer.analyze

            def analyze(*args, **kwargs):
                report = real_analyze(*args, **kwargs)
                slack = report.slack.copy()
                slack[0] = np.inf
                poisoned.append(int(report.endpoints[0]))
                return dataclasses.replace(report, slack=slack)

            monkeypatch.setattr(analyzer, "analyze", analyze)
            return result

        monkeypatch.setattr(flow_module, "optimize_datapath", poison_after_datapath)
        with pytest.raises(ValueError) as exc:
            run_flow(nl, FlowConfig(clock_period=period))
        message = str(exc.value)
        assert message.startswith("final STA: non-finite slack inf")
        endpoint = nl.cells[poisoned[-1]]
        assert f"endpoint cell {endpoint.index} ({endpoint.name!r})" in message
