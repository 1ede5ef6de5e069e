"""Tests for the future-work extensions (§V): full-flow optimization,
adaptive overlap masking, and PPA (area) accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agent.baselines import select_greedy_overlap, select_worst_slack
from repro.agent.env import EndpointSelectionEnv
from repro.ccd.flow import FlowConfig, restore_netlist_state, snapshot_netlist_state
from repro.ccd.fullflow import (
    FullFlowStage,
    default_stages,
    run_full_flow,
)
from repro.features.adaptive_masking import DecayingRho, FixedRho, SizeAdaptiveRho
from repro.features.cones import ConeIndex
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer, compile_timing


class TestArea:
    def test_total_cell_area_positive(self, small_design):
        nl, _ = small_design
        assert nl.total_cell_area() > 0

    def test_upsizing_grows_area(self, fresh_design):
        nl, _ = fresh_design
        before = nl.total_cell_area()
        cell = next(
            c for c in nl.cells if not c.cell_type.is_port and c.sizing_headroom > 0
        )
        nl.resize_cell(cell.index, cell.size_index + 1)
        assert nl.total_cell_area() > before

    def test_ports_have_zero_area(self, small_design):
        nl, _ = small_design
        port = next(c for c in nl.cells if c.is_input_port)
        assert port.size.area == 0.0

    def test_skew_is_area_neutral(self, fresh_design):
        nl, period = fresh_design
        before = nl.total_cell_area()
        clock = ClockModel.for_netlist(nl, period)
        for f in nl.sequential_cells():
            if clock.bound(f) > 0:
                clock.adjust_arrival(f, clock.bound(f) / 3)
        assert nl.total_cell_area() == pytest.approx(before)


class TestParasiticScale:
    def test_scale_degrades_timing(self, fresh_design):
        nl, period = fresh_design
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, period)
        base = analyzer.analyze(clock)
        nl.parasitic_scale = 1.5
        analyzer.invalidate()
        worse = analyzer.analyze(clock)
        assert worse.slack.min() < base.slack.min()
        assert np.all(worse.slack <= base.slack + 1e-12)
        nl.parasitic_scale = 1.0

    def test_snapshot_restores_scale(self, fresh_design):
        nl, period = fresh_design
        snap = snapshot_netlist_state(nl)
        nl.parasitic_scale = 2.0
        restore_netlist_state(nl, snap)
        assert nl.parasitic_scale == 1.0


class TestFullFlow:
    def test_stage_validation(self):
        with pytest.raises(ValueError):
            FullFlowStage("x", FlowConfig(clock_period=1.0), parasitic_growth=-0.1)
        with pytest.raises(ValueError):
            run_full_flow(None, [])

    def test_default_stages_shape(self):
        stages = default_stages(0.5)
        assert [s.name for s in stages] == ["placement", "cts_refine", "route_refine"]
        assert stages[0].parasitic_growth == 0.0

    def test_native_full_flow_runs(self, fresh_design):
        nl, period = fresh_design
        snap = snapshot_netlist_state(nl)
        result = run_full_flow(nl, default_stages(period))
        restore_netlist_state(nl, snap)
        assert len(result.stage_results) == 3
        assert result.stages == ["placement", "cts_refine", "route_refine"]
        assert result.selection_counts() == [0, 0, 0]
        # Each stage ends no worse than it began (the optimizer works).
        for r in result.stage_results:
            assert r.final.tns >= r.begin.tns

    def test_selector_consulted_per_stage(self, fresh_design):
        nl, period = fresh_design
        snap = snapshot_netlist_state(nl)
        calls = []

        def selector(env: EndpointSelectionEnv):
            calls.append(env.num_endpoints)
            return select_worst_slack(env, 3)

        result = run_full_flow(nl, default_stages(period), selector)
        restore_netlist_state(nl, snap)
        assert len(calls) >= 1  # at least the placement stage had violations
        assert any(count > 0 for count in result.selection_counts())

    def test_parasitic_growth_applied(self, fresh_design):
        nl, period = fresh_design
        snap = snapshot_netlist_state(nl)
        run_full_flow(nl, default_stages(period))
        assert nl.parasitic_scale == pytest.approx(1.15 * 1.10)
        restore_netlist_state(nl, snap)
        assert nl.parasitic_scale == 1.0


class TestAdaptiveMasking:
    @pytest.fixture
    def cones(self, small_design):
        nl, _ = small_design
        return ConeIndex(compile_timing(nl), nl.endpoints())

    def test_fixed_matches_cone_index(self, cones):
        strategy = FixedRho(0.3)
        valid = np.ones(len(cones), bool)
        sel = cones.endpoints[0]
        np.testing.assert_array_equal(
            strategy.mask_after_selection(cones, sel, valid, 0),
            cones.mask_after_selection(sel, valid, 0.3),
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FixedRho(1.5)
        with pytest.raises(ValueError):
            SizeAdaptiveRho(min_rho=0.5, max_rho=0.3)
        with pytest.raises(ValueError):
            DecayingRho(decay=1.5)

    def test_size_adaptive_large_cone_masks_more(self, cones):
        sizes = cones.cone_sizes
        order = np.argsort(sizes)
        large_ep = cones.endpoints[int(order[-1])]
        if sizes[order[0]] == sizes[order[-1]]:
            pytest.skip("fixture has uniform cone sizes")
        strategy = SizeAdaptiveRho(base_rho=0.3, alpha=1.0)
        valid = np.ones(len(cones), bool)
        # Effective rho for the large cone must be <= that of the small one;
        # verify via the describe + direct threshold computation.
        masked_large = strategy.mask_after_selection(cones, large_ep, valid, 0)
        fixed_large = cones.mask_after_selection(large_ep, valid, 0.3)
        assert masked_large.sum() >= fixed_large.sum()

    def test_decaying_rho_tightens(self, cones):
        strategy = DecayingRho(base_rho=0.6, decay=0.5, min_rho=0.05)
        sel = cones.endpoints[0]
        valid = np.ones(len(cones), bool)
        early = strategy.mask_after_selection(cones, sel, valid, 0)
        late = strategy.mask_after_selection(cones, sel, valid, 10)
        assert late.sum() >= early.sum()  # smaller rho masks at least as much

    def test_describe_strings(self):
        assert "fixed" in FixedRho().describe()
        assert "size-adaptive" in SizeAdaptiveRho().describe()
        assert "decaying" in DecayingRho().describe()

    def test_env_accepts_strategy(self, small_design):
        nl, period = small_design
        env = EndpointSelectionEnv(
            nl, period, masking=DecayingRho(base_rho=0.6, decay=0.7)
        )
        selection = select_greedy_overlap(env)
        assert selection
        assert env.state.done

    def test_env_strategies_differ(self, small_design):
        nl, period = small_design
        results = {}
        for label, masking in (
            ("fixed", FixedRho(0.3)),
            ("decay", DecayingRho(base_rho=0.9, decay=0.3)),
        ):
            env = EndpointSelectionEnv(nl, period, masking=masking)
            results[label] = len(select_greedy_overlap(env))
        assert results["fixed"] != results["decay"]
