"""Tests for the clock model, STA engine, metrics and path tracing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.generator import quick_design
from repro.placement.global_place import PlacementConfig, place_design
from repro.timing.clock import ClockModel
from repro.timing.metrics import (
    choose_clock_period,
    nve,
    summarize,
    tns,
    violating_endpoints,
    wns,
)
from repro.timing.paths import trace_critical_path
from repro.timing.sta import TimingAnalyzer


class TestClockModel:
    def test_invalid_period_raises(self):
        with pytest.raises(ValueError):
            ClockModel(period=0.0)

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError):
            ClockModel(period=1.0, bounds={0: -0.1})

    def test_set_arrival_within_bounds(self):
        clock = ClockModel(period=1.0, bounds={3: 0.2})
        clock.set_arrival(3, 0.15)
        assert clock.arrival(3) == 0.15
        clock.set_arrival(3, -0.2)
        assert clock.arrival(3) == -0.2

    def test_set_arrival_beyond_bound_raises(self):
        clock = ClockModel(period=1.0, bounds={3: 0.2})
        with pytest.raises(ValueError, match="exceeds"):
            clock.set_arrival(3, 0.25)

    def test_unbounded_flop_cannot_move(self):
        clock = ClockModel(period=1.0)
        with pytest.raises(ValueError):
            clock.set_arrival(7, 0.01)

    def test_adjust_clamps_and_reports(self):
        clock = ClockModel(period=1.0, bounds={1: 0.1})
        applied = clock.adjust_arrival(1, 0.5)
        assert applied == pytest.approx(0.1)
        assert clock.arrival(1) == pytest.approx(0.1)
        applied = clock.adjust_arrival(1, -0.3)
        assert applied == pytest.approx(-0.2)

    def test_copy_is_independent(self):
        clock = ClockModel(period=1.0, bounds={1: 0.1}, arrivals={1: 0.05})
        dup = clock.copy()
        dup.set_arrival(1, 0.0)
        assert clock.arrival(1) == 0.05

    def test_total_adjustment_and_adjustments(self):
        clock = ClockModel(period=1.0, bounds={1: 0.2, 2: 0.2})
        clock.set_arrival(1, 0.1)
        clock.set_arrival(2, -0.05)
        assert clock.total_adjustment() == pytest.approx(0.15)
        assert set(clock.adjustments()) == {1, 2}


class TestStaOnTinyPipeline:
    """Hand-checkable STA behaviour on the 2-stage pipeline fixture."""

    def _analyze(self, netlist, period=0.8, **clock_kw):
        analyzer = TimingAnalyzer(netlist)
        clock = ClockModel.for_netlist(netlist, period)
        for f, v in clock_kw.items():
            clock.set_arrival(netlist.cell_by_name(f).index, v)
        return analyzer, clock, analyzer.analyze(clock)

    def test_three_endpoints_reported(self, tiny_pipeline):
        _, _, rep = self._analyze(tiny_pipeline)
        assert rep.endpoints.size == 3

    def test_slack_is_required_minus_arrival(self, tiny_pipeline):
        _, _, rep = self._analyze(tiny_pipeline)
        np.testing.assert_allclose(rep.slack, rep.required - rep.arrival)

    def test_flop_required_includes_setup(self, tiny_pipeline):
        nl = tiny_pipeline
        _, clock, rep = self._analyze(nl)
        ff1 = nl.cell_by_name("ff1").index
        k = int(np.nonzero(rep.endpoints == ff1)[0][0])
        setup = nl.library.cell_type("DFF").setup_time
        assert rep.required[k] == pytest.approx(clock.period - setup)

    def test_output_port_required_is_period(self, tiny_pipeline):
        nl = tiny_pipeline
        _, clock, rep = self._analyze(nl)
        y = nl.cell_by_name("y").index
        k = int(np.nonzero(rep.endpoints == y)[0][0])
        assert rep.required[k] == pytest.approx(clock.period)

    def test_capture_skew_improves_capture_slack_exactly(self, tiny_pipeline):
        nl = tiny_pipeline
        ff1 = nl.cell_by_name("ff1").index
        _, _, base = self._analyze(nl)
        _, _, skewed = self._analyze(nl, ff1=0.05)
        k = int(np.nonzero(base.endpoints == ff1)[0][0])
        assert skewed.slack[k] - base.slack[k] == pytest.approx(0.05)

    def test_launch_skew_hurts_downstream_exactly(self, tiny_pipeline):
        nl = tiny_pipeline
        ff2 = nl.cell_by_name("ff2").index
        _, _, base = self._analyze(nl)
        _, _, skewed = self._analyze(nl, ff1=0.05)
        k2 = int(np.nonzero(base.endpoints == ff2)[0][0])
        assert base.slack[k2] - skewed.slack[k2] == pytest.approx(0.05)

    def test_longer_period_adds_slack_everywhere(self, tiny_pipeline):
        _, _, rep1 = self._analyze(tiny_pipeline, period=0.8)
        _, _, rep2 = self._analyze(tiny_pipeline, period=0.9)
        np.testing.assert_allclose(rep2.slack - rep1.slack, 0.1, atol=1e-12)

    def test_margins_dont_change_true_slack(self, tiny_pipeline):
        nl = tiny_pipeline
        ff1 = nl.cell_by_name("ff1").index
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, 0.8)
        plain = analyzer.analyze(clock)
        margined = analyzer.analyze(clock, margins={ff1: 0.3})
        np.testing.assert_allclose(plain.slack, margined.slack)
        k = int(np.nonzero(margined.endpoints == ff1)[0][0])
        assert margined.slack_with_margins[k] == pytest.approx(
            margined.slack[k] - 0.3
        )

    def test_margined_backward_view_differs(self, tiny_pipeline):
        nl = tiny_pipeline
        ff1 = nl.cell_by_name("ff1").index
        g1 = nl.cell_by_name("g1").index
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, 0.8)
        rep = analyzer.analyze(clock, margins={ff1: 0.3})
        # g1 feeds only ff1, so its margined worst slack drops by the margin.
        assert rep.cell_worst_slack_margined[g1] == pytest.approx(
            rep.cell_worst_slack[g1] - 0.3
        )

    def test_endpoint_slack_lookup(self, tiny_pipeline):
        nl = tiny_pipeline
        _, _, rep = self._analyze(nl)
        ff1 = nl.cell_by_name("ff1").index
        assert rep.endpoint_slack(ff1) == pytest.approx(
            float(rep.slack[rep.endpoints == ff1][0])
        )
        with pytest.raises(KeyError):
            rep.endpoint_slack(nl.cell_by_name("g1").index)

    def test_upsizing_driver_one_step_speeds_up_path(self, tiny_pipeline):
        """One upsize step on a loaded driver helps; max upsizing may not
        (the larger input cap reflects onto the upstream stage) — which is
        exactly why the data-path optimizer verifies each move with STA."""
        nl = tiny_pipeline
        g2 = nl.cell_by_name("g2")
        ff2 = nl.cell_by_name("ff2").index
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, 0.8)
        base = analyzer.analyze(clock).endpoint_slack(ff2)
        nl.resize_cell(g2.index, 1)
        analyzer.invalidate()
        upsized = analyzer.analyze(clock).endpoint_slack(ff2)
        assert upsized > base


class TestStaOnGenerated:
    def test_arrivals_monotone_along_critical_path(self, small_design):
        nl, period = small_design
        analyzer = TimingAnalyzer(nl)
        rep = analyzer.analyze(ClockModel.for_netlist(nl, period))
        worst_ep = int(rep.endpoints[np.argmin(rep.slack)])
        path = trace_critical_path(analyzer.compiled, rep, worst_ep)
        arr = [rep.cell_arrival[c] for c in path.cells[:-1]]  # exclude endpoint
        assert all(a <= b + 1e-12 for a, b in zip(arr, arr[1:]))

    def test_worst_slack_through_consistent(self, small_design):
        """Cells on the worst path carry (at most) the worst endpoint slack."""
        nl, period = small_design
        analyzer = TimingAnalyzer(nl)
        rep = analyzer.analyze(ClockModel.for_netlist(nl, period))
        worst_ep = int(rep.endpoints[np.argmin(rep.slack)])
        worst_slack = rep.slack.min()
        path = trace_critical_path(analyzer.compiled, rep, worst_ep)
        for c in path.cells[:-1]:
            assert rep.cell_worst_slack[c] <= worst_slack + 1e-6

    def test_invalidate_reflects_mutation(self, fresh_design):
        nl, period = fresh_design
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, period)
        before = analyzer.analyze(clock)
        # Upsize every endpoint driver: timing must change.
        for e in nl.endpoints()[:10]:
            for d in nl.fanin_cells(e):
                cell = nl.cells[d]
                if not cell.cell_type.is_port and cell.sizing_headroom > 0:
                    nl.resize_cell(d, cell.size_index + 1)
        analyzer.invalidate()
        after = analyzer.analyze(clock)
        assert not np.allclose(before.slack, after.slack)

    def test_parasitic_scale_write_is_not_read_stale(self, fresh_design):
        """A live analyzer must see a parasitic-scale change (every wire
        delay and wire cap moves) exactly as a fresh analyzer does."""
        nl, period = fresh_design
        analyzer = TimingAnalyzer(nl)
        clock = ClockModel.for_netlist(nl, period)
        analyzer.analyze(clock)
        nl.parasitic_scale *= 1.5
        live = analyzer.analyze(clock)
        fresh = TimingAnalyzer(nl).analyze(clock)
        assert tns(live.slack) == tns(fresh.slack)
        assert np.array_equal(live.cell_arrival, fresh.cell_arrival)

    def test_cycle_detection_guard(self):
        """Compile raises on a netlist with an (invalid) comb cycle."""
        from repro.netlist.core import Netlist
        from repro.netlist.library import get_library

        lib = get_library("tech7")
        nl = Netlist("loop", lib)
        g1 = nl.add_cell("g1", lib.cell_type("INV"))
        g2 = nl.add_cell("g2", lib.cell_type("INV"))
        y = nl.add_cell("y", lib.cell_type("OUTPORT"))
        nl.add_net("n1", g1.index, [(g2.index, 0)])
        nl.add_net("n2", g2.index, [(g1.index, 0), (y.index, 0)])
        with pytest.raises(ValueError, match="cycle"):
            TimingAnalyzer(nl).analyze(ClockModel.for_netlist(nl, 1.0))


class TestMetrics:
    def test_tns_only_counts_negative(self):
        slack = np.array([0.5, -0.2, -0.3, 0.1])
        assert tns(slack) == pytest.approx(-0.5)

    def test_wns_clamped_at_zero(self):
        assert wns(np.array([0.5, 0.2])) == 0.0
        assert wns(np.array([0.5, -0.4])) == pytest.approx(-0.4)

    def test_nve_counts(self):
        assert nve(np.array([-0.1, 0.0, -1e-12, 0.2])) == 1

    def test_empty_arrays(self):
        assert tns(np.array([])) == 0.0
        assert wns(np.array([])) == 0.0
        assert nve(np.array([])) == 0

    def test_summarize(self, small_design):
        nl, period = small_design
        rep = TimingAnalyzer(nl).analyze(ClockModel.for_netlist(nl, period))
        s = summarize(rep)
        assert s.tns == pytest.approx(tns(rep.slack))
        assert s.wns == pytest.approx(wns(rep.slack))
        assert s.nve == nve(rep.slack)
        assert "TNS" in str(s)

    def test_violating_endpoints_sorted_worst_first(self, small_design):
        nl, period = small_design
        rep = TimingAnalyzer(nl).analyze(ClockModel.for_netlist(nl, period))
        cells = violating_endpoints(rep)
        slacks = [rep.endpoint_slack(int(c)) for c in cells]
        assert slacks == sorted(slacks)
        assert all(s < 0 for s in slacks)

    def test_choose_clock_period_hits_fraction(self, small_design):
        nl, _ = small_design
        analyzer = TimingAnalyzer(nl)
        nominal = nl.library.default_clock_period
        rep = analyzer.analyze(ClockModel.for_netlist(nl, nominal))
        for target in (0.2, 0.4):
            period = choose_clock_period(rep, nominal, target)
            rep2 = analyzer.analyze(ClockModel.for_netlist(nl, period))
            frac = nve(rep2.slack) / rep2.slack.size
            assert abs(frac - target) < 0.08

    def test_choose_clock_period_invalid_fraction(self, small_design):
        nl, _ = small_design
        rep = TimingAnalyzer(nl).analyze(
            ClockModel.for_netlist(nl, nl.library.default_clock_period)
        )
        with pytest.raises(ValueError):
            choose_clock_period(rep, 1.0, 0.0)


class TestPaths:
    def test_path_starts_at_launch_point(self, small_design):
        nl, period = small_design
        analyzer = TimingAnalyzer(nl)
        rep = analyzer.analyze(ClockModel.for_netlist(nl, period))
        for e in rep.endpoints[:10]:
            path = trace_critical_path(analyzer.compiled, rep, int(e))
            first = nl.cells[path.cells[0]]
            assert first.is_startpoint
            assert path.cells[-1] == int(e)

    def test_non_endpoint_raises(self, small_design):
        nl, period = small_design
        analyzer = TimingAnalyzer(nl)
        rep = analyzer.analyze(ClockModel.for_netlist(nl, period))
        comb = next(
            c.index for c in nl.cells if not c.is_endpoint and not c.is_startpoint
        )
        with pytest.raises(KeyError):
            trace_critical_path(analyzer.compiled, rep, comb)

    def test_str_and_depth(self, small_design):
        nl, period = small_design
        analyzer = TimingAnalyzer(nl)
        rep = analyzer.analyze(ClockModel.for_netlist(nl, period))
        path = trace_critical_path(analyzer.compiled, rep, int(rep.endpoints[0]))
        assert path.depth == len(path.cells)
        assert "Path(" in str(path)


def _cone_startpoints(netlist, endpoint):
    """Startpoints feeding the fan-in cone of ``endpoint``."""
    seen = set()
    starts = set()
    frontier = list(netlist.fanin_cells(endpoint))
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        if netlist.cells[v].is_startpoint:
            starts.add(v)
            continue
        frontier.extend(netlist.fanin_cells(v))
    return starts


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 500),
    skew=st.floats(-0.05, 0.05),
)
def test_property_skew_shift_is_exact(seed, skew):
    """Moving one bounded capture flop by δ changes its slack by exactly δ —
    unless the flop launches into its own fan-in cone (a feedback register),
    where capture and launch shifts cancel; such flops are excluded."""
    nl = quick_design(n_cells=250, seed=seed)
    place_design(nl, PlacementConfig(seed=seed))
    analyzer = TimingAnalyzer(nl)
    period = nl.library.default_clock_period
    clock = ClockModel.for_netlist(nl, period)
    base = analyzer.analyze(clock)
    flops = [
        f
        for f in nl.sequential_cells()
        if clock.bound(f) >= 0.05 and f not in _cone_startpoints(nl, f)
    ]
    if not flops:
        return
    flop = flops[0]
    clock.set_arrival(flop, skew)
    after = analyzer.analyze(clock)
    assert after.endpoint_slack(flop) - base.endpoint_slack(flop) == pytest.approx(
        skew, abs=1e-9
    )

