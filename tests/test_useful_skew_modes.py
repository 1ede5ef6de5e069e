"""Focused tests for the useful-skew engine's attention window, its
launch-side floor and prioritization mechanics (the heart of the
reproduction)."""

from __future__ import annotations

import pytest

from repro.ccd import useful_skew
from repro.ccd.margins import margins_to_wns
from repro.ccd.useful_skew import optimize_useful_skew
from repro.timing.clock import ClockModel
from repro.timing.metrics import tns, violating_endpoints
from repro.timing.sta import TimingAnalyzer


def _context(design):
    nl, period = design
    analyzer = TimingAnalyzer(nl)
    clock = ClockModel.for_netlist(nl, period)
    report = analyzer.analyze(clock)
    return nl, analyzer, clock, report


def _one_pass_window(monkeypatch, fraction: float) -> None:
    """One capture pass over a window of ``fraction`` of the violating
    endpoints (at least one), with no recovery candidates."""
    monkeypatch.setattr(useful_skew, "PASSES", 1)
    monkeypatch.setattr(useful_skew, "ATTENTION_FRACTION", fraction)
    monkeypatch.setattr(useful_skew, "MIN_ATTENTION", 1)
    monkeypatch.setattr(useful_skew, "_recovery_worklist", lambda *args: [])


class TestAttentionWindow:
    def test_smaller_window_fewer_commits(self, fresh_design, monkeypatch):
        nl, analyzer, clock, report = _context(fresh_design)
        _one_pass_window(monkeypatch, 0.1)
        narrow = optimize_useful_skew(analyzer, clock.copy())
        _one_pass_window(monkeypatch, 1.0)
        wide = optimize_useful_skew(analyzer, clock.copy())
        assert narrow.commits <= wide.commits

    def test_window_head_is_worst_endpoint(self, fresh_design, monkeypatch):
        """With a one-endpoint window, only the worst endpoint's flop moves."""
        nl, analyzer, clock, report = _context(fresh_design)
        worst = int(violating_endpoints(report)[0])
        _one_pass_window(monkeypatch, 1e-9)
        optimize_useful_skew(analyzer, clock)
        moved = set(clock.adjustments())
        assert moved <= {worst}

    def test_margins_buy_attention(self, fresh_design, monkeypatch):
        """A margined mid-pack endpoint enters a window it otherwise misses."""
        nl, analyzer, clock, report = _context(fresh_design)
        viol = violating_endpoints(report)
        # Pick a flexible flop endpoint outside the top-1 window.
        target = None
        for e in viol[1:]:
            e = int(e)
            if clock.bound(e) > 0.01:
                target = e
                break
        if target is None:
            pytest.skip("no flexible mid-pack endpoint in fixture")
        _one_pass_window(monkeypatch, 1e-9)
        plain_clock = clock.copy()
        optimize_useful_skew(analyzer, plain_clock)
        assert plain_clock.arrival(target) == 0.0

        margin_clock = clock.copy()
        margins = margins_to_wns(report, [target])
        optimize_useful_skew(analyzer, margin_clock, margins)
        # The margined endpoint is now (tied-)worst apparent: it is in the
        # window; whether it moves depends on its launch budget, but no
        # OTHER endpoint may consume the slot.
        moved = set(margin_clock.adjustments())
        assert moved <= {target}


class TestModes:
    def test_balance_can_trade_where_conservative_wont(self, fresh_design):
        """The launch-side floor never pushes a healthy endpoint negative."""
        nl, analyzer, clock, report = _context(fresh_design)
        healthy = set(report.endpoints[report.slack >= 0].tolist())

        optimize_useful_skew(analyzer, clock)
        after = analyzer.analyze(clock)
        still_healthy = set(after.endpoints[after.slack >= -1e-9].tolist())
        assert healthy <= still_healthy

    def test_commit_locking_within_run(self, fresh_design, monkeypatch):
        """A flop adjusted in pass 1 is never re-adjusted in later passes."""
        nl, analyzer, clock, report = _context(fresh_design)
        # Track arrivals after each pass by running with increasing passes.
        one = clock.copy()
        monkeypatch.setattr(useful_skew, "PASSES", 1)
        optimize_useful_skew(analyzer, one)
        three = clock.copy()
        monkeypatch.setattr(useful_skew, "PASSES", 3)
        optimize_useful_skew(analyzer, three)
        for f, v in one.adjustments().items():
            assert three.arrival(f) == pytest.approx(v)

    def test_no_movable_flops_is_noop(self, fresh_design):
        nl, analyzer, _, _ = _context(fresh_design)
        period = ClockModel.for_netlist(nl, 0.5).period
        rigid = ClockModel(period=period)  # no bounds at all
        result = optimize_useful_skew(analyzer, rigid)
        assert result.commits == 0
        assert rigid.total_adjustment() == 0.0

    def test_engine_never_hurts_tns_in_conservative_mode(self, fresh_design):
        nl, analyzer, clock, report = _context(fresh_design)
        before = tns(report.slack)
        optimize_useful_skew(analyzer, clock)
        after = tns(analyzer.analyze(clock).slack)
        assert after >= before - 1e-9
