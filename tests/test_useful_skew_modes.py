"""Focused tests for the useful-skew engine's attention window, its
launch-side floor and prioritization mechanics (the heart of the
reproduction)."""

from __future__ import annotations

import pytest

from repro.ccd.margins import margins_to_wns
from repro.ccd.useful_skew import UsefulSkewConfig, optimize_useful_skew
from repro.timing.clock import ClockModel
from repro.timing.metrics import tns, violating_endpoints
from repro.timing.sta import TimingAnalyzer


def _context(design):
    nl, period = design
    analyzer = TimingAnalyzer(nl)
    clock = ClockModel.for_netlist(nl, period)
    report = analyzer.analyze(clock)
    return nl, analyzer, clock, report


class TestAttentionWindow:
    def test_smaller_window_fewer_commits(self, fresh_design):
        nl, analyzer, clock, report = _context(fresh_design)
        narrow_clock = clock.copy()
        narrow = optimize_useful_skew(
            analyzer,
            narrow_clock,
            config=UsefulSkewConfig(
                attention_fraction=0.1, min_attention=1, passes=1,
                enable_recovery=False,
            ),
        )
        wide_clock = clock.copy()
        wide = optimize_useful_skew(
            analyzer,
            wide_clock,
            config=UsefulSkewConfig(
                attention_fraction=1.0, min_attention=1, passes=1,
                enable_recovery=False,
            ),
        )
        assert narrow.commits <= wide.commits

    def test_window_head_is_worst_endpoint(self, fresh_design):
        """With a one-endpoint window, only the worst endpoint's flop moves."""
        nl, analyzer, clock, report = _context(fresh_design)
        worst = int(violating_endpoints(report)[0])
        optimize_useful_skew(
            analyzer,
            clock,
            config=UsefulSkewConfig(
                attention_fraction=1e-9, min_attention=1, passes=1,
                enable_recovery=False,
            ),
        )
        moved = set(clock.adjustments())
        assert moved <= {worst}

    def test_margins_buy_attention(self, fresh_design):
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
        config = UsefulSkewConfig(
            attention_fraction=1e-9, min_attention=1, passes=1,
            enable_recovery=False,
        )
        plain_clock = clock.copy()
        optimize_useful_skew(analyzer, plain_clock, config=config)
        assert plain_clock.arrival(target) == 0.0

        margin_clock = clock.copy()
        margins = margins_to_wns(report, [target])
        optimize_useful_skew(analyzer, margin_clock, margins, config=config)
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

    def test_commit_locking_within_run(self, fresh_design):
        """A flop adjusted in pass 1 is never re-adjusted in later passes."""
        nl, analyzer, clock, report = _context(fresh_design)
        # Track arrivals after each pass by running with increasing passes.
        one = clock.copy()
        optimize_useful_skew(analyzer, one, config=UsefulSkewConfig(passes=1))
        three = clock.copy()
        optimize_useful_skew(analyzer, three, config=UsefulSkewConfig(passes=3))
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
