"""Tests for the benchmark suite: design specs, harness wiring, reporting.

These tests run the harnesses at minimum effort (tiny episode budgets) —
they verify plumbing and invariants, not paper-shape numbers, which the
benchmarks measure.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.benchsuite import table2
from repro.benchsuite.ablations import overfix_vs_underfix, rho_sweep, selection_baselines
from repro.benchsuite.designs import (
    BLOCKS,
    BLOCKS_BY_NAME,
    DesignSpec,
    bench_scale,
    build_design,
    get_block,
)
from repro.benchsuite.figures import fig5_arrival_histogram, fig6_transfer
from repro.benchsuite.report import (
    format_ablation,
    format_fig5,
    format_fig6,
    format_table2,
)
from repro.benchsuite.table2 import (
    Table2Config,
    run_table2_row,
    summarize_improvements,
)
from repro.ccd.flow import restore_netlist_state, run_flow, snapshot_netlist_state
from repro.power.models import report_power
from repro.timing.clock import ClockModel

FAST = Table2Config(max_episodes=2, seed=0)


@pytest.fixture(scope="module")
def small_spec():
    """A throwaway tiny spec so harness tests stay fast."""
    return DesignSpec(
        name="t2test", paper_cells=90_000, library="tech7", seed=77,
        violating_fraction=0.35,
    )


class TestSpecs:
    def test_nineteen_blocks(self):
        assert len(BLOCKS) == 19
        assert len(BLOCKS_BY_NAME) == 19

    def test_paper_cell_counts_preserved_in_order(self):
        by_name = {s.name: s.paper_cells for s in BLOCKS}
        assert by_name["block2"] == 1_300_000  # largest
        assert by_name["block10"] == 84_000  # smallest
        assert by_name["block11"] == 180_000  # the Fig.-5 design
        assert by_name["block19"] == 922_000  # the Fig.-6 design

    def test_tech_split_covers_all_nodes(self):
        libs = {s.library for s in BLOCKS}
        assert libs == {"tech5", "tech7", "tech12"}

    def test_scale_applied(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1000")
        assert bench_scale() == 1000
        assert get_block("block2").n_cells() == 1300
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0")
        with pytest.raises(ValueError):
            bench_scale()

    def test_unknown_block_raises(self):
        with pytest.raises(KeyError):
            get_block("block99")

    def test_build_design_deterministic(self, small_spec):
        a = build_design(small_spec)
        b = build_design(small_spec)
        assert a.clock_period == b.clock_period
        assert a.netlist.num_cells == b.netlist.num_cells

    def test_build_design_has_violations(self, small_spec):
        from repro.timing.clock import ClockModel
        from repro.timing.metrics import nve
        from repro.timing.sta import TimingAnalyzer

        d = build_design(small_spec)
        rep = TimingAnalyzer(d.netlist).analyze(
            ClockModel.for_netlist(d.netlist, d.clock_period)
        )
        frac = nve(rep.slack) / rep.slack.size
        assert abs(frac - small_spec.violating_fraction) < 0.1


T2ROW = DesignSpec(
    name="t2row", paper_cells=90_000, library="tech7", seed=78, violating_fraction=0.35
)


class TestTable2Harness:
    @pytest.fixture(scope="class")
    def row(self):
        return run_table2_row(T2ROW, FAST)

    def test_power_reports_are_report_power_on_each_final_state(self, row):
        """The begin power is the begin netlist's, and each flow's power is
        its final netlist state's, before the restore."""
        design = build_design(T2ROW)
        netlist, period = design.netlist, design.clock_period
        flow_config = FAST.flow_config(period)
        snapshot = snapshot_netlist_state(netlist)
        assert row.begin_power == report_power(netlist, ClockModel.for_netlist(netlist, period))
        for result, power in ((row.default, row.default_power), (row.rlccd, row.rlccd_power)):
            restore_netlist_state(netlist, snapshot)
            replay = run_flow(netlist, flow_config, prioritized_endpoints=result.prioritized)
            assert replay.final == result.final
            assert power == report_power(netlist, replay.clock)
        assert row.default_power != row.begin_power  # the data-path moves cost power

    def test_row_fields(self, row):
        assert row.begin.tns <= row.default.final.tns
        assert row.begin.tns <= row.rlccd.final.tns
        assert row.default_runtime > 0
        assert row.rlccd_runtime > row.default_runtime  # training costs more

    def test_default_runtime_is_the_median_of_five_replays(self, row, monkeypatch):
        """``default_runtime`` is the median of the five timed replays, the
        training is timed once, and no other field reads the clock."""
        ticks = iter([0.0, 1.0, 10.0, 13.0, 20.0, 20.5, 30.0, 32.0, 40.0, 47.0, 100.0, 150.0])
        monkeypatch.setattr(table2, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        timed = run_table2_row(T2ROW, FAST)
        assert next(ticks, None) is None
        assert timed.default_runtime == 2.0  # the intervals 1, 3, 0.5, 2, 7
        assert timed.rlccd_runtime == 50.0

        def fields(r):
            return (
                r.design, r.num_cells, r.begin, r.begin_power, r.default_power,
                r.rlccd_power, r.rlccd_selected,
                r.default.final, r.default.prioritized, r.rlccd.final, r.rlccd.prioritized,
                r.training.history, r.training.best_tns, r.training.best_selection,
                r.training.episodes_run, r.training.converged,
            )

        assert fields(timed) == fields(row)

    def test_begin_state_shared(self, row):
        assert row.default.begin.tns == pytest.approx(row.rlccd.begin.tns)

    def test_improvement_metrics_consistent(self, row):
        expected = 100.0 * (1.0 - row.rlccd.final.tns / row.default.final.tns)
        assert row.tns_improvement_pct == pytest.approx(expected)

    def test_summarize_improvements(self, row):
        s = summarize_improvements([row])
        assert s["num_designs"] == 1
        assert "avg_tns_improvement_pct" in s

    def test_format_table2_renders(self, row):
        text = format_table2([row])
        assert "t2row" in text
        assert "default tool flow" in text
        assert "summary" in text


class TestFigureHarnesses:
    def test_fig5(self):
        spec = DesignSpec(
            name="f5test", paper_cells=80_000, library="tech7", seed=79,
            violating_fraction=0.35,
        )
        result = fig5_arrival_histogram(spec, FAST, num_bins=6)
        assert result.default_counts.shape == (6,)
        assert result.rlccd_counts.shape == (6,)
        assert result.bin_edges.shape == (7,)
        assert result.num_prioritized >= 1
        text = format_fig5(result)
        assert "f5test" in text

    def test_fig6(self):
        target = DesignSpec(
            name="f6target", paper_cells=80_000, library="tech7", seed=80,
            violating_fraction=0.35,
        )
        sources = [
            DesignSpec(
                name="f6src", paper_cells=70_000, library="tech7", seed=81,
                violating_fraction=0.35,
            )
        ]
        result = fig6_transfer(target, sources, FAST)
        assert result.scratch_curve.size >= 1
        assert result.transfer_curve.size >= 1
        assert result.pretrain_designs == ["f6src"]
        text = format_fig6(result)
        assert "f6target" in text

    def test_fig6_no_sources_raises(self):
        target = DesignSpec(
            name="f6t2", paper_cells=80_000, library="tech7", seed=80,
            violating_fraction=0.35,
        )
        with pytest.raises(ValueError):
            fig6_transfer(target, [], FAST)


class TestAblationHarnesses:
    SPEC = DesignSpec(
        name="abtest", paper_cells=80_000, library="tech7", seed=82,
        violating_fraction=0.35,
    )

    def test_overfix_vs_underfix(self):
        points = overfix_vs_underfix(self.SPEC, FAST)
        labels = [p.label for p in points]
        assert any("over-fix" in lab for lab in labels)
        assert any("under-fix" in lab for lab in labels)
        assert any("default" in lab for lab in labels)
        text = format_ablation("A1", points)
        assert "A1" in text

    def test_rho_sweep_monotone_selection_growth(self):
        points = rho_sweep(self.SPEC, rhos=(0.1, 0.9), config=FAST)
        assert points[0].num_selected <= points[1].num_selected

    def test_rho_one_disables_masking(self):
        points = rho_sweep(self.SPEC, rhos=(1.0,), config=FAST)
        # With masking disabled, greedy selection takes every endpoint
        # except those with ratio > 1.0 (impossible) => all endpoints.
        from repro.agent.env import EndpointSelectionEnv

        design = build_design(self.SPEC)
        env = EndpointSelectionEnv(design.netlist, design.clock_period, rho=1.0)
        assert points[0].num_selected == env.num_endpoints

    def test_selection_baselines_cover_all(self):
        points = selection_baselines(self.SPEC, FAST)
        labels = " ".join(p.label for p in points)
        for token in ("default", "worst-slack", "random", "greedy-overlap", "RL-CCD"):
            assert token in labels


class TestSeedSweep:
    def test_sweep_and_summary(self):
        from repro.benchsuite.stats import seed_sweep, summarize_sweep

        spec = DesignSpec(
            name="sweeptest", paper_cells=80_000, library="tech7", seed=90,
            violating_fraction=0.4,
        )
        sweep = seed_sweep(spec, seeds=(0, 1), config=FAST)
        assert sweep.design == "sweeptest"
        assert len(sweep.rows) == 2
        summary = summarize_sweep(sweep)
        assert summary.num_seeds == 2
        assert summary.ci95_low <= summary.mean_improvement_pct <= summary.ci95_high
        # With the fallback no seed can regress.
        assert summary.worst_improvement_pct >= -1e-9
        assert "TNS improvement" in str(summary)

    def test_empty_seeds_raise(self):
        from repro.benchsuite.stats import seed_sweep

        with pytest.raises(ValueError):
            seed_sweep("block10", seeds=())

    def test_single_seed_degenerate_ci(self):
        from repro.benchsuite.stats import seed_sweep, summarize_sweep

        spec = DesignSpec(
            name="sweep1", paper_cells=80_000, library="tech7", seed=91,
            violating_fraction=0.4,
        )
        summary = summarize_sweep(seed_sweep(spec, seeds=(3,), config=FAST))
        assert summary.ci95_low == summary.ci95_high == summary.mean_improvement_pct


class TestTQuantiles:
    def test_table_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        from repro.benchsuite.stats import T_975, t_quantile_975

        assert len(T_975) == 30
        for df in range(1, 31):
            assert t_quantile_975(df) == float(scipy_stats.t.ppf(0.975, df))

    @pytest.mark.parametrize("df", [0, 31])
    def test_outside_the_table_raises(self, df):
        from repro.benchsuite.stats import t_quantile_975

        with pytest.raises(ValueError, match="df 1..30"):
            t_quantile_975(df)

    def test_benchsuite_import_leaves_scipy_unloaded(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, repro.benchsuite; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestPersistence:
    @pytest.fixture(scope="class")
    def row(self):
        spec = DesignSpec(
            name="persist", paper_cells=80_000, library="tech7", seed=92,
            violating_fraction=0.4,
        )
        return run_table2_row(spec, FAST)

    def test_roundtrip(self, row, tmp_path):
        from repro.benchsuite.persistence import load_rows, save_rows

        path = str(tmp_path / "out" / "results.json")
        save_rows([row], path)
        loaded = load_rows(path)
        assert len(loaded) == 1
        assert loaded[0]["design"] == "persist"
        assert loaded[0]["rlccd"]["tns"] == pytest.approx(row.rlccd.final.tns)
        assert loaded[0]["tns_improvement_pct"] == pytest.approx(
            row.tns_improvement_pct
        )

    def test_bad_format_rejected(self, tmp_path):
        import json

        from repro.benchsuite.persistence import load_rows

        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(ValueError):
            load_rows(path)

    def test_compare_runs_synthetic(self):
        from repro.benchsuite.persistence import compare_runs

        base = [{"design": "d1", "rlccd": {"tns": -1.0}}]
        same = [{"design": "d1", "rlccd": {"tns": -1.0}}]
        result = compare_runs(base, same)
        assert result["common_designs"] == 1
        assert result["regressed"] == [] and result["improved"] == []

        worse = [{"design": "d1", "rlccd": {"tns": -1.5}}]
        assert compare_runs(base, worse)["regressed"] == ["d1"]
        better = [{"design": "d1", "rlccd": {"tns": -0.5}}]
        assert compare_runs(base, better)["improved"] == ["d1"]
        unknown = [{"design": "dX", "rlccd": {"tns": -0.5}}]
        assert compare_runs(base, unknown)["common_designs"] == 0

    def test_compare_negative_tolerance_rejected(self):
        from repro.benchsuite.persistence import compare_runs

        with pytest.raises(ValueError):
            compare_runs([], [], tolerance_pct=-1.0)
