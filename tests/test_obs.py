"""Tests for the observability layer (``repro.obs``)."""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.agent.parallel import evaluate_selections, fork_available
from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.netlist.generator import quick_design
from repro.obs.bench import (
    BenchConfig,
    aggregate_phases,
    compare_bench,
    load_bench,
    run_bench,
    save_bench,
    strip_timing,
)
from repro.obs.history import section_medians
from repro.placement.global_place import place_design
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer

CLOCK_PERIOD = 0.4


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from global recorder/trace/verify state."""
    was_enabled = obs.enabled()
    prev_trace = obs.trace_path()
    prev_verify = obs.verify_enabled()
    obs.reset()
    yield
    obs.set_trace_path(prev_trace)
    obs.set_verify(prev_verify)
    if was_enabled:
        obs.enable()
    else:
        obs.disable()
    obs.reset()


def small_design(seed: int = 3, n_cells: int = 220):
    netlist = quick_design(n_cells=n_cells, seed=seed)
    place_design(netlist)
    return netlist


class TestRecorder:
    def test_span_records_duration(self):
        obs.enable()
        with obs.span("unit.outer"):
            pass
        stats = obs.get_recorder().phases["unit.outer"]
        assert stats.count == 1
        assert stats.total >= 0.0
        assert len(stats.durations) == 1

    def test_span_nesting(self):
        obs.enable()
        with obs.span("unit.outer"):
            assert obs.get_recorder().span_stack() == ["unit.outer"]
            with obs.span("unit.inner"):
                assert obs.get_recorder().span_stack() == [
                    "unit.outer",
                    "unit.inner",
                ]
            with obs.span("unit.inner"):
                pass
        recorder = obs.get_recorder()
        assert recorder.span_stack() == []
        assert recorder.phases["unit.outer"].count == 1
        assert recorder.phases["unit.inner"].count == 2
        # Children ran inside the parent, so the parent's time bounds theirs.
        assert (
            recorder.phases["unit.outer"].total
            >= recorder.phases["unit.inner"].total
        )

    def test_span_elapsed_exposed(self):
        obs.enable()
        with obs.span("unit.timed") as sp:
            pass
        assert sp.elapsed is not None and sp.elapsed >= 0.0

    def test_counters_and_gauges(self):
        obs.enable()
        obs.incr("unit.counter")
        obs.incr("unit.counter", 2.5)
        obs.gauge("unit.gauge", 7)
        obs.gauge("unit.gauge", 9)
        recorder = obs.get_recorder()
        assert recorder.counters["unit.counter"] == pytest.approx(3.5)
        assert recorder.gauges["unit.gauge"] == 9.0

    def test_disabled_mode_is_noop(self):
        obs.disable()
        null_a = obs.span("unit.ignored")
        null_b = obs.span("unit.other")
        assert null_a is null_b  # shared singleton, no per-call allocation
        with null_a:
            obs.incr("unit.ignored")
            obs.gauge("unit.ignored", 1.0)
        recorder = obs.get_recorder()
        assert recorder.phases == {}
        assert recorder.counters == {}
        assert recorder.gauges == {}
        assert obs.export_state() is None

    def test_export_merge_roundtrip(self):
        obs.enable()
        obs.incr("unit.counter", 2)
        with obs.span("unit.span"):
            pass
        state = obs.export_state()
        obs.merge_state(state)  # fold a copy of ourselves back in
        recorder = obs.get_recorder()
        assert recorder.counters["unit.counter"] == 4
        assert recorder.phases["unit.span"].count == 2


class TestInstrumentation:
    def test_flow_records_phases_and_counters(self):
        obs.enable()
        netlist = small_design()
        result = run_flow(netlist, FlowConfig(clock_period=CLOCK_PERIOD))
        assert result.runtime_seconds > 0
        recorder = obs.get_recorder()
        for phase in ("flow.run", "flow.skew", "flow.datapath", "sta.full_update"):
            assert recorder.phases[phase].count >= 1, phase
        # The flow ran the skew engine twice (main + final cleanup pass).
        assert recorder.phases["ccd.useful_skew"].count == 2
        assert recorder.counters.get("sta.incremental_update", 0) >= 0

    def test_flow_runtime_populated_when_disabled(self):
        obs.disable()
        netlist = small_design()
        result = run_flow(netlist, FlowConfig(clock_period=CLOCK_PERIOD))
        assert result.runtime_seconds > 0
        assert obs.get_recorder().phases == {}

    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_counter_merge_from_forked_workers(self):
        obs.enable()
        netlist = small_design()
        snapshot = snapshot_netlist_state(netlist)
        obs.reset()  # drop the parent's own snapshot-time activity
        rewards = evaluate_selections(
            netlist,
            FlowConfig(clock_period=CLOCK_PERIOD),
            [[], []],
            workers=2,
            snapshot=snapshot,
        )
        assert len(rewards) == 2
        recorder = obs.get_recorder()
        # Both forked children's flow spans landed in the parent recorder.
        assert recorder.phases["flow.run"].count == 2
        assert recorder.phases["rollout.evaluate"].count == 1
        assert recorder.counters["rollout.tasks"] == 2
        # Deterministic flows: both children saw identical reward metrics.
        assert rewards[0] == rewards[1]


class TestVerifyMode:
    def test_restore_verifies_bit_for_bit(self):
        obs.set_verify(True)
        netlist = small_design()
        snapshot = snapshot_netlist_state(netlist, verify_clock_period=CLOCK_PERIOD)
        assert snapshot.verify_summary is not None
        run_flow(netlist, FlowConfig(clock_period=CLOCK_PERIOD))
        restore_netlist_state(netlist, snapshot)  # must not raise

    def test_restore_detects_snapshot_drift(self):
        obs.set_verify(True)
        netlist = small_design()
        # Constrain tightly enough that endpoint slacks are negative, so a
        # timing perturbation is visible in the TNS/WNS summary.
        report = TimingAnalyzer(netlist).analyze(
            ClockModel.for_netlist(netlist, CLOCK_PERIOD)
        )
        period = choose_clock_period(report, CLOCK_PERIOD, 0.5)
        snapshot = snapshot_netlist_state(netlist, verify_clock_period=period)
        # Placement is outside the snapshot's coverage: dragging a driving
        # cell stretches its wire delays — exactly the silent drift verify
        # mode exists to catch.
        moved = next(
            c for c in netlist.cells if c.fanout_net is not None and c.fanin_nets
        )
        moved.x += 200.0
        moved.y += 200.0
        with pytest.raises(RuntimeError, match="snapshot drift"):
            restore_netlist_state(netlist, snapshot)

    def test_verify_off_skips_the_check(self):
        obs.set_verify(False)
        netlist = small_design()
        snapshot = snapshot_netlist_state(netlist, verify_clock_period=CLOCK_PERIOD)
        assert snapshot.verify_summary is None
        netlist.cells[0].x += 50.0
        restore_netlist_state(netlist, snapshot)  # drift goes unchecked


class TestRunRecords:
    def test_emit_and_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.set_trace_path(path)
        obs.emit("episode", {"episode": 0, "tns": -1.25, "seed": 7})
        obs.emit("episode", {"episode": 1, "tns": -1.0, "seed": 7})
        records = obs.read_records(path)
        assert [r["episode"] for r in records] == [0, 1]
        for record in records:
            assert record["schema"] == obs.SCHEMA
            assert record["kind"] == "episode"
            assert isinstance(record["git_sha"], str)
            assert record["seed"] == 7

    def test_flow_emits_schema_valid_record(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.set_trace_path(path)
        netlist = small_design()
        run_flow(netlist, FlowConfig(clock_period=CLOCK_PERIOD))
        (record,) = obs.read_records(path)
        assert record["kind"] == "flow"
        assert record["endpoints"] > 0
        assert record["final_tns"] <= 0.0
        for phase in ("begin_sta", "skew", "datapath", "final_skew", "final_sta"):
            assert record["phases"][phase] >= 0.0
        assert record["runtime_seconds"] > 0.0

    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.set_trace_path(path)
        obs.emit("flow", {"endpoints": 3})
        obs.emit("flow", {"endpoints": 4})
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_no_sink_means_no_write(self, tmp_path):
        obs.set_trace_path(None)
        obs.emit("flow", {"endpoints": 3})  # must not raise nor write

    def test_truncated_final_line_is_skipped_and_counted(self, tmp_path):
        """A writer killed mid-append leaves a torn last line; readers skip
        it (bumping ``obs.records.truncated``) instead of dying."""
        path = str(tmp_path / "trace.jsonl")
        obs.set_trace_path(path)
        obs.emit("flow", {"endpoints": 3})
        obs.emit("flow", {"endpoints": 4})
        with open(path, "a") as handle:
            handle.write('{"schema": "repro-obs/v2", "kind": "fl')  # no \n
        obs.enable()
        records = obs.read_records(path)
        assert [r["endpoints"] for r in records] == [3, 4]
        assert obs.get_recorder().counters["obs.records.truncated"] == 1

    def test_corrupt_complete_line_still_raises(self, tmp_path):
        """Only the unterminated final line is forgiven — a corrupt line
        *with* a newline means the file is damaged, not in flight."""
        path = str(tmp_path / "trace.jsonl")
        obs.set_trace_path(path)
        obs.emit("flow", {"endpoints": 3})
        with open(path, "a") as handle:
            handle.write("not json at all\n")
        with pytest.raises(ValueError):
            obs.read_records(path)


class TestLogging:
    def test_setup_is_idempotent(self):
        root = obs.setup_logging(1)
        obs.setup_logging(2)
        tagged = [
            h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(tagged) == 1
        assert root.level == logging.DEBUG

    def test_get_logger_namespacing(self):
        assert obs.get_logger().name == "repro"
        assert obs.get_logger("agent").name == "repro.agent"
        assert obs.get_logger("repro.cli").name == "repro.cli"

    def test_verbosity_mapping(self):
        assert obs.verbosity_to_level(0) == logging.WARNING
        assert obs.verbosity_to_level(1) == logging.INFO
        assert obs.verbosity_to_level(5) == logging.DEBUG


class TestBench:
    CONFIG = BenchConfig(seed=0, episodes=2, cells=240)

    def test_bench_schema_and_roundtrip(self, tmp_path):
        payload = run_bench(self.CONFIG)
        assert payload["schema"] == "repro-bench/v1"
        assert payload["design"]["endpoints"] > 0
        assert payload["metrics"]["default_tns"] <= 0.0
        assert payload["total_seconds"] > 0.0
        # The run record only: engine-vs-engine timing lives in perfbench.
        assert not {"sta", "rollout", "policy"} & set(payload)
        assert payload["obs"]["trace_overhead_s"] >= 0.0
        assert "section.obs.trace_overhead" in section_medians(payload)
        for stats in payload["phases"].values():
            assert stats["count"] >= 1
            assert stats["p90_s"] >= stats["median_s"] >= 0.0
        path = str(tmp_path / "BENCH_test.json")
        save_bench(payload, path)
        assert load_bench(path) == payload

    def test_bench_deterministic_modulo_timing(self):
        first = run_bench(self.CONFIG)
        second = run_bench(self.CONFIG)
        assert strip_timing(first) == strip_timing(second)
        # and the timing strip really removed the nondeterministic fields
        assert "total_seconds" not in strip_timing(first)

    def test_compare_flags_only_meaningful_regressions(self):
        baseline = {
            "phases": {
                "slow.phase": {"median_s": 0.010},
                "fast.phase": {"median_s": 1e-6},
                "fine.phase": {"median_s": 0.010},
            }
        }
        candidate = {
            "phases": {
                "slow.phase": {"median_s": 0.020},  # 2x: flagged
                "fast.phase": {"median_s": 1e-3},  # below floor: ignored
                "fine.phase": {"median_s": 0.0105},  # +5%: within tolerance
                "new.phase": {"median_s": 0.5},  # no baseline: ignored
            }
        }
        warnings = compare_bench(baseline, candidate, tolerance=0.2)
        assert len(warnings) == 1
        assert "slow.phase" in warnings[0]

    def test_aggregate_phases_quantiles(self):
        stats = aggregate_phases(
            {"p": {"count": 4, "total": 10.0, "durations": [1.0, 2.0, 3.0, 4.0]}}
        )["p"]
        assert stats["count"] == 4
        assert stats["total_s"] == pytest.approx(10.0)
        assert stats["median_s"] == pytest.approx(2.5)
        assert stats["max_s"] == pytest.approx(4.0)


class TestCliBench:
    def test_cli_bench_writes_and_compares(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "BENCH_smoke.json"
        assert (
            main(
                [
                    "bench",
                    "--out",
                    str(out),
                    "--episodes",
                    "2",
                    "--cells",
                    "240",
                ]
            )
            == 0
        )
        payload = load_bench(str(out))
        assert payload["schema"] == "repro-bench/v1"
        captured = capsys.readouterr()
        assert "phase timings" in captured.out
        # Self-comparison never warns.
        assert (
            main(["bench", "--out", str(out), "--episodes", "2", "--cells", "240",
                  "--compare", str(out), "--tolerance", "1000"])
            == 0
        )
        captured = capsys.readouterr()
        assert "::warning" not in captured.err

    def test_cli_trace_flag_writes_records(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "BENCH_t.json"
        assert (
            main(
                [
                    "--trace",
                    str(trace),
                    "bench",
                    "--out",
                    str(out),
                    "--episodes",
                    "2",
                    "--cells",
                    "240",
                ]
            )
            == 0
        )
        records = obs.read_records(str(trace))
        kinds = {r["kind"] for r in records}
        assert "flow" in kinds and "episode" in kinds
