"""Tests for the run-history store and its enforced regression gate."""

from __future__ import annotations

import json

import pytest

from repro.obs import history as history_module
from repro.obs.bench import BENCH_SCHEMA
from repro.obs.history import (
    FALLBACK_TOLERANCE,
    BenchRun,
    PhaseBaseline,
    Regression,
    RunHistory,
    mad,
    median,
)


def _payload(median_s, created_at="2026-01-01T00:00:00Z", sha="abc", seed=0):
    return {
        "schema": BENCH_SCHEMA,
        "git_sha": sha,
        "seed": seed,
        "created_at": created_at,
        "total_seconds": 1.0,
        "phases": {
            name: {"count": 3, "median_s": value, "mad_s": 0.0}
            for name, value in median_s.items()
        },
    }


def _history(medians_per_run):
    payloads = [
        _payload(medians, created_at=f"2026-01-0{i + 1}T00:00:00Z")
        for i, medians in enumerate(medians_per_run)
    ]
    return RunHistory.from_payloads(payloads)


class TestRobustStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad_is_robust_to_one_outlier(self):
        assert mad([1.0, 1.0, 1.0, 100.0]) == 0.0
        assert mad([1.0, 2.0, 3.0]) == 1.0


class TestRunHistoryIndex:
    def test_benches_sorted_oldest_first(self):
        payloads = [
            _payload({"a": 1.0}, created_at="2026-02-01T00:00:00Z"),
            _payload({"a": 1.0}, created_at="2026-01-01T00:00:00Z"),
        ]
        history = RunHistory.from_payloads(payloads, ["new.json", "old.json"])
        assert [run.path for run in history.benches] == ["old.json", "new.json"]

    def test_from_payload_extracts_phase_medians(self):
        run = BenchRun.from_payload(_payload({"flow.sta": 0.25}), "x.json")
        assert run.phase_medians == {"flow.sta": 0.25}
        assert run.git_sha == "abc"
        assert run.seed == 0

    def test_scan_indexes_benches_and_ignores_traces(self, tmp_path):
        for i in range(2):
            (tmp_path / f"BENCH_{i}.json").write_text(
                json.dumps(_payload({"a": 0.1}, created_at=f"2026-01-0{i + 1}T00:00:00Z"))
            )
        trace = tmp_path / "runs" / "trace.jsonl"
        trace.parent.mkdir()
        records = [
            {"schema": "repro-obs/v2", "kind": "episode", "git_sha": "abc",
             "seed": 0, "episode": 0},
            {"schema": "repro-obs/v2", "kind": "flow", "git_sha": "abc"},
        ]
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        history = RunHistory.scan(str(tmp_path))
        assert len(history) == 2
        assert all(run.path.endswith(".json") for run in history.benches)

    def test_scan_skips_foreign_and_corrupt_files(self, tmp_path):
        (tmp_path / "other.json").write_text('{"schema": "something-else"}')
        (tmp_path / "corrupt.json").write_text("{nope")
        (tmp_path / "corrupt.jsonl").write_text("not json\n")
        history = RunHistory.scan(str(tmp_path))
        assert len(history) == 0

    def test_scan_file_is_a_one_run_history(self, tmp_path):
        path = tmp_path / "BENCH_baseline.json"
        path.write_text(json.dumps(_payload({"a": 0.1})))
        history = RunHistory.scan(str(path))
        (run,) = history.benches
        assert run.path == str(path)
        assert run.phase_medians == {"a": 0.1}

    @pytest.mark.parametrize(
        "content", [None, "{nope", '{"schema": "something-else"}']
    )
    def test_scan_file_raises_on_bad_input(self, tmp_path, content):
        path = tmp_path / "BENCH_bad.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises((OSError, ValueError)):
            RunHistory.scan(str(path))


class TestPhaseBaselines:
    def test_median_and_mad_over_runs(self):
        history = _history([{"a": 1.0}, {"a": 2.0}, {"a": 3.0}])
        baseline = history.phase_baselines()["a"]
        assert baseline == PhaseBaseline(median_s=2.0, mad_s=1.0, runs=3)

    def test_last_n_window(self, monkeypatch):
        monkeypatch.setattr(history_module, "HISTORY_WINDOW", 5)
        history = _history([{"a": 100.0}] + [{"a": 1.0}] * 5)
        baseline = history.phase_baselines()["a"]
        assert baseline.median_s == 1.0
        assert baseline.runs == 5

    def test_new_phase_counts_only_where_recorded(self):
        history = _history([{"a": 1.0}, {"a": 1.0, "b": 5.0}])
        baselines = history.phase_baselines()
        assert baselines["a"].runs == 2
        assert baselines["b"].runs == 1


class TestEnforcedCheck:
    def test_identical_candidate_passes(self):
        history = _history([{"a": 0.1}] * 4)
        assert history.check({"a": {"median_s": 0.1}}) == []

    def test_five_x_slowdown_fails_even_on_thin_history(self):
        # CI's realistic worst case: only the committed baseline exists.
        history = _history([{"a": 0.1}])
        (failure,) = history.check({"a": {"median_s": 0.5}})
        assert isinstance(failure, Regression)
        assert failure.phase == "a"
        assert failure.threshold_s == pytest.approx(0.1 * (1 + FALLBACK_TOLERANCE))
        assert "exceeds threshold" in failure.message()

    def test_thin_history_tolerates_double(self):
        history = _history([{"a": 0.1}])
        assert history.check({"a": {"median_s": 0.2}}) == []

    def test_mad_regime_flags_beyond_noise(self):
        # Tight history (MAD small) → noise floor 0.5·median dominates.
        history = _history([{"a": 0.100}, {"a": 0.101}, {"a": 0.102}])
        assert history.check({"a": {"median_s": 0.14}}) == []  # within floor
        (failure,) = history.check({"a": {"median_s": 0.2}})
        assert failure.runs == 3

    def test_wide_mad_raises_threshold(self):
        # Noisy history: 3×MAD above median must pass.
        history = _history([{"a": 0.1}, {"a": 0.2}, {"a": 0.3}])
        assert history.check({"a": {"median_s": 0.45}}) == []
        assert history.check({"a": {"median_s": 0.55}}) != []

    def test_sub_floor_phases_skipped(self):
        history = _history([{"fast": 1e-6}] * 4)
        assert history.check({"fast": {"median_s": 1.0}}) == []

    def test_sub_ms_phases_get_absolute_grace(self):
        # A 0.5 ms phase doubling is one scheduler preemption, not a
        # regression: the absolute 1 ms grace keeps it green in both the
        # MAD and the thin-history regimes.
        history = _history([{"a": 0.0005}] * 3)
        assert history.check({"a": {"median_s": 0.0014}}) == []
        assert history.check({"a": {"median_s": 0.0016}}) != []
        thin = _history([{"a": 0.0005}])
        assert thin.check({"a": {"median_s": 0.0014}}) == []
        assert thin.check({"a": {"median_s": 0.0016}}) != []

    def test_unknown_phase_skipped(self):
        history = _history([{"a": 0.1}] * 4)
        assert history.check({"brand_new": {"median_s": 10.0}}) == []

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            _history([{"a": 0.1}]).check({}, k=0.0)
