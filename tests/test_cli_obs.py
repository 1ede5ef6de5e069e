"""CLI-level tests for the observability satellites: bench baseline
handling, the enforced gate, trace-sink precedence, train/report wiring."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.bench import load_bench

# The smallest bench that still runs the default flow and a training update.
FAST_BENCH = ["--episodes", "2", "--cells", "240"]


@pytest.fixture(autouse=True)
def clean_obs(monkeypatch):
    monkeypatch.delenv(obs.ENV_VAR, raising=False)
    was_enabled = obs.enabled()
    prev_trace = obs.trace_path()
    obs.reset()
    yield
    obs.set_trace_path(prev_trace)
    if was_enabled:
        obs.enable()
    else:
        obs.disable()
    obs.reset()


class TestBenchBaselineErrors:
    def test_missing_baseline_is_one_line_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        rc = main(["bench", "--compare", missing, *FAST_BENCH])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot load bench baseline")
        assert captured.err.count("\n") == 1
        # Fails fast: the workload never ran.
        assert "phase timings" not in captured.out

    def test_corrupt_baseline_is_one_line_error(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{truncated")
        rc = main(["bench", "--compare", str(corrupt), *FAST_BENCH])
        assert rc == 2
        assert "error: cannot load bench baseline" in capsys.readouterr().err

    def test_foreign_schema_baseline_rejected(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"schema": "not-a-bench"}))
        rc = main(["bench", "--compare", str(foreign), *FAST_BENCH])
        assert rc == 2
        assert "error: cannot load bench baseline" in capsys.readouterr().err


class TestUpdateBaseline:
    def test_first_refresh_and_provenance_chain(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_baseline.json")
        rc = main(["bench", "--update-baseline", "--out", out, *FAST_BENCH])
        assert rc == 0
        first = load_bench(out)
        prov = first["provenance"]
        assert prov["refreshed_by"] == "python -m repro bench --update-baseline"
        assert prov["refreshed_at"] == first["created_at"]
        assert prov["previous_git_sha"] is None  # nothing superseded yet
        capsys.readouterr()

        rc = main(["bench", "--update-baseline", "--out", out, *FAST_BENCH])
        assert rc == 0
        second = load_bench(out)
        assert second["provenance"]["previous_git_sha"] == first["git_sha"]
        assert second["provenance"]["previous_created_at"] == first["created_at"]


class TestEnforcedGate:
    def test_enforce_needs_a_history_source(self, capsys):
        rc = main(["bench", "--enforce", *FAST_BENCH])
        assert rc == 2
        assert "--enforce needs" in capsys.readouterr().err

    def test_enforce_with_empty_history_is_one_line_error(self, tmp_path, capsys):
        empty = tmp_path / "history"
        empty.mkdir()
        rc = main(["bench", "--history", str(empty), "--enforce", *FAST_BENCH])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --enforce found no BENCH_*.json runs")
        assert captured.err.count("\n") == 1
        # Fails fast: the workload never ran.
        assert "phase timings" not in captured.out

    @pytest.mark.wallclock
    def test_enforce_passes_against_own_baseline(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_a.json")
        assert main(["bench", "--out", out, *FAST_BENCH]) == 0
        capsys.readouterr()
        rc = main(
            ["bench", "--out", str(tmp_path / "BENCH_b.json"),
             "--compare", out, "--enforce", *FAST_BENCH]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "enforced bench gate passed" in captured.err
        assert "::error" not in captured.err

    def test_enforce_fails_on_injected_slowdown(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_a.json")
        assert main(["bench", "--out", out, *FAST_BENCH]) == 0
        capsys.readouterr()
        # Acceptance scenario: make the baseline claim every phase used to
        # run 5x faster, so the (honest) candidate looks 5x regressed.
        payload = load_bench(out)
        for stats in payload["phases"].values():
            stats["median_s"] = stats["median_s"] / 5.0
        doctored = str(tmp_path / "BENCH_fast.json")
        with open(doctored, "w") as handle:
            json.dump(payload, handle)
        rc = main(
            ["bench", "--out", str(tmp_path / "BENCH_b.json"),
             "--compare", doctored, "--enforce", *FAST_BENCH]
        )
        assert rc == 1
        assert "::error ::bench regression:" in capsys.readouterr().err

    @pytest.mark.wallclock
    def test_enforce_with_history_directory(self, tmp_path, capsys):
        history_dir = tmp_path / "history"
        history_dir.mkdir()
        for i in range(3):
            out = str(history_dir / f"BENCH_{i}.json")
            assert main(["bench", "--out", out, *FAST_BENCH]) == 0
        capsys.readouterr()
        rc = main(
            ["bench", "--out", str(tmp_path / "BENCH_new.json"),
             "--history", str(history_dir), "--enforce", *FAST_BENCH]
        )
        assert rc == 0
        assert "against 3 historical runs" in capsys.readouterr().err


class TestTracePrecedence:
    def test_cli_trace_wins_over_env(self, tmp_path, monkeypatch, capsys):
        env_path = str(tmp_path / "env.jsonl")
        cli_path = str(tmp_path / "cli.jsonl")
        monkeypatch.setenv(obs.ENV_VAR, env_path)
        rc = main(["--trace", cli_path, "blocks"])
        assert rc == 0
        assert obs.trace_path() == cli_path
        captured = capsys.readouterr()
        assert "overrides" in captured.err
        assert "CLI flag wins" in captured.err

    def test_no_warning_when_flag_matches_env(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "same.jsonl")
        monkeypatch.setenv(obs.ENV_VAR, path)
        assert main(["--trace", path, "blocks"]) == 0
        assert "overrides" not in capsys.readouterr().err

    def test_env_alone_still_respected(self, tmp_path, monkeypatch):
        env_path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv(obs.ENV_VAR, env_path)
        obs.set_trace_path(env_path)  # what _init_from_env does at import
        assert main(["blocks"]) == 0
        assert obs.trace_path() == env_path


class TestTrainAndProfile:
    def test_train_emits_trace_and_summary(self, tmp_path, capsys):
        trace = str(tmp_path / "train.jsonl")
        rc = main(
            ["--trace", trace, "train", "--episodes", "2", "--cells", "240",
             "--seed", "0"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "best TNS" in captured.out
        assert "episode 0:" in captured.err
        kinds = [r["kind"] for r in obs.read_records(trace)]
        assert "episode" in kinds and "train" in kinds

    def test_profile_without_sink_is_an_error(self, capsys):
        rc = main(["--profile", "blocks"])
        assert rc == 2
        assert "--profile needs a trace sink" in capsys.readouterr().err

    def test_profile_emits_profile_record(self, tmp_path, capsys):
        trace = str(tmp_path / "profiled.jsonl")
        rc = main(
            ["--trace", trace, "--profile", "train", "--episodes", "1",
             "--cells", "240"]
        )
        assert rc == 0
        (profile,) = [
            r for r in obs.read_records(trace) if r["kind"] == "profile"
        ]
        assert profile["command"] == "train"
        assert profile["top_functions"]
        assert profile["memory_peak_kb"] > 0.0


class TestTraceEventsFlag:
    def test_trace_events_without_sink_is_an_error(self, capsys):
        rc = main(["--trace-events", "blocks"])
        assert rc == 2
        assert "--trace-events needs a trace sink" in capsys.readouterr().err

    def test_trace_events_records_spans(self, tmp_path, capsys):
        from repro.obs import tracing

        trace = str(tmp_path / "events.jsonl")
        try:
            rc = main(
                ["--trace", trace, "--trace-events", "train", "--episodes",
                 "1", "--cells", "240"]
            )
        finally:
            tracing.disable()
        assert rc == 0
        spans = [r for r in obs.read_records(trace) if r["kind"] == "span"]
        assert spans
        names = {r["name"] for r in spans}
        assert "flow.run" in names and "agent.rollout" in names
        assert all(r["trace_schema"] == tracing.TRACE_SCHEMA for r in spans)
        # One trace id spans the whole invocation.
        assert len({r["trace_id"] for r in spans}) == 1


class TestTraceSubcommands:
    def _traced_run(self, tmp_path):
        from repro.obs import tracing

        trace = str(tmp_path / "run.jsonl")
        try:
            assert (
                main(
                    ["--trace", trace, "--trace-events", "train",
                     "--episodes", "1", "--cells", "240"]
                )
                == 0
            )
        finally:
            tracing.disable()
        return trace

    def test_export_writes_chrome_json(self, tmp_path, capsys):
        import json as json_module

        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / "run.perfetto.json")
        rc = main(["trace", "export", trace, "--out", out])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        with open(out) as handle:
            doc = json_module.load(handle)
        assert doc["traceEvents"]
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_export_default_output_path(self, tmp_path, capsys):
        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        assert main(["trace", "export", trace]) == 0
        assert f"{trace}.perfetto.json" in capsys.readouterr().out

    def test_export_missing_trace_is_one_line_error(self, tmp_path, capsys):
        rc = main(["trace", "export", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot export trace")
        assert err.count("\n") == 1

    def test_validate_accepts_traced_run(self, tmp_path, capsys):
        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        rc = main(["trace", "validate", trace])
        assert rc == 0
        out = capsys.readouterr().out
        assert "valid" in out and "span=" in out

    def test_validate_rejects_corrupt_payload(self, tmp_path, capsys):
        import json as json_module

        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json_module.dumps(
                {"schema": "repro-obs/v2", "kind": "span", "git_sha": "x"}
            )
            + "\n"
        )
        rc = main(["trace", "validate", str(bad)])
        assert rc == 2
        assert "error: invalid trace" in capsys.readouterr().err


class TestWatchCommand:
    def test_watch_once_prints_progress_lines(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert (
            main(["--trace", trace, "train", "--episodes", "2", "--cells",
                  "240", "--seed", "0"])
            == 0
        )
        capsys.readouterr()
        rc = main(["watch", trace, "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "episode" in out and "train" in out

    def test_watch_spans_mode_prints_span_lines(self, tmp_path, capsys):
        from repro.obs import tracing

        trace = str(tmp_path / "run.jsonl")
        try:
            assert (
                main(["--trace", trace, "--trace-events", "train",
                      "--episodes", "1", "--cells", "240"])
                == 0
            )
        finally:
            tracing.disable()
        capsys.readouterr()
        assert main(["watch", trace, "--once", "--spans"]) == 0
        assert "span     [main]" in capsys.readouterr().out

    def test_watch_invalid_interval_is_an_error(self, capsys):
        rc = main(["watch", "whatever.jsonl", "--once", "--interval", "0"])
        assert rc == 2
        assert "--interval must be positive" in capsys.readouterr().err

    def test_watch_once_on_missing_file_is_quietly_empty(self, tmp_path, capsys):
        rc = main(["watch", str(tmp_path / "nope.jsonl"), "--once"])
        assert rc == 0
        assert capsys.readouterr().out == ""


class TestMetricsPortFlag:
    def test_metrics_port_serves_during_command(self, capsys):
        # ``blocks`` is instant, so probe the endpoint via a patched
        # MetricsServer that records its own URL before the command exits.
        import urllib.request

        from repro.obs import metrics_export

        seen = {}
        original_start = metrics_export.MetricsServer.start.__func__

        def probing_start(cls, port, host="127.0.0.1"):
            server = original_start(cls, port, host)
            with urllib.request.urlopen(server.url) as response:
                seen["body"] = response.read().decode("utf-8")
            return server

        metrics_export.MetricsServer.start = classmethod(probing_start)
        try:
            rc = main(["--metrics-port", "0", "blocks"])
        finally:
            metrics_export.MetricsServer.start = classmethod(original_start)
        assert rc == 0
        assert "repro_build_info" in seen["body"]
