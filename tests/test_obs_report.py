"""Golden-output tests for ``python -m repro report``."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.obs.history import RunHistory
from repro.obs.report import render_report

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CANNED_TRACE = os.path.join(DATA_DIR, "canned_trace.jsonl")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "report_golden.md")


@pytest.fixture(autouse=True)
def clean_obs():
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


def _golden() -> str:
    with open(GOLDEN) as handle:
        return handle.read()


class TestGoldenReport:
    def test_render_matches_golden(self):
        records = obs.read_records(CANNED_TRACE)
        text = render_report(records, source="canned_trace.jsonl")
        assert text + "\n" == _golden()

    def test_render_is_deterministic(self):
        records = obs.read_records(CANNED_TRACE)
        first = render_report(records, source="canned_trace.jsonl")
        second = render_report(records, source="canned_trace.jsonl")
        assert first == second

    def test_cli_report_matches_golden(self, capsys, tmp_path):
        out = str(tmp_path / "report.md")
        rc = main(["report", CANNED_TRACE, "--out", out])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == _golden()
        with open(out) as handle:
            assert handle.read() == _golden()

    def test_cli_report_missing_trace(self, capsys, tmp_path):
        rc = main(["report", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace")
        assert err.count("\n") == 1  # one line, no traceback

    def test_cli_report_corrupt_trace(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        rc = main(["report", str(bad)])
        assert rc == 2
        assert "error: cannot read trace" in capsys.readouterr().err


    def test_cli_report_history_file_or_bad_path(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_base.json"
        baseline.write_text(json.dumps({
            "schema": "repro-bench/v1",
            "created_at": "2026-01-01T00:00:00Z",
            "phases": {"flow.skew": {"count": 1, "median_s": 0.034}},
        }))
        assert main(["report", CANNED_TRACE, "--history", str(baseline)]) == 0
        assert "history median" in capsys.readouterr().out
        rc = main(["report", CANNED_TRACE, "--history", str(tmp_path / "nope.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load bench history")
        assert err.count("\n") == 1


class TestReportSections:
    def test_empty_trace_renders_placeholder(self):
        text = render_report([], source="empty")
        assert "# repro run report — empty" in text
        assert "(no episode records in this trace)" in text

    def test_history_adds_trend_columns(self):
        records = obs.read_records(CANNED_TRACE)
        payload = {
            "schema": "repro-bench/v1",
            "git_sha": "abc",
            "created_at": "2026-01-01T00:00:00Z",
            "total_seconds": 1.0,
            "phases": {
                # Bench spans are namespaced; the report maps "skew" →
                # "flow.skew" when looking up the baseline.
                "flow.skew": {"count": 4, "median_s": 0.034},
                "flow.begin_sta": {"count": 4, "median_s": 0.001},
            },
        }
        history = RunHistory.from_payloads([payload] * 3)
        text = render_report(records, history=history, source="t")
        assert "history median" in text
        assert "| skew | 1 | 34.000 ms" in text
        assert "ok |" in text
        # begin_sta at 12 ms vs a 1 ms baseline is past the gate's threshold.
        assert "**regressed**" in text
        # Phases with no history row say so instead of guessing.
        assert "no history |" in text

    def test_status_agrees_with_enforced_gate(self):
        # One 10 ms run of history: the gate allows 2.5x, so 10.1 ms is ok
        # in both the report and RunHistory.check.
        payload = {
            "schema": "repro-bench/v1",
            "created_at": "2026-01-01T00:00:00Z",
            "phases": {"flow.skew": {"count": 1, "median_s": 0.010}},
        }
        history = RunHistory.from_payloads([payload])
        flow = {"kind": "flow", "phases": {"skew": 0.0101}}
        assert history.check({"flow.skew": {"median_s": 0.0101}}) == []
        text = render_report([flow], history=history, source="t")
        assert "| skew | 1 | 10.100 ms" in text
        assert "**regressed**" not in text
        # Past the gate's threshold, both flag it.
        slow = {"kind": "flow", "phases": {"skew": 0.030}}
        assert history.check({"flow.skew": {"median_s": 0.030}}) != []
        assert "**regressed**" in render_report([slow], history=history, source="t")
