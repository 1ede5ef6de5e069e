"""Tests for event-level tracing: the tracer itself, the worker-to-parent
record channel, cross-process span correlation through the rollout pool
(fork and spawn, including across retry/respawn), the Chrome trace-event exporter, the trace schema
validator, and the live watch follower."""

from __future__ import annotations

import json
import os
import pickle
from collections import Counter

import pytest

from repro import obs
from repro.agent import parallel
from repro.agent.baselines import select_worst_slack
from repro.agent.env import EndpointSelectionEnv
from repro.agent.parallel import (
    START_METHOD_ENV_VAR,
    RolloutPool,
    _task_message,
    evaluate_selections,
    fork_available,
)
from repro.ccd.flow import FlowConfig
from repro.obs import records, tracing
from repro.obs.trace_export import chrome_trace, export_file
from repro.obs.trace_schema import validate_record, validate_trace
from repro.obs.watch import (
    RecordFollower,
    follow_records,
    render_span_line,
    render_watch_line,
)

START_METHODS = (["fork"] if fork_available() else []) + ["spawn"]


@pytest.fixture(autouse=True)
def clean_tracing(monkeypatch):
    """Isolate every test from global recorder/sink/tracer state."""
    monkeypatch.delenv(obs.ENV_VAR, raising=False)
    was_enabled = obs.enabled()
    prev_trace = obs.trace_path()
    obs.reset()
    yield
    tracing.disable()
    obs.set_trace_path(prev_trace)
    if was_enabled:
        obs.enable()
    else:
        obs.disable()
    obs.reset()


@pytest.fixture
def sink(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    obs.set_trace_path(path)
    return path


def _spans(path):
    if not os.path.exists(path):
        return []
    return [r for r in obs.read_records(path) if r["kind"] == "span"]


class TestTracer:
    def test_disabled_by_default(self, sink):
        assert not tracing.enabled()
        assert tracing.current_span_id() is None
        tracing.instant("unit.ignored")  # no-op, must not raise
        obs.enable()
        with obs.span("unit.phase"):
            pass
        assert _spans(sink) == []

    def test_span_records_reach_the_sink(self, sink):
        tracing.enable(trace_id="t-unit")
        with obs.span("unit.outer", attrs={"episode": 3}):
            with obs.span("unit.inner"):
                pass
        inner, outer = sorted(_spans(sink), key=lambda r: r["name"])
        assert outer["name"] == "unit.outer"
        assert outer["parent_id"] is None
        assert outer["attrs"] == {"episode": 3}
        assert inner["parent_id"] == outer["span_id"]
        assert inner["span_id"] != outer["span_id"]
        for record in (inner, outer):
            assert record["schema"] == obs.SCHEMA  # envelope unchanged
            assert record["trace_schema"] == tracing.TRACE_SCHEMA
            assert record["trace_id"] == "t-unit"
            assert record["pid"] == os.getpid()
            assert record["worker"] is None
            assert record["ph"] == "X"
            assert record["dur"] >= 0.0
        # The inner span closed first, and ran within the outer window.
        assert inner["ts"] >= outer["ts"]
        assert inner["dur"] <= outer["dur"]

    def test_span_ids_are_pid_prefixed_and_unique(self, sink):
        tracing.enable()
        with obs.span("unit.a"):
            pass
        with obs.span("unit.b"):
            pass
        ids = [r["span_id"] for r in _spans(sink)]
        assert len(set(ids)) == 2
        prefix = f"{os.getpid():x}-"
        assert all(span_id.startswith(prefix) for span_id in ids)

    def test_instant_parents_under_open_span(self, sink):
        tracing.enable()
        with obs.span("unit.outer"):
            tracing.instant("unit.mark", {"task_id": 7})
        mark = next(r for r in _spans(sink) if r["name"] == "unit.mark")
        outer = next(r for r in _spans(sink) if r["name"] == "unit.outer")
        assert mark["ph"] == "i"
        assert mark["dur"] == 0.0
        assert mark["parent_id"] == outer["span_id"]
        assert mark["attrs"] == {"task_id": 7}

    def test_explicit_trace_parent_overrides_stack(self, sink):
        tracing.enable()
        with obs.span("unit.outer"):
            with obs.span("unit.reparented", trace_parent="remote-1"):
                pass
        reparented = next(
            r for r in _spans(sink) if r["name"] == "unit.reparented"
        )
        assert reparented["parent_id"] == "remote-1"

    def test_current_span_id_tracks_stack(self, sink):
        tracing.enable()
        assert tracing.current_span_id() is None
        with obs.span("unit.outer"):
            outer_id = tracing.current_span_id()
            assert outer_id is not None
            with obs.span("unit.inner"):
                assert tracing.current_span_id() != outer_id
            assert tracing.current_span_id() == outer_id
        assert tracing.current_span_id() is None

    def test_span_closed_by_exception_emits_and_pops(self, sink):
        tracing.enable()
        with obs.span("unit.outer"):
            with pytest.raises(RuntimeError):
                with obs.span("unit.failed"):
                    raise RuntimeError("boom")
            with obs.span("unit.next"):
                pass
        by_name = {r["name"]: r for r in _spans(sink)}
        outer_id = by_name["unit.outer"]["span_id"]
        assert by_name["unit.failed"]["parent_id"] == outer_id
        assert by_name["unit.next"]["parent_id"] == outer_id
        assert tracing.current_span_id() is None

    def test_buffered_mode_ships_and_ingests(self, sink):
        """Worker side of the record channel: every kind is buffered."""
        records.buffer_records(True)
        tracing.enable("t-buffered", worker=3)
        with obs.span("unit.work"):
            pass
        obs.emit("flow", {"endpoints": 3})
        assert records.tracing()
        assert not os.path.exists(sink)  # buffered: nothing hit the file
        items = records.drain()
        assert [kind for kind, _ in items] == ["span", "flow"]
        assert records.drain() == []  # drained exactly once
        obs.set_trace_path(sink)  # the parent's side of the channel
        records.ingest(items)
        span, flow = obs.read_records(sink)
        assert span["kind"] == "span" and flow["kind"] == "flow"
        assert span["worker"] == 3
        assert span["trace_id"] == "t-buffered"
        assert span["pid"] == os.getpid()
        assert flow["endpoints"] == 3
        for record in (span, flow):  # the envelope is stamped on ingest
            assert record["schema"] == obs.SCHEMA
            assert record["git_sha"] == obs.git_sha()

    def test_ingest_none_and_empty_are_noops(self, sink):
        records.ingest(None)
        records.ingest([])
        assert not os.path.exists(sink)  # nothing was ever written

    def test_buffer_off_drops_records_and_leaves_no_sink(self, sink):
        records.buffer_records(False)
        assert not records.tracing()
        assert records.trace_path() is None
        obs.emit("flow", {"endpoints": 3})
        assert records.drain() == []
        assert not os.path.exists(sink)

    def test_worker_context_round_trip(self, sink):
        assert tracing.worker_context(0) is None  # off → no payload cost
        tracing.enable(trace_id="t-ctx")
        assert tracing.worker_context(2) == {"trace_id": "t-ctx", "worker": 2}


@pytest.mark.parametrize("sink_from", ["set_trace_path", "env"])
@pytest.mark.parametrize("method", START_METHODS)
def test_pooled_training_records_match_across_start_methods(
    tmp_path, monkeypatch, method, sink_from
):
    """A traced 2-worker training run writes one ``flow`` record per flow
    run (each reward-cache miss) plus the best-flow replay, and none for
    the workers' warm-up flows,
    whichever start method runs the workers and however the sink was set;
    its ``rollout`` record counts episodes and updates, and every worker
    task span has a parent in the training process."""
    from repro.cli import main

    path = str(tmp_path / "trace.jsonl")
    monkeypatch.setenv(START_METHOD_ENV_VAR, method)
    argv = ["--trace-events", "train", "--workers", "2", "--episodes", "4",
            "--cells", "240"]
    if sink_from == "env":
        # What ``import repro`` does with REPRO_OBS set; spawned workers
        # re-read the variable at their own import.
        monkeypatch.setenv(obs.ENV_VAR, path)
        obs.set_trace_path(path)
    else:
        argv = ["--trace", path] + argv
    assert main(argv) == 0
    trace = obs.read_records(path)
    (rollout,) = [r for r in trace if r["kind"] == "rollout"]
    assert rollout["start_method"] == method
    assert rollout["tasks"] == 4
    assert rollout["batches"] == 2  # updates, not evaluate calls
    flows = rollout["cache_misses"]
    assert flows >= 1
    kinds = Counter(r["kind"] for r in trace if r["kind"] != "span")
    assert kinds == {"episode": 4, "flow": flows + 1, "rollout": 1, "train": 1}
    assert all(r["prioritized"] > 0 for r in trace if r["kind"] == "flow")
    spans = Counter(r["name"] for r in trace if r["kind"] == "span")
    assert spans["rollout.task"] == flows
    assert spans["flow.run"] == flows + 1
    # Every task was dispatched under an open span of the training process.
    parent_side = {
        r["span_id"] for r in trace if r["kind"] == "span" and r["worker"] is None
    }
    task_parents = [
        r["parent_id"] for r in trace
        if r["kind"] == "span" and r["name"] == "rollout.task"
    ]
    assert task_parents and all(p in parent_side for p in task_parents)


@pytest.fixture
def pool_context(small_design):
    nl, period = small_design
    env = EndpointSelectionEnv(nl, period)
    config = FlowConfig(clock_period=period)
    selections = [select_worst_slack(env, k) for k in (1, 2, 3, 4)]
    return nl, config, selections


@pytest.mark.parametrize("method", START_METHODS)
class TestCrossProcessCorrelation:
    def test_worker_spans_parent_under_submitting_evaluate(
        self, pool_context, sink, method
    ):
        """The acceptance path: pooled evaluation with tracing on yields
        worker-side ``rollout.task`` spans whose parent ids resolve to the
        submitting ``rollout.evaluate`` span — for fork and spawn alike."""
        nl, config, selections = pool_context
        tracing.enable()
        with RolloutPool(
            nl, config, workers=2, start_method=method
        ) as pool:
            rewards = pool.evaluate(selections)
        assert len(rewards) == len(selections)
        spans = _spans(sink)
        by_id = {r["span_id"]: r for r in spans}
        evaluates = [r for r in spans if r["name"] == "rollout.evaluate"]
        tasks = [r for r in spans if r["name"] == "rollout.task"]
        assert len(evaluates) == 1
        assert len(tasks) == len(selections)
        parent_pid = os.getpid()
        for task in tasks:
            assert task["worker"] in (0, 1)
            assert task["pid"] != parent_pid
            assert task["parent_id"] == evaluates[0]["span_id"]
        # Worker-side flow spans nest under their rollout.task span.
        worker_flows = [
            r for r in spans if r["name"] == "flow.run" and r["worker"] is not None
        ]
        assert worker_flows
        for flow in worker_flows:
            assert by_id[flow["parent_id"]]["name"] == "rollout.task"
        # Submit instants landed under the evaluate span too.
        submits = [r for r in spans if r["name"] == "rollout.submit"]
        assert len(submits) == len(selections)
        assert all(s["parent_id"] == evaluates[0]["span_id"] for s in submits)

    def test_correlation_survives_retry_and_respawn(
        self, pool_context, sink, method, monkeypatch
    ):
        """A worker crash mid-task forces a respawn and a retry; the retried
        task's span must still resolve to the submitting evaluate span."""
        nl, config, selections = pool_context
        monkeypatch.setattr(parallel, "HEARTBEAT_TIMEOUT", 1.0)
        monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.01)
        tracing.enable()
        with RolloutPool(
            nl,
            config,
            workers=2,
            start_method=method,
            fault_spec={(0, 0): "crash"},
            task_timeout=2.0,
        ) as pool:
            rewards = pool.evaluate(selections)
            stats = pool.stats()
        assert len(rewards) == len(selections)
        assert stats["worker_restarts"] >= 1
        spans = _spans(sink)
        evaluates = [r for r in spans if r["name"] == "rollout.evaluate"]
        assert len(evaluates) == 1
        retried = [
            r
            for r in spans
            if r["name"] == "rollout.task" and r["attrs"].get("attempt", 0) > 0
        ]
        assert retried  # the crashed task really was retried in a worker
        for task in retried:
            assert task["parent_id"] == evaluates[0]["span_id"]
        respawns = [r for r in spans if r["name"] == "rollout.respawn"]
        retries = [r for r in spans if r["name"] == "rollout.retry"]
        assert respawns and retries

    def test_rewards_identical_with_tracing_on(self, pool_context, sink, method):
        nl, config, selections = pool_context
        sequential = evaluate_selections(nl, config, selections)
        tracing.enable()
        with RolloutPool(nl, config, workers=2, start_method=method) as pool:
            traced = pool.evaluate(selections)
        assert pickle.dumps(traced) == pickle.dumps(sequential)


class TestTaskMessageCompat:
    def test_default_trace_parent_keeps_payload_small(self, small_design):
        nl, period = small_design
        env = EndpointSelectionEnv(nl, period)
        selection = select_worst_slack(env, 8)
        payload = pickle.dumps(_task_message(7, 0, selection))
        with_parent = pickle.dumps(
            _task_message(7, 0, selection, trace_parent="abcd-12")
        )
        assert len(payload) < 512
        assert len(with_parent) - len(payload) < 64


class TestChromeTraceExport:
    def _canned_spans(self):
        return [
            {
                "kind": "span", "name": "rollout.evaluate", "span_id": "a-1",
                "parent_id": None, "ph": "X", "ts": 100.0, "dur": 0.05,
                "attrs": {"tasks": 2}, "trace_schema": tracing.TRACE_SCHEMA,
                "trace_id": "t", "pid": 10, "worker": None,
            },
            {
                "kind": "span", "name": "rollout.submit", "span_id": "a-2",
                "parent_id": "a-1", "ph": "i", "ts": 100.001, "dur": 0.0,
                "attrs": {}, "trace_schema": tracing.TRACE_SCHEMA,
                "trace_id": "t", "pid": 10, "worker": None,
            },
            {
                "kind": "span", "name": "rollout.task", "span_id": "b-1",
                "parent_id": "a-1", "ph": "X", "ts": 100.002, "dur": 0.03,
                "attrs": {"task_id": 0}, "trace_schema": tracing.TRACE_SCHEMA,
                "trace_id": "t", "pid": 11, "worker": 0,
            },
            {"kind": "episode", "episode": 0},  # non-span records are skipped
        ]

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self._canned_spans())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        process_names = {
            (e["pid"], e["args"]["name"])
            for e in meta
            if e["name"] == "process_name"
        }
        assert (10, "repro main") in process_names
        assert (11, "repro worker 0") in process_names
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"rollout.evaluate", "rollout.task"}
        task = next(e for e in complete if e["name"] == "rollout.task")
        assert task["pid"] == 11
        assert task["tid"] == 1  # worker 0 → track 1 (main is track 0)
        assert task["ts"] == pytest.approx(100.002 * 1e6)
        assert task["dur"] == pytest.approx(0.03 * 1e6)
        assert task["args"]["parent_id"] == "a-1"
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_export_file_round_trip(self, tmp_path, sink):
        tracing.enable()
        with obs.span("unit.outer"):
            tracing.instant("unit.mark")
        out = str(tmp_path / "out.perfetto.json")
        summary = export_file(sink, out)
        assert summary == {"spans": 1, "instants": 1, "processes": 1}
        with open(out) as handle:
            doc = json.load(handle)
        assert any(e["name"] == "unit.outer" for e in doc["traceEvents"])


class TestTraceSchema:
    def _valid_span(self):
        return {
            "schema": obs.SCHEMA, "kind": "span", "git_sha": "abc",
            "name": "unit.x", "span_id": "a-1", "parent_id": None,
            "ph": "X", "ts": 1.0, "dur": 0.5, "attrs": {"k": 1},
            "trace_schema": tracing.TRACE_SCHEMA, "trace_id": "t",
            "pid": 10, "worker": None,
        }

    def test_valid_span_passes(self):
        assert validate_record(self._valid_span(), "line 1") == "span"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"trace_schema": "repro-trace/v999"},
            {"name": ""},
            {"span_id": None},
            {"ph": "Q"},
            {"dur": -1.0},
            {"pid": "ten"},
            {"attrs": [1, 2]},
            {"kind": "mystery"},
        ],
    )
    def test_violations_fail_with_location(self, mutation):
        record = {**self._valid_span(), **mutation}
        with pytest.raises(ValueError, match="line 7"):
            validate_record(record, "line 7")

    def test_instants_must_have_zero_duration(self):
        record = {**self._valid_span(), "ph": "i", "dur": 0.5}
        with pytest.raises(ValueError):
            validate_record(record, "line 1")

    def test_validate_trace_counts_by_kind(self, sink):
        tracing.enable()
        with obs.span("unit.a"):
            pass
        obs.emit("flow", {
            "endpoints": 3, "prioritized": 1, "runtime_seconds": 0.1,
            "phases": {"skew": 0.05},
        })
        counts = validate_trace(sink)
        assert counts == {"span": 1, "flow": 1}

    def test_validate_canned_trace(self):
        canned = os.path.join(os.path.dirname(__file__), "data", "canned_trace.jsonl")
        counts = validate_trace(canned)
        assert counts["span"] == 5
        assert counts["episode"] == 4


class TestWatch:
    def test_follower_skips_partial_trailing_line(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        follower = RecordFollower(path)
        assert list(follower.poll()) == []  # missing file: no records yet
        whole = json.dumps(
            {"schema": obs.SCHEMA, "kind": "flow", "git_sha": "a", "endpoints": 3}
        )
        with open(path, "w") as handle:
            handle.write(whole + "\n")
            handle.write('{"schema": "repro-obs/v2", "kind": "fl')  # torn
        (record,) = follower.poll()
        assert record["kind"] == "flow"
        with open(path, "a") as handle:
            handle.write('ow", "git_sha": "a", "endpoints": 4}\n')
        (second,) = follower.poll()
        assert second["endpoints"] == 4

    def test_follower_skips_other_schemas(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        with open(path, "w") as handle:
            for schema in ("repro-obs/v1", obs.SCHEMA):
                handle.write(json.dumps(
                    {"schema": schema, "kind": "flow", "git_sha": "a", "endpoints": 1}
                ) + "\n")
        (record,) = RecordFollower(path).poll()
        assert record["schema"] == obs.SCHEMA

    def test_follower_resets_on_truncation(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        line = json.dumps(
            {"schema": obs.SCHEMA, "kind": "flow", "git_sha": "a", "endpoints": 1}
        )
        with open(path, "w") as handle:
            handle.write((line + "\n") * 3)
        follower = RecordFollower(path)
        assert len(list(follower.poll())) == 3
        with open(path, "w") as handle:  # a restarted run recreated the file
            handle.write(line + "\n")
        assert len(list(follower.poll())) == 1

    def test_follow_records_once_drains_existing(self, sink):
        obs.emit("flow", {"endpoints": 3})
        obs.emit("flow", {"endpoints": 4})
        records = list(follow_records(sink, once=True))
        assert [r["endpoints"] for r in records] == [3, 4]

    def test_render_lines_by_kind(self):
        episode = {
            "kind": "episode", "episode": 7, "tns": -1.5, "wns": -0.2,
            "nve": 3, "num_selected": 4, "advantage": 0.25,
            "telemetry": {"entropy_mean": 1.5},
        }
        line = render_watch_line(episode)
        assert "episode" in line and "tns=-1.500" in line and "entropy=1.500" in line
        span = {"kind": "span", "name": "flow.run", "ph": "X", "dur": 0.0123,
                "worker": None}
        assert render_watch_line(span) is None  # quiet unless --spans
        assert render_span_line(span) == "span     [main] flow.run 12.30 ms"
        instant = {"kind": "span", "name": "rollout.submit", "ph": "i",
                   "dur": 0.0, "worker": 1}
        assert render_span_line(instant) == "span     [w1] * rollout.submit"
        assert render_span_line(episode) is None
