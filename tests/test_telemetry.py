"""Tests for RL training telemetry and the v2 run-record schema."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainConfig, train_rlccd
from repro.ccd.flow import FlowConfig
from repro.features.table1 import NUM_FEATURES
from repro.gnn.epgnn import EPGNN
from repro.netlist.generator import quick_design
from repro.nn.attention import logit_stats
from repro.obs import telemetry
from repro.placement.global_place import place_design

CLOCK_PERIOD = 0.4


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from global recorder/trace state."""
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


def _train_design(seed: int = 3, n_cells: int = 220):
    netlist = quick_design(n_cells=n_cells, seed=seed)
    place_design(netlist)
    return netlist


def _run_training(trace_path: str, episodes: int = 3, seed: int = 0):
    obs.set_trace_path(trace_path)
    netlist = _train_design()
    env = EndpointSelectionEnv(netlist, CLOCK_PERIOD)
    policy = RLCCDPolicy(NUM_FEATURES, rng=seed)
    return train_rlccd(
        policy,
        env,
        FlowConfig(clock_period=CLOCK_PERIOD),
        TrainConfig(max_episodes=episodes, seed=seed),
    )


class TestEpisodeTelemetry:
    def test_for_rollout_none_when_disabled(self):
        obs.disable()
        assert telemetry.for_rollout() is None

    def test_for_rollout_collector_when_enabled(self):
        obs.enable()
        collector = telemetry.for_rollout()
        assert isinstance(collector, telemetry.EpisodeTelemetry)

    def test_summary_aggregates_steps(self):
        collector = telemetry.EpisodeTelemetry()
        collector.record_step(
            endpoint=7, step=0, masked_after=2, entropy=1.5,
            logit_min=-0.5, logit_max=0.5, top_prob=0.4, concentration=0.3,
        )
        collector.record_step(
            endpoint=9, step=1, masked_after=5, entropy=0.5,
            logit_min=-1.0, logit_max=0.2, top_prob=0.8, concentration=0.7,
        )
        summary = collector.summary()
        assert summary["num_steps"] == 2
        assert summary["entropy_mean"] == pytest.approx(1.0)
        assert summary["entropy_first"] == pytest.approx(1.5)
        assert summary["entropy_last"] == pytest.approx(0.5)
        assert summary["logit_min"] == pytest.approx(-1.0)
        assert summary["logit_max"] == pytest.approx(0.5)
        assert summary["masked_total"] == 5

    def test_empty_summary_is_safe(self):
        summary = telemetry.EpisodeTelemetry().summary()
        assert summary["num_steps"] == 0
        assert summary["entropy_mean"] is None

    def test_episode_payload_nests_everything(self):
        collector = telemetry.EpisodeTelemetry()
        collector.record_step(
            endpoint=3, step=0, masked_after=1, entropy=1.0,
            logit_min=0.0, logit_max=1.0, top_prob=0.5, concentration=0.4,
        )
        payload = telemetry.episode_payload(
            {"episode": 0, "tns": -1.0},
            collector,
            baseline={"mean": -1.0, "std": 1.0, "count": 1},
            selection_frequency={12: 2, 3: 1},
            gnn_gamma=[0.5, 0.6],
        )
        assert payload["episode"] == 0
        tele = payload["telemetry"]
        assert tele["steps"][0]["endpoint"] == 3
        assert tele["baseline"]["count"] == 1
        # Keys are stringified deterministically.
        assert tele["selection_frequency"] == {"3": 1, "12": 2}
        assert tele["gnn_gamma"] == [0.5, 0.6]

    def test_episode_payload_without_collector(self):
        payload = telemetry.episode_payload({"episode": 1}, None)
        assert payload["telemetry"] is None


class TestLogitStats:
    def test_stats_over_valid_positions_only(self):
        scores = np.array([0.0, 5.0, -3.0, 1.0])
        valid = np.array([True, False, True, True])
        stats = logit_stats(scores, valid)
        assert stats["logit_min"] == pytest.approx(-3.0)
        assert stats["logit_max"] == pytest.approx(1.0)  # 5.0 is masked
        assert 0.0 < stats["top_prob"] <= 1.0
        assert 0.0 < stats["concentration"] <= 1.0

    def test_uniform_concentration_is_one_over_k(self):
        scores = np.zeros(4)
        valid = np.ones(4, dtype=bool)
        stats = logit_stats(scores, valid)
        assert stats["concentration"] == pytest.approx(0.25)
        assert stats["top_prob"] == pytest.approx(0.25)

    def test_requires_a_valid_position(self):
        with pytest.raises(ValueError):
            logit_stats(np.zeros(3), np.zeros(3, dtype=bool))

    def test_accepts_precomputed_probabilities(self):
        scores = np.array([1.0, 2.0, 3.0])
        valid = np.ones(3, dtype=bool)
        exp = np.exp(scores - scores.max())
        probs = exp / exp.sum()
        direct = logit_stats(scores, valid)
        reused = logit_stats(scores, valid, probs)
        assert direct == pytest.approx(reused)


class TestGammaValues:
    def test_one_gamma_per_layer_in_open_interval(self):
        gnn = EPGNN(NUM_FEATURES, rng=0)
        gammas = gnn.gamma_values()
        assert len(gammas) == len(gnn.layers)
        for gamma in gammas:
            assert 0.0 < gamma < 1.0


class TestTelemetryRecords:
    def test_episode_records_carry_full_telemetry(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        _run_training(path)
        episodes = [r for r in obs.read_records(path) if r["kind"] == "episode"]
        assert episodes
        for record in episodes:
            tele = record["telemetry"]
            assert tele["num_steps"] == record["num_selected"]
            assert len(tele["steps"]) == tele["num_steps"]
            assert tele["grad_norm_postclip"] <= tele["grad_norm_preclip"] + 1e-12
            assert tele["baseline"]["count"] == record["episode"] + 1
            assert tele["gnn_gamma"] and all(0 < g < 1 for g in tele["gnn_gamma"])
            for step in tele["steps"]:
                assert step["logit_min"] <= step["logit_max"]
                assert 0.0 <= step["top_prob"] <= 1.0
                assert step["entropy"] >= 0.0
        # Selection frequency accumulates across episodes.
        last = episodes[-1]["telemetry"]["selection_frequency"]
        assert sum(last.values()) == sum(r["num_selected"] for r in episodes)

    def test_train_summary_record_emitted(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        result = _run_training(path)
        (train,) = [r for r in obs.read_records(path) if r["kind"] == "train"]
        assert train["episodes_run"] == result.episodes_run
        assert train["best_tns"] == pytest.approx(result.best_tns)
        assert train["best_selection"] == result.best_selection

    def test_rollout_without_obs_collects_nothing(self):
        obs.disable()
        netlist = _train_design()
        env = EndpointSelectionEnv(netlist, CLOCK_PERIOD)
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        trajectory = policy.rollout(env, rng=0, max_steps=3)
        assert trajectory.telemetry is None

    def test_determinism_fixed_seed_identical_episode_records(self, tmp_path):
        """Acceptance: same seed → byte-identical episode records (they
        contain no wall-clock fields at all, so no stripping is needed)."""
        lines = []
        for name in ("a.jsonl", "b.jsonl"):
            path = str(tmp_path / name)
            _run_training(path, episodes=3, seed=0)
            with open(path) as handle:
                lines.append(
                    [
                        line
                        for line in handle
                        if json.loads(line)["kind"] == "episode"
                    ]
                )
        assert lines[0] == lines[1]
        assert lines[0]  # the comparison was not vacuous


class TestSchemaV2:
    def test_emitted_records_are_v2(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.set_trace_path(path)
        obs.emit("episode", {"episode": 0})
        (record,) = obs.read_records(path)
        assert record["schema"] == "repro-obs/v2"

    def test_unknown_schema_rejected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"schema": "repro-obs/v99"}) + "\n")
        with pytest.raises(ValueError, match="v99"):
            obs.read_records(path)

    def test_other_schema_rejected_with_line(self, tmp_path):
        path = str(tmp_path / "old.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"schema": "repro-obs/v2", "kind": "flow"}) + "\n")
            handle.write(json.dumps({"schema": "repro-obs/v1", "kind": "flow"}) + "\n")
        with pytest.raises(ValueError, match=r"repro-obs/v1.*old\.jsonl:2"):
            obs.read_records(path)
