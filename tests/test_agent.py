"""Tests for the selection environment, policy, baselines, REINFORCE trainer
and transfer learning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agent.baselines import (
    select_greedy_overlap,
    select_none,
    select_random,
    select_worst_slack,
)
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy, _masked_probabilities
from repro.agent.reinforce import TrainConfig, _RunningNorm, train_rlccd
from repro.agent.transfer import (
    load_pretrained_epgnn,
    save_pretrained_epgnn,
    transfer_epgnn,
)
from repro.ccd.flow import FlowConfig
from repro.features.table1 import NUM_FEATURES
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer


@pytest.fixture
def env(small_design):
    nl, period = small_design
    return EndpointSelectionEnv(nl, period, rho=0.3)


class TestEnv:
    def test_endpoints_are_violating_and_sorted(self, env, small_design):
        nl, period = small_design
        analyzer = TimingAnalyzer(nl)
        rep = analyzer.analyze(ClockModel.for_netlist(nl, period))
        slacks = [rep.endpoint_slack(e) for e in env.endpoints]
        assert all(s < 0 for s in slacks)
        assert slacks == sorted(slacks)

    def test_no_violations_raises(self, small_design):
        nl, period = small_design
        with pytest.raises(ValueError, match="no violating endpoints"):
            EndpointSelectionEnv(nl, period * 10)

    def test_bad_rho_raises(self, small_design):
        nl, period = small_design
        with pytest.raises(ValueError):
            EndpointSelectionEnv(nl, period, rho=2.0)

    def test_reset_clears_state(self, env):
        env.reset()
        env.step(0)
        state = env.reset()
        assert state.valid.all()
        assert state.selected == []
        assert state.masked == set()

    def test_step_marks_selected_and_masks(self, env):
        state = env.reset()
        state = env.step(0)
        assert not state.valid[0]
        assert state.selected == [0]
        for p in state.masked:
            assert not state.valid[p]

    def test_step_invalid_position_raises(self, env):
        env.reset()
        env.step(0)
        with pytest.raises(ValueError):
            env.step(0)
        with pytest.raises(IndexError):
            env.step(10**6)

    def test_step_before_reset_raises(self, small_design):
        nl, period = small_design
        fresh = EndpointSelectionEnv(nl, period)
        with pytest.raises(RuntimeError):
            fresh.step(0)
        with pytest.raises(RuntimeError):
            fresh.features()

    def test_features_reflect_selection(self, env):
        env.reset()
        before = env.features()[:, 0].sum()
        env.step(0)
        after = env.features()[:, 0].sum()
        assert before == 0
        assert after >= 1

    def test_selected_cells_in_selection_order(self, env):
        state = env.reset()
        picks = []
        while not state.done and len(picks) < 3:
            pos = int(np.nonzero(state.valid)[0][-1])  # pick last valid
            picks.append(env.endpoints[pos])
            state = env.step(pos)
        assert env.selected_cells() == picks

    def test_episode_terminates(self, env):
        state = env.reset()
        steps = 0
        while not state.done:
            pos = int(np.nonzero(state.valid)[0][0])
            state = env.step(pos)
            steps += 1
            assert steps <= env.num_endpoints
        assert len(state.selected) + len(state.masked) == env.num_endpoints


class TestPolicy:
    def test_masked_probabilities_helper(self, rng):
        scores = rng.normal(size=6)
        valid = np.array([1, 0, 1, 1, 0, 1], bool)
        p = _masked_probabilities(scores, valid)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p[~valid] == 0.0)

    def test_all_masked_raises(self):
        with pytest.raises(ValueError):
            _masked_probabilities(np.zeros(3), np.zeros(3, bool))

    def test_single_valid_endpoint_gets_full_mass(self, rng):
        scores = rng.normal(size=5)
        valid = np.array([0, 0, 1, 0, 0], bool)
        p = _masked_probabilities(scores, valid)
        assert p[2] == pytest.approx(1.0)
        assert np.all(p[~valid] == 0.0)
        assert np.all(np.isfinite(p))

    def test_extreme_logits_no_nans(self):
        # The -inf mask shift must survive huge positive/negative scores
        # without overflow (exp of +1e4) or NaNs (inf - inf).
        scores = np.array([1e4, -1e4, 5e3, 0.0])
        valid = np.array([1, 1, 0, 1], bool)
        p = _masked_probabilities(scores, valid)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0)
        assert p[0] == pytest.approx(1.0)
        assert p[2] == 0.0

    def test_extreme_negative_logits_single_survivor(self):
        scores = np.full(4, -1e308)
        valid = np.array([0, 1, 0, 0], bool)
        p = _masked_probabilities(scores, valid)
        assert np.all(np.isfinite(p))
        assert p[1] == pytest.approx(1.0)

    def test_rollout_completes(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        traj = policy.rollout(env, rng=1)
        assert len(traj) >= 1
        assert len(traj.actions) == len(traj.log_probs) == len(traj.action_cells)
        assert env.state.done

    def test_rollout_actions_unique(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        traj = policy.rollout(env, rng=1)
        assert len(set(traj.actions)) == len(traj.actions)

    def test_rollout_respects_max_steps(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        traj = policy.rollout(env, rng=1, max_steps=2)
        assert len(traj) <= 2

    def test_total_log_prob_differentiable(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        traj = policy.rollout(env, rng=1)
        loss = traj.total_log_prob() * -1.0
        loss.backward()
        grads = [p.grad for p in policy.parameters() if p.grad is not None]
        assert grads, "no gradients flowed"
        total = sum(float(np.abs(g).sum()) for g in grads)
        assert total > 0

    def test_empty_trajectory_log_prob_raises(self):
        from repro.agent.policy import Trajectory

        with pytest.raises(ValueError):
            Trajectory().total_log_prob()

    def test_probabilities_recorded(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        traj = policy.rollout(env, rng=1)
        for p in traj.probabilities:
            assert p.sum() == pytest.approx(1.0)


class TestBaselines:
    def test_select_none(self, env):
        assert select_none(env) == []

    def test_worst_slack_prefix(self, env):
        sel = select_worst_slack(env, 3)
        assert sel == env.endpoints[:3]
        with pytest.raises(ValueError):
            select_worst_slack(env, -1)

    def test_random_selection(self, env):
        sel = select_random(env, 5, rng=0)
        assert len(sel) == min(5, env.num_endpoints)
        assert len(set(sel)) == len(sel)
        assert select_random(env, 5, rng=0) == sel  # deterministic per seed
        with pytest.raises(ValueError):
            select_random(env, -2)

    def test_random_k_larger_than_pool(self, env):
        sel = select_random(env, 10**6, rng=0)
        assert len(sel) == env.num_endpoints

    def test_greedy_overlap_terminates_and_valid(self, env):
        sel = select_greedy_overlap(env)
        assert len(sel) >= 1
        assert len(set(sel)) == len(sel)
        # First pick must be the worst endpoint (canonical order head).
        assert sel[0] == env.endpoints[0]


class TestRunningNorm:
    def test_single_value_unit_std(self):
        norm = _RunningNorm()
        norm.update(5.0)
        assert norm.std == 1.0
        assert norm.advantage(5.0) == 0.0

    def test_mean_and_std(self):
        norm = _RunningNorm()
        for v in (1.0, 2.0, 3.0):
            norm.update(v)
        assert norm.mean == pytest.approx(2.0)
        assert norm.std == pytest.approx(1.0)


class TestTrainer:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(max_episodes=0)

    def test_training_runs_and_restores(self, small_design):
        nl, period = small_design
        env = EndpointSelectionEnv(nl, period, rho=0.3)
        sizes_before = [c.size_index for c in nl.cells]
        n_before = nl.num_cells
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        result = train_rlccd(
            policy,
            env,
            FlowConfig(clock_period=period),
            TrainConfig(max_episodes=3, plateau_patience=5, seed=0),
        )
        assert result.episodes_run == 3
        assert len(result.history) == 3
        assert result.best_tns >= max(r.tns for r in result.history) - 1e-12
        assert result.best_selection
        # Trainer must leave the netlist in its original state.
        assert nl.num_cells == n_before
        assert [c.size_index for c in nl.cells] == sizes_before

    def test_streamed_batch_overlaps_rollouts_with_flows(
        self, small_design, monkeypatch
    ):
        """Each trajectory is backpropagated once the next one is sampled
        and submitted (the last right after its own submit), and every
        backward of the batch runs before its first reward is awaited.
        At most two trajectories, and so two tapes, are alive at once."""
        import weakref

        from repro.agent import reinforce
        from repro.agent.parallel import evaluate_selections
        from repro.nn.tensor import Tensor

        nl, period = small_design
        env = EndpointSelectionEnv(nl, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        events = []
        index = {}  # id of a trajectory's selection list -> rollout number
        alive = []  # weak references to every sampled trajectory
        most_alive = []

        def record(event):
            events.append(event)
            most_alive.append(sum(ref() is not None for ref in alive))

        class RecordingPool:
            def __init__(self, netlist, flow_config, workers, snapshot, **kwargs):
                self.args = (netlist, flow_config, snapshot)

            def submit(self, selection):
                record(f"submit{index[id(selection)]}")

            def evaluate(self, selections):
                (selection,) = selections
                record(f"evaluate{index[id(selection)]}")
                netlist, flow_config, snapshot = self.args
                return evaluate_selections(
                    netlist, flow_config, selections, snapshot=snapshot
                )

            def close(self):
                pass

        rollout = policy.rollout

        def recording_rollout(*args, **kwargs):
            trajectory = rollout(*args, **kwargs)
            index[id(trajectory.action_cells)] = len(index)
            alive.append(weakref.ref(trajectory))
            record(f"rollout{len(index) - 1}")
            return trajectory

        backward = Tensor.backward
        depth = []  # nested calls: the gradient shadow check's tape oracle

        def recording_backward(self, *args, **kwargs):
            if not depth:
                record(f"backward{sum(e.startswith('backward') for e in events)}")
            depth.append(None)
            try:
                return backward(self, *args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(reinforce, "RolloutPool", RecordingPool)
        monkeypatch.setattr(policy, "rollout", recording_rollout)
        monkeypatch.setattr(Tensor, "backward", recording_backward)
        monkeypatch.setattr(reinforce, "MAX_SELECTION_STEPS", 3)
        train_rlccd(
            policy,
            env,
            FlowConfig(clock_period=period),
            TrainConfig(
                max_episodes=3,
                episodes_per_update=3,
                workers=2,
                seed=0,
            ),
        )
        assert events == [
            "rollout0", "submit0", "rollout1", "submit1",
            "backward0", "rollout2", "submit2", "backward1", "backward2",
            "evaluate0", "evaluate1", "evaluate2",
        ]
        assert max(most_alive) == 2
        assert most_alive[-3:] == [0, 0, 0]  # no tape lives through a flow

    def test_plateau_stops_early(self, small_design):
        nl, period = small_design
        env = EndpointSelectionEnv(nl, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        result = train_rlccd(
            policy,
            env,
            FlowConfig(clock_period=period),
            TrainConfig(max_episodes=30, plateau_patience=2, seed=0),
        )
        if result.converged:
            assert result.episodes_run < 30

    def test_curves_shapes(self, small_design):
        nl, period = small_design
        env = EndpointSelectionEnv(nl, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        result = train_rlccd(
            policy,
            env,
            FlowConfig(clock_period=period),
            TrainConfig(max_episodes=3, plateau_patience=9, seed=0),
        )
        assert result.tns_curve.shape == (3,)
        best = result.best_so_far_curve
        assert np.all(np.diff(best) >= 0)


class TestTransfer:
    def test_transfer_copies_epgnn_only(self):
        a = RLCCDPolicy(NUM_FEATURES, rng=0)
        b = RLCCDPolicy(NUM_FEATURES, rng=1)
        dec_before = b.decoder.w1.data.copy()
        transfer_epgnn(a, b)
        np.testing.assert_array_equal(
            a.epgnn.fc.weight.data, b.epgnn.fc.weight.data
        )
        np.testing.assert_array_equal(b.decoder.w1.data, dec_before)

    def test_save_load_roundtrip(self, tmp_path):
        a = RLCCDPolicy(NUM_FEATURES, rng=0)
        path = str(tmp_path / "epgnn.npz")
        save_pretrained_epgnn(a, path)
        b = RLCCDPolicy(NUM_FEATURES, rng=5)
        load_pretrained_epgnn(b, path)
        np.testing.assert_array_equal(
            a.epgnn.fc.weight.data, b.epgnn.fc.weight.data
        )


class TestEntropyRegularization:
    def test_rollout_records_entropies(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        traj = policy.rollout(env, rng=1, with_entropy=True)
        assert len(traj.entropies) == len(traj)
        total = traj.total_entropy()
        assert total.item() >= 0.0

    def test_entropy_absent_without_flag(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        traj = policy.rollout(env, rng=1)
        assert traj.entropies == []
        with pytest.raises(ValueError):
            traj.total_entropy()

    def test_entropy_gradients_flow(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        traj = policy.rollout(env, rng=1, with_entropy=True, max_steps=2)
        (traj.total_entropy() * -0.1).backward()
        grads = [p.grad for p in policy.parameters() if p.grad is not None]
        assert grads

    def test_trainer_with_entropy_coefficient(self, small_design):
        nl, period = small_design
        env = EndpointSelectionEnv(nl, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=0)
        result = train_rlccd(
            policy,
            env,
            FlowConfig(clock_period=period),
            TrainConfig(max_episodes=2, entropy_coefficient=0.01, seed=0),
        )
        assert result.episodes_run == 2

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(entropy_coefficient=-0.1)
