"""One full encoder step per update batch, and gradients that alias nothing.

Within an update batch the weights are fixed and every episode starts from
the env's begin features, so the second episode of a batch reuses the
first one's full step (:meth:`EncoderSession.shared_step`).  These tests
pin that it changes no gradient bit, that it happens only when both
inputs match, and that a backward reads no array the env or another
episode owns: every env-owned array (the valid masks, the feature matrix,
the selection lists) is overwritten between rollout and backward, and the
gradients must not move by a bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.agent import reinforce
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainConfig, train_rlccd
from repro.ccd.flow import FlowConfig
from repro.features.table1 import NUM_FEATURES
from repro.gnn import incremental as gi


@pytest.fixture(autouse=True)
def recorder():
    """A clean, enabled recorder, so the encoder's counters count."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    yield obs.get_recorder()
    obs.reset()
    if not was_enabled:
        obs.disable()


@pytest.fixture
def no_fallback(monkeypatch):
    """Every step after the first is a delta step: on a small design the
    dirty region often covers half the cells, and a mid-episode full step
    would replace the buffers a shared step's episodes write."""
    monkeypatch.setattr(gi, "FULL_FALLBACK_FRACTION", 1.0)


def _count(recorder, name) -> float:
    return recorder.counters.get(name, 0.0)


def _grads(policy):
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in policy.named_parameters()
    }


def _assert_bitwise(a, b):
    differing = [name for name in a if a[name].tobytes() != b[name].tobytes()]
    assert differing == []


def _loss(trajectory, k: int):
    return trajectory.total_log_prob() * (-0.5 - k) + trajectory.total_entropy() * 0.01


def _overwrite_env(env, states) -> None:
    """Scribble over every array the env owns: each episode's valid mask
    and selection lists, and the base feature matrix."""
    for state in states:
        state.valid[:] = True
        state.selected[:] = [0] * len(state.selected)
        state.masked.clear()
        state.masked.update(range(env.num_endpoints))
    env._base_features[:] = -7.5


def _overwrite_episode(episode) -> None:
    """Scribble over an episode's in-place encoder buffers."""
    for buffer in episode.layers:
        buffer[:] = np.nan
    episode.sums[:] = np.nan


def _batch(design, episodes, incremental=True, overwrite=False, fresh_sessions=False):
    """Roll out ``episodes`` episodes under fixed weights, then backward
    each one's loss in order (the trainer's order); returns the gradients,
    the actions and the episodes' encoder states."""
    netlist, period = design
    env = EndpointSelectionEnv(netlist, period, rho=0.3)
    policy = RLCCDPolicy(NUM_FEATURES, rng=5)
    rng = np.random.default_rng(11)
    trajectories, states, encoder_episodes = [], [], []
    for _ in range(episodes):
        if fresh_sessions:
            policy._session = None
        trajectories.append(
            policy.rollout(env, rng=rng, with_entropy=True, incremental=incremental)
        )
        states.append(env.state)
        encoder_episodes.append(policy._session._episode if incremental else None)
    for k, trajectory in enumerate(trajectories):
        if overwrite:
            _overwrite_env(env, states)
            if k and incremental:
                _overwrite_episode(encoder_episodes[k - 1])
        _loss(trajectory, k).backward()
    return _grads(policy), [t.actions for t in trajectories], encoder_episodes


@pytest.mark.usefixtures("no_fallback")
class TestFullStepSharing:
    def test_two_episode_batch_matches_fresh_sessions(self, small_design, recorder):
        shared, shared_actions, episodes = _batch(small_design, 2)
        assert _count(recorder, "gnn.shared_full_step") == 1
        # The second episode reads the first one's record, not a copy of it.
        assert episodes[1].steps[0] is episodes[0].steps[0]
        assert episodes[1].sums is not episodes[0].sums
        for mine, theirs in zip(episodes[1].layers, episodes[0].layers):
            assert mine is not theirs

        obs.reset()
        fresh, fresh_actions, _ = _batch(small_design, 2, fresh_sessions=True)
        assert _count(recorder, "gnn.shared_full_step") == 0
        assert shared_actions == fresh_actions
        _assert_bitwise(shared, fresh)

    def test_shared_only_when_weights_and_features_match(self, small_design, recorder):
        netlist, period = small_design
        env = EndpointSelectionEnv(netlist, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=5)
        session = policy.encoder_session(env)
        env.reset()
        begin = env.features()

        def first_encode(features):
            session.begin_episode()
            session.encode(features)
            return _count(recorder, "gnn.shared_full_step")

        assert first_encode(begin) == 0
        assert first_encode(begin) == 1
        # One parameter moved by one ulp: the weights differ.
        weight = policy.epgnn.layers[1].agg.weight
        weight.data[0, 0] = np.nextafter(weight.data[0, 0], np.inf)
        assert first_encode(begin) == 1
        assert first_encode(begin) == 2
        # One static feature moved: the begin matrix differs.
        moved = begin.copy()
        moved[3, 5] += 1e-12
        assert first_encode(moved) == 2
        assert first_encode(moved) == 3
        # A mid-episode full step neither reads nor replaces the shared one.
        shared = session._shared
        session.begin_episode()
        session.encode(moved)
        session._episode.full_step(begin)
        assert session._shared is shared

    def test_dropped_before_a_new_step_is_computed(self, small_design, monkeypatch):
        netlist, period = small_design
        env = EndpointSelectionEnv(netlist, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=5)
        session = policy.encoder_session(env)
        env.reset()
        begin = env.features()
        session.encode(begin)
        assert session._shared is not None
        seen = []
        compute = gi._Episode._compute

        def spy(episode, features):
            seen.append(session._shared)
            return compute(episode, features)

        monkeypatch.setattr(gi._Episode, "_compute", spy)
        policy.epgnn.fc.bias.data[0] += 1.0
        session.begin_episode()
        session.encode(begin)
        assert seen == [None]
        assert session._shared is session._episode.steps[0]

    def test_one_episode_per_update_computes_when_weights_move(
        self, small_design, recorder, monkeypatch
    ):
        """``episodes_per_update=1``: an episode shares only when the update
        before it left every weight as it was (the first update's advantage
        is zero), and computes its own full step otherwise."""
        netlist, period = small_design
        env = EndpointSelectionEnv(netlist, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=5)
        gnn_params = policy.encoder_session(env).params
        weights, shared = [], []

        def progress(_record):
            # Runs after the episode's backward, before the optimizer step:
            # the weights are still the ones the episode encoded with.
            weights.append([p.data.copy() for p in gnn_params])
            shared.append(_count(recorder, "gnn.shared_full_step"))

        episodes = 5
        monkeypatch.setattr(reinforce, "MAX_SELECTION_STEPS", 6)
        config = TrainConfig(
            max_episodes=episodes,
            episodes_per_update=1,
            plateau_patience=episodes,
            seed=2,
        )
        train_rlccd(policy, env, FlowConfig(clock_period=period), config, progress)
        assert len(shared) == episodes
        increments = np.diff([0.0] + shared).tolist()
        unchanged = [False] + [
            all(np.array_equal(a, b) for a, b in zip(weights[k], weights[k - 1]))
            for k in range(1, episodes)
        ]
        assert increments == [float(u) for u in unchanged]
        # Every update after the first moves the weights.
        assert increments[2:] == [0.0] * (episodes - 2)

    def test_two_episodes_per_update_compute_one_full_step_each(
        self, small_design, recorder, monkeypatch
    ):
        netlist, period = small_design
        env = EndpointSelectionEnv(netlist, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=5)
        monkeypatch.setattr(reinforce, "MAX_SELECTION_STEPS", 6)
        config = TrainConfig(max_episodes=6, episodes_per_update=2, plateau_patience=6, seed=2)
        train_rlccd(policy, env, FlowConfig(clock_period=period), config)
        # Each batch's second episode shares its first one's step.
        assert _count(recorder, "gnn.shared_full_step") >= 3


class TestGradientAliasing:
    """A backward reads only what its rollout recorded: overwriting every
    env-owned array after the rollout moves no gradient bit."""

    @pytest.mark.parametrize(
        "incremental, fallback",
        [(True, False), (True, True), (False, False)],
        ids=["incremental", "incremental-with-fallbacks", "full"],
    )
    def test_one_episode(self, small_design, monkeypatch, incremental, fallback):
        if not fallback:
            monkeypatch.setattr(gi, "FULL_FALLBACK_FRACTION", 1.0)
        untouched, actions, _ = _batch(small_design, 1, incremental)
        overwritten, again, _ = _batch(small_design, 1, incremental, overwrite=True)
        assert actions == again
        _assert_bitwise(untouched, overwritten)

    @pytest.mark.usefixtures("no_fallback")
    def test_two_episode_batch_sharing_a_full_step(self, small_design, recorder):
        untouched, actions, _ = _batch(small_design, 2)
        assert _count(recorder, "gnn.shared_full_step") == 1
        # The first episode's env arrays and encoder buffers are overwritten
        # before the second episode's backward.
        overwritten, again, _ = _batch(small_design, 2, overwrite=True)
        assert actions == again
        _assert_bitwise(untouched, overwritten)
