"""Equivalence and guard tests for the incremental EP-GNN encoder.

The incremental engine (:mod:`repro.gnn.incremental`) must be invisible:
same embeddings (≤ 1e-9 per step), same sampled trajectories, same
parameter gradients, and byte-identical training histories as the full
re-encode path.  Run under ``REPRO_GNN_CHECK=1`` (the ``gnn-differential``
CI job does) every incremental encode is *additionally* shadow-verified
inside ``encode()`` itself; the assertions here stay on so the suite is
also meaningful without the env var.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.agent import reinforce
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainConfig, train_rlccd
from repro.ccd.flow import FlowConfig
from repro.features.cones import fanin_cone
from repro.features.table1 import NUM_FEATURES
from repro.gnn import incremental as gi
from repro.nn.tensor import Tensor, stack

ATOL = 1e-9


@pytest.fixture
def env(small_design):
    nl, period = small_design
    return EndpointSelectionEnv(nl, period, rho=0.3)


@pytest.fixture
def policy():
    return RLCCDPolicy(NUM_FEATURES, rng=11)


def _episode_features(env, rng, max_steps=None):
    """Feature matrices + actions of one random valid episode."""
    state = env.reset()
    steps = [env.features()]
    while not state.done and (max_steps is None or len(steps) <= max_steps):
        action = int(rng.choice(np.nonzero(state.valid)[0]))
        state = env.step(action)
        steps.append(env.features())
    return steps


class TestSwitches:
    def test_set_check_roundtrip(self):
        previous = gi.set_check(True)
        try:
            assert gi.check_enabled() is True
        finally:
            gi.set_check(previous)

    def test_assert_embeddings_equal_raises_on_drift(self):
        a = Tensor(np.zeros((3, 4)))
        b = Tensor(np.full((3, 4), 1e-6))
        with pytest.raises(RuntimeError, match="drift"):
            gi.assert_embeddings_equal(a, b)
        gi.assert_embeddings_equal(a, Tensor(np.zeros((3, 4))))

    def test_assert_embeddings_equal_raises_on_shape(self):
        with pytest.raises(RuntimeError, match="shape"):
            gi.assert_embeddings_equal(
                Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4)))
            )


class TestEncoderSession:
    def test_per_step_embeddings_match_full(self, env, policy, rng):
        """Every step of an episode: incremental ≤ 1e-9 from a full encode."""
        session = policy.encoder_session(env)
        session.begin_episode()
        for features in _episode_features(env, rng, max_steps=8):
            incremental = session.encode(features)
            full = policy.epgnn(features, env.graph, env.cones)
            assert incremental.shape == full.shape
            np.testing.assert_allclose(
                incremental.data, full.data, atol=ATOL, rtol=0.0
            )

    def test_first_encode_is_full_and_bitwise(self, env, policy):
        session = policy.encoder_session(env)
        session.begin_episode()
        env.reset()
        features = env.features()
        incremental = session.encode(features)
        full = policy.epgnn(features, env.graph, env.cones)
        assert np.array_equal(incremental.data, full.data)

    def test_unchanged_mask_returns_cached_tensor(self, env, policy):
        session = policy.encoder_session(env)
        session.begin_episode()
        env.reset()
        first = session.encode(env.features())
        second = session.encode(env.features())
        assert second is first

    def test_mutation_version_guard_forces_full(self, env, policy):
        session = policy.encoder_session(env)
        session.begin_episode()
        env.reset()
        session.encode(env.features())
        state = env.step(int(np.nonzero(env.state.valid)[0][0]))
        assert not state.done
        # Any netlist mutation bumps mutation_version; the next encode must
        # refuse the stale cache and fall back to a full re-encode.
        obs.enable()
        obs.reset()
        try:
            env.netlist.mutation_version += 1
            session.encode(env.features())
            counters = obs.get_recorder().counters
            assert counters.get("gnn.full_encode", 0) == 1
            assert counters.get("gnn.incremental_encode", 0) == 0
        finally:
            obs.disable()
            obs.reset()

    def test_static_column_change_forces_full(self, env, policy):
        session = policy.encoder_session(env)
        session.begin_episode()
        env.reset()
        session.encode(env.features())
        features = env.features()
        features[:, 3] += 0.125  # a "static" column changed under us
        obs.enable()
        obs.reset()
        try:
            out = session.encode(features)
            counters = obs.get_recorder().counters
            assert counters.get("gnn.full_encode", 0) == 1
        finally:
            obs.disable()
            obs.reset()
        full = policy.epgnn(features, env.graph, env.cones)
        assert np.array_equal(out.data, full.data)

    def test_counters_track_engine_choice(self, env, policy, rng):
        session = policy.encoder_session(env)
        session.begin_episode()
        obs.enable()
        obs.reset()
        try:
            steps = _episode_features(env, rng, max_steps=5)
            for features in steps:
                session.encode(features)
            counters = obs.get_recorder().counters
            assert counters.get("gnn.full_encode", 0) >= 1  # episode warm-up
            assert (
                counters.get("gnn.full_encode", 0)
                + counters.get("gnn.incremental_encode", 0)
                == len(steps)
            )
            if counters.get("gnn.incremental_encode", 0):
                assert counters.get("gnn.dirty_cells", 0) > 0
        finally:
            obs.disable()
            obs.reset()

    def test_gradients_match_full_path(self, env, small_design):
        """Parameter gradients through the incremental tape ≈ full tape."""
        policy_a = RLCCDPolicy(NUM_FEATURES, rng=3)
        policy_b = RLCCDPolicy(NUM_FEATURES, rng=3)
        traj_a = policy_a.rollout(env, rng=77, incremental=True)
        traj_b = policy_b.rollout(env, rng=77, incremental=False)
        assert traj_a.actions == traj_b.actions
        traj_a.total_log_prob().backward()
        traj_b.total_log_prob().backward()
        for (name, pa), (_, pb) in zip(
            policy_a.named_parameters(), policy_b.named_parameters()
        ):
            ga = pa.grad if pa.grad is not None else np.zeros_like(pa.data)
            gb = pb.grad if pb.grad is not None else np.zeros_like(pb.data)
            np.testing.assert_allclose(
                ga, gb, atol=1e-9, rtol=0.0, err_msg=f"grad mismatch: {name}"
            )


class TestRolloutEquivalence:
    def test_sampled_trajectories_identical(self, env, policy):
        for seed in (0, 1, 2):
            a = policy.rollout(env, rng=seed, incremental=True)
            b = policy.rollout(env, rng=seed, incremental=False)
            assert a.actions == b.actions
            assert a.action_cells == b.action_cells

    def test_shadow_check_passes_across_episode(self, env, policy):
        previous = gi.set_check(True)
        try:
            trajectory = policy.rollout(env, rng=9, incremental=True)
            assert len(trajectory) >= 1
        finally:
            gi.set_check(previous)

    def test_shadow_check_catches_corrupted_cache(self, env, policy):
        previous = gi.set_check(True)
        try:
            session = policy.encoder_session(env)
            session.begin_episode()
            env.reset()
            base = env.features()
            session.encode(base)
            # One endpoint flips to masked: a single-cell dirty seed, so the
            # next encode stays on the incremental path (no fallback) and
            # reuses cached embedding rows for every untouched endpoint.
            stepped = np.array(base, copy=True)
            stepped[env.endpoints[0], 0] = 1.0
            # Corrupt the episode's embedding buffer: the reused clean rows
            # must be caught by the shadow check, not silently returned.
            session._episode.emb[:, :] += 1.0
            with pytest.raises(RuntimeError, match="drift"):
                session.encode(stepped)
        finally:
            gi.set_check(previous)


class TestTrainingEquivalence:
    @pytest.fixture(autouse=True)
    def _six_step_trajectories(self, monkeypatch):
        monkeypatch.setattr(reinforce, "MAX_SELECTION_STEPS", 6)

    def _train(self, small_design):
        nl, period = small_design
        env = EndpointSelectionEnv(nl, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=21)
        config = TrainConfig(max_episodes=3, seed=4)
        return train_rlccd(policy, env, FlowConfig(clock_period=period), config)

    def _train_full(self, small_design, monkeypatch):
        """Train with every rollout forced onto the full-encode oracle."""
        rollout = RLCCDPolicy.rollout
        calls = []

        def full_rollout(self, env, *args, **kwargs):
            calls.append(env)
            return rollout(self, env, *args, incremental=False, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(RLCCDPolicy, "rollout", full_rollout)
            result = self._train(small_design)
        assert calls, "the trainer never reached the full-encode rollout"
        return result

    def test_training_history_byte_identical(self, small_design, monkeypatch):
        """Full vs incremental engines: byte-identical training histories."""
        full = self._train_full(small_design, monkeypatch)
        fast = self._train(small_design)
        assert full.best_selection == fast.best_selection
        assert full.best_tns == fast.best_tns
        assert len(full.history) == len(fast.history)
        for a, b in zip(full.history, fast.history):
            assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_training_history_byte_identical_under_check(
        self, small_design, monkeypatch
    ):
        previous = gi.set_check(True)
        try:
            full = self._train_full(small_design, monkeypatch)
            fast = self._train(small_design)
        finally:
            gi.set_check(previous)
        for a, b in zip(full.history, fast.history):
            assert dataclasses.astuple(a) == dataclasses.astuple(b)
        assert len(full.history) == len(fast.history)


def _pool_loop(nodes, cones):
    """Eq.-3 pooling as one Python loop over endpoints (the CSR oracle),
    with members taken from ``fanin_cone``, not from the index."""
    pooled_rows = []
    for endpoint in cones.endpoints:
        own = nodes[endpoint]
        members = np.array(sorted(fanin_cone(cones.netlist, endpoint)), dtype=np.int64)
        if members.size:
            pooled_rows.append(own + nodes.gather_rows(members).sum(axis=0))
        else:
            pooled_rows.append(own)
    return stack(pooled_rows, axis=0)


def _loop_forward(gnn, features, env):
    """``EPGNN.forward`` with the loop oracle in place of CSR pooling."""
    nodes = gnn.node_embeddings(features, env.graph)
    return gnn.fc(_pool_loop(nodes, env.cones))


class TestPoolingEquivalence:
    def test_csr_pooling_matches_loop(self, env, policy):
        env.reset()
        features = env.features()
        loop = _loop_forward(policy.epgnn, features, env)
        csr = policy.epgnn(features, env.graph, env.cones)
        np.testing.assert_allclose(csr.data, loop.data, atol=ATOL, rtol=0.0)

    def test_csr_pooling_gradients_match_loop(self, env):
        policy_a = RLCCDPolicy(NUM_FEATURES, rng=2)
        policy_b = RLCCDPolicy(NUM_FEATURES, rng=2)
        env.reset()
        features = env.features()
        out_a = policy_a.epgnn(features, env.graph, env.cones)
        out_b = _loop_forward(policy_b.epgnn, features, env)
        out_a.sum().backward()
        out_b.sum().backward()
        for (name, pa), (_, pb) in zip(
            policy_a.named_parameters(), policy_b.named_parameters()
        ):
            if pa.grad is None and pb.grad is None:
                continue
            np.testing.assert_allclose(
                pa.grad, pb.grad, atol=ATOL, rtol=0.0,
                err_msg=f"grad mismatch: {name}",
            )


class TestFallbackThreshold:
    def test_large_dirty_region_falls_back_to_full(self, env, policy):
        session = policy.encoder_session(env)
        session.begin_episode()
        env.reset()
        session.encode(env.features())
        # Flip the mask on over half the cells: the 3-hop dirty region
        # exceeds FULL_FALLBACK_FRACTION, so the engine must full-encode.
        features = env.features()
        features[:, 0] = 1.0
        obs.enable()
        obs.reset()
        try:
            out = session.encode(features)
            counters = obs.get_recorder().counters
            assert counters.get("gnn.full_encode", 0) == 1
        finally:
            obs.disable()
            obs.reset()
        full = policy.epgnn(features, env.graph, env.cones)
        assert np.array_equal(out.data, full.data)

