"""REINFORCE sanity checks on known toy problems.

DESIGN.md invariant: "REINFORCE on a known bandit increases probability of
the rewarding action."  These tests exercise the exact primitives the
RL-CCD trainer uses (masked log-probs, advantage weighting, Adam) on
problems with known optima, independent of the EDA substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.functional import masked_log_prob
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor


class TestBandit:
    def _train_bandit(self, rewards, steps=300, lr=0.05, seed=0):
        """Policy-gradient on a 3-arm bandit with given arm rewards."""
        rng = np.random.default_rng(seed)
        logits = Tensor(np.zeros(len(rewards)), requires_grad=True)
        optimizer = Adam([logits], lr=lr)
        valid = np.ones(len(rewards), bool)
        baseline = 0.0
        for _ in range(steps):
            probs = np.exp(logits.data - logits.data.max())
            probs /= probs.sum()
            action = int(rng.choice(len(rewards), p=probs))
            reward = rewards[action]
            baseline = 0.9 * baseline + 0.1 * reward
            optimizer.zero_grad()
            loss = masked_log_prob(logits, valid, action) * (-(reward - baseline))
            loss.backward()
            optimizer.step()
        probs = np.exp(logits.data - logits.data.max())
        return probs / probs.sum()

    def test_best_arm_dominates(self):
        probs = self._train_bandit([0.0, 1.0, 0.0])
        assert np.argmax(probs) == 1
        assert probs[1] > 0.8

    def test_negative_rewards_work(self):
        """TNS-style rewards are all negative; the least-bad arm must win."""
        probs = self._train_bandit([-3.0, -1.0, -2.0])
        assert np.argmax(probs) == 1

    def test_indifferent_rewards_stay_spread(self):
        probs = self._train_bandit([1.0, 1.0, 1.0], steps=150)
        assert probs.max() < 0.9  # no arm should collapse the distribution


class TestSequentialCredit:
    def test_two_step_sequence_learned(self):
        """Reward 1 only for picking arm 0 then arm 1; both steps learned."""
        rng = np.random.default_rng(3)
        logits1 = Tensor(np.zeros(2), requires_grad=True)
        logits2 = Tensor(np.zeros(2), requires_grad=True)
        optimizer = Adam([logits1, logits2], lr=0.05)
        valid = np.ones(2, bool)
        baseline = 0.0
        for _ in range(400):
            p1 = np.exp(logits1.data - logits1.data.max())
            p1 /= p1.sum()
            a1 = int(rng.choice(2, p=p1))
            p2 = np.exp(logits2.data - logits2.data.max())
            p2 /= p2.sum()
            a2 = int(rng.choice(2, p=p2))
            reward = 1.0 if (a1, a2) == (0, 1) else 0.0
            baseline = 0.9 * baseline + 0.1 * reward
            optimizer.zero_grad()
            total_logp = masked_log_prob(logits1, valid, a1) + masked_log_prob(
                logits2, valid, a2
            )
            (total_logp * (-(reward - baseline))).backward()
            optimizer.step()
        p1 = np.exp(logits1.data) / np.exp(logits1.data).sum()
        p2 = np.exp(logits2.data) / np.exp(logits2.data).sum()
        assert p1[0] > 0.7
        assert p2[1] > 0.7


class TestNonFiniteReward:
    """The trainer refuses a non-finite flow reward before it can poison the
    running reward normalization for every later advantage."""

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_tns_raises(self, small_design, monkeypatch, bad):
        from repro.agent import reinforce
        from repro.agent.env import EndpointSelectionEnv
        from repro.agent.parallel import FlowReward
        from repro.agent.policy import RLCCDPolicy
        from repro.ccd.flow import FlowConfig
        from repro.features.table1 import NUM_FEATURES

        calls = []

        def fake_evaluate(netlist, flow_config, selections, **kwargs):
            calls.append(list(selections[0]))
            tns = -1.0 if len(calls) == 1 else bad
            return [FlowReward(tns, -0.1, 1, len(selections[0]))]

        monkeypatch.setattr(reinforce, "evaluate_selections", fake_evaluate)
        nl, period = small_design
        env = EndpointSelectionEnv(nl, period, rho=0.3)
        policy = RLCCDPolicy(NUM_FEATURES, rng=17)
        monkeypatch.setattr(reinforce, "MAX_SELECTION_STEPS", 5)
        config = reinforce.TrainConfig(max_episodes=3, seed=6, plateau_patience=5)
        with pytest.raises(ValueError, match="episode 1: non-finite reward") as err:
            reinforce.train_rlccd(
                policy, env, FlowConfig(clock_period=period), config
            )
        assert str(calls[1]) in str(err.value)
