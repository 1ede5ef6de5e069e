"""Determinism across rollout backends.

Training rewards must be byte-identical whether flow evaluation runs
sequentially, through a 4-worker pool, or replays from the reward cache —
the pool and cache are throughput features, never semantics features.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.agent.baselines import select_random, select_worst_slack
from repro.agent.env import EndpointSelectionEnv
from repro.agent.parallel import (
    START_METHOD_ENV_VAR,
    RewardCache,
    RolloutPool,
    evaluate_selections,
    fork_available,
)
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainConfig, train_rlccd
from repro.ccd.flow import FlowConfig, snapshot_netlist_state
from repro.features.table1 import NUM_FEATURES

_FORCED = os.environ.get(START_METHOD_ENV_VAR, "").strip()
START_METHOD = _FORCED or ("fork" if fork_available() else "spawn")


@pytest.fixture(scope="module")
def context(small_design):
    nl, period = small_design
    env = EndpointSelectionEnv(nl, period)
    return nl, period, env


def test_reward_sequences_identical_across_backends(context):
    """workers=1 vs workers=4 vs cache-hit replay: byte-identical
    FlowReward sequences for the same fixed selection batch."""
    nl, period, env = context
    config = FlowConfig(clock_period=period)
    snapshot = snapshot_netlist_state(nl)
    selections = [select_worst_slack(env, k) for k in (1, 2, 3)] + [
        select_random(env, 4, rng=s) for s in (0, 1, 2)
    ]

    sequential = evaluate_selections(
        nl, config, selections, snapshot=snapshot
    )
    cache = RewardCache.for_context(snapshot, config)
    with RolloutPool(
        nl,
        config,
        workers=4,
        snapshot=snapshot,
        start_method=START_METHOD,
        cache=cache,
    ) as pool:
        pooled = pool.evaluate(selections)
        cached = pool.evaluate(selections)

    blob = pickle.dumps(sequential)
    assert pickle.dumps(pooled) == blob
    assert pickle.dumps(cached) == blob
    assert cache.hits == len(selections)


def _miss_every_lookup(monkeypatch) -> None:
    """Make every reward-cache lookup miss, so every episode runs its flow."""
    monkeypatch.setattr(RewardCache, "get", lambda self, selection: None)


def _train(
    nl,
    period,
    workers: int,
    seed: int = 3,
    episodes_per_update: int = 2,
    entropy_coefficient: float = 0.0,
):
    """Per-episode history and the trained parameters' bytes."""
    env = EndpointSelectionEnv(nl, period)
    policy = RLCCDPolicy(NUM_FEATURES, rng=seed)
    result = train_rlccd(
        policy,
        env,
        FlowConfig(clock_period=period),
        TrainConfig(
            max_episodes=4,
            episodes_per_update=episodes_per_update,
            workers=workers,
            entropy_coefficient=entropy_coefficient,
            seed=seed,
        ),
    )
    history = [
        (r.episode, r.tns, r.wns, r.nve, r.num_selected, r.advantage)
        for r in result.history
    ]
    return history, [p.data.tobytes() for p in policy.parameters()]


@pytest.mark.parametrize(
    "workers, episodes_per_update, entropy_coefficient",
    [(4, 2, 0.0), (2, 3, 0.0), (2, 3, 0.05)],
)
def test_training_identical_sequential_vs_pooled(
    fresh_design, monkeypatch, workers, episodes_per_update, entropy_coefficient
):
    """A fixed seed trains to the same per-episode reward sequence and the
    same parameters with workers=1 and a pool (the paper's farm is
    numerically invisible): both backpropagate every trajectory before its
    reward arrives, in one loop — also with more episodes per update than
    workers, a short last batch, and the entropy term."""
    nl, period = fresh_design
    _miss_every_lookup(monkeypatch)
    runs = [
        _train(
            nl,
            period,
            workers=n,
            episodes_per_update=episodes_per_update,
            entropy_coefficient=entropy_coefficient,
        )
        for n in (1, workers)
    ]
    assert pickle.dumps(runs[0]) == pickle.dumps(runs[1])


def test_training_identical_with_and_without_cache(fresh_design, monkeypatch):
    """The reward cache replays, never perturbs: same seed, same history."""
    nl, period = fresh_design
    with monkeypatch.context() as patch:
        _miss_every_lookup(patch)
        uncached = _train(nl, period, workers=1)
    cached = _train(nl, period, workers=1)
    assert pickle.dumps(uncached) == pickle.dumps(cached)
