"""Fault-injection suite for the persistent rollout pool.

Workers are deliberately killed mid-task, hung past the task timeout,
frozen (``SIGSTOP``), or made to return corrupt results; in every case the
pool must respawn/retry and the final reward sequence must be byte-identical
to a sequential run — faults must never poison training determinism.

The ``rollout-faults`` CI job runs this file under both ``fork`` and
``spawn`` (via ``REPRO_ROLLOUT_START_METHOD``); locally, with the variable
unset, each test parametrizes over every available start method.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import pytest

from repro.agent import parallel
from repro.agent.baselines import select_worst_slack
from repro.agent.env import EndpointSelectionEnv
from repro.agent.parallel import (
    START_METHOD_ENV_VAR,
    RolloutPool,
    evaluate_selections,
    fork_available,
)
from repro.agent.policy import RLCCDPolicy
from repro.ccd.flow import FlowConfig
from repro.features.table1 import NUM_FEATURES

_FORCED = os.environ.get(START_METHOD_ENV_VAR, "").strip()
START_METHODS = [_FORCED] if _FORCED else (
    (["fork"] if fork_available() else []) + ["spawn"]
)

#: Fault-test pools keep timeouts short so an injected hang costs ~a
#: second, not the production default.
TASK_TIMEOUT = 2.0


@pytest.fixture(autouse=True)
def fast_faults(monkeypatch):
    """Short heartbeat timeout and backoff for every pool in this module."""
    monkeypatch.setattr(parallel, "HEARTBEAT_TIMEOUT", 1.0)
    monkeypatch.setattr(parallel, "BACKOFF_BASE", 0.01)


@pytest.fixture(scope="module")
def context(small_design):
    nl, period = small_design
    env = EndpointSelectionEnv(nl, period)
    config = FlowConfig(clock_period=period)
    selections = [select_worst_slack(env, k) for k in (1, 2, 3, 4)]
    sequential = evaluate_selections(nl, config, selections)
    return nl, config, selections, sequential


@pytest.mark.parametrize("method", START_METHODS)
class TestFaultInjection:
    def test_crash_hang_and_corrupt_are_retried(self, context, method):
        """One worker killed mid-task, one hung past the deadline, one
        returning garbage: every task retries and rewards stay identical."""
        nl, config, selections, sequential = context
        faults = {(0, 0): "crash", (1, 0): "hang", (2, 0): "corrupt"}
        with RolloutPool(
            nl,
            config,
            workers=2,
            start_method=method,
            fault_spec=faults,
            task_timeout=TASK_TIMEOUT,
        ) as pool:
            rewards = pool.evaluate(selections)
            stats = pool.stats()
        assert pickle.dumps(rewards) == pickle.dumps(sequential)
        assert stats["worker_restarts"] >= 3
        assert stats["task_timeouts"] >= 1
        assert stats["corrupt_results"] >= 1
        assert stats["worker_crashes"] >= 1

    def test_exhausted_retries_fall_back_to_sequential(self, context, method):
        """A task that fails on every attempt is finished in-process —
        results are always produced, never dropped."""
        nl, config, selections, sequential = context
        faults = {(1, attempt): "crash" for attempt in range(10)}
        with RolloutPool(
            nl,
            config,
            workers=2,
            start_method=method,
            fault_spec=faults,
            task_timeout=TASK_TIMEOUT,
        ) as pool:
            rewards = pool.evaluate(selections)
            stats = pool.stats()
        assert pickle.dumps(rewards) == pickle.dumps(sequential)
        assert stats["sequential_fallbacks"] >= 1
        assert stats["worker_restarts"] >= 1

    def test_repeated_batches_survive_first_batch_faults(self, context, method):
        """A pool that weathered faults keeps serving later batches."""
        nl, config, selections, sequential = context
        with RolloutPool(
            nl,
            config,
            workers=2,
            start_method=method,
            fault_spec={(0, 0): "crash"},
            task_timeout=TASK_TIMEOUT,
        ) as pool:
            first = pool.evaluate(selections)
            second = pool.evaluate(selections)
        assert pickle.dumps(first) == pickle.dumps(sequential)
        assert pickle.dumps(second) == pickle.dumps(sequential)

    def test_restarted_pool_reproduces_rewards(self, context, method):
        """Closing a pool stops every worker; a fresh pool picks the reward
        stream up byte-identical — no state lives outside the parent."""
        nl, config, selections, sequential = context
        first_pool = RolloutPool(
            nl, config, workers=2, start_method=method, task_timeout=TASK_TIMEOUT
        )
        try:
            first = first_pool.evaluate(selections)
            generation = [w.process for w in first_pool._slots]
        finally:
            first_pool.close()
        assert len(generation) == 2
        assert not any(process.is_alive() for process in generation)
        with RolloutPool(
            nl, config, workers=2, start_method=method, task_timeout=TASK_TIMEOUT
        ) as pool:
            second = pool.evaluate(selections)
        blob = pickle.dumps(sequential)
        assert pickle.dumps(first) == blob
        assert pickle.dumps(second) == blob


    def test_streamed_training_survives_faults_on_submitted_tasks(
        self, context, method, monkeypatch
    ):
        """Tasks submitted ahead of their evaluate crash, hang and come back
        corrupt; the streamed training still reproduces the sequential
        history and parameters."""
        from repro.agent import reinforce

        nl, config, _, _ = context
        faults = {(0, 0): "crash", (1, 0): "hang", (2, 0): "corrupt"}
        pools = []

        def faulty_pool(*args, **kwargs):
            kwargs.update(task_timeout=TASK_TIMEOUT, start_method=method, fault_spec=faults)
            pools.append(RolloutPool(*args, **kwargs))
            return pools[-1]

        def train(workers):
            policy = RLCCDPolicy(NUM_FEATURES, rng=4)
            result = reinforce.train_rlccd(
                policy,
                EndpointSelectionEnv(nl, config.clock_period),
                config,
                reinforce.TrainConfig(
                    max_episodes=4,
                    episodes_per_update=2,
                    workers=workers,
                    seed=4,
                ),
            )
            history = [(r.tns, r.wns, r.nve, r.advantage) for r in result.history]
            return history, [p.data.tobytes() for p in policy.parameters()]

        # Every episode is a task, so tasks 0-2 exist for the faults.
        monkeypatch.setattr(parallel.RewardCache, "get", lambda self, selection: None)
        monkeypatch.setattr(reinforce, "MAX_SELECTION_STEPS", 6)
        sequential = train(1)
        monkeypatch.setattr(reinforce, "RolloutPool", faulty_pool)
        streamed = train(2)
        assert pickle.dumps(streamed) == pickle.dumps(sequential)
        (pool,) = pools
        stats = pool.stats()
        assert stats["task_timeouts"] >= 1
        assert stats["corrupt_results"] >= 1
        assert stats["worker_crashes"] >= 1

    def test_slow_learner_collects_a_finished_result(self, context, method):
        """A result already in the pipe is read before the deadline sweep:
        a learner that comes back after the task timeout still gets the
        worker's reward, with no timeout charged and no worker restarted."""
        nl, config, selections, sequential = context
        with RolloutPool(
            nl, config, workers=1, start_method=method, task_timeout=TASK_TIMEOUT
        ) as pool:
            pool.submit(selections[0])
            assert pool._slots[0].conn.poll(30.0)  # the result is in the pipe
            time.sleep(TASK_TIMEOUT + 0.5)
            rewards = pool.evaluate([selections[0]])
            stats = pool.stats()
        assert pickle.dumps(rewards) == pickle.dumps(sequential[:1])
        assert stats["task_timeouts"] == 0
        assert stats["worker_restarts"] == 0


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_heartbeat_detects_frozen_worker(context, monkeypatch):
    """A SIGSTOPped worker stops heartbeating and is replaced well before
    the (long) task timeout would fire."""
    nl, config, selections, sequential = context
    monkeypatch.setattr(parallel, "HEARTBEAT_TIMEOUT", 0.5)
    with RolloutPool(
        nl, config, workers=1, start_method="fork", task_timeout=60.0
    ) as pool:
        # Wait for the first heartbeat (it implies the ready handshake is
        # already in the pipe), then freeze the worker under the pool's nose.
        deadline = time.monotonic() + 10.0
        while pool._slots[0].heartbeat.value == 0.0 and time.monotonic() < deadline:
            time.sleep(0.01)
        victim = pool._slots[0].process
        os.kill(victim.pid, signal.SIGSTOP)
        try:
            watch = time.monotonic()
            rewards = pool.evaluate(selections[:2])
            elapsed = time.monotonic() - watch
            stats = pool.stats()
        finally:
            try:
                os.kill(victim.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
    assert pickle.dumps(rewards) == pickle.dumps(sequential[:2])
    assert stats["worker_restarts"] >= 1
    assert elapsed < 30.0  # heartbeat fired, not the 60s task timeout
