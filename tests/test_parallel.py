"""Tests for the parallel flow-reward evaluator and rollout pool."""

from __future__ import annotations

import pickle

import pytest

from repro.agent import parallel
from repro.agent.baselines import select_random, select_worst_slack
from repro.agent.env import EndpointSelectionEnv
from repro.agent.parallel import (
    FlowReward,
    RewardCache,
    RolloutPool,
    _task_message,
    evaluate_selections,
    fork_available,
    resolve_start_method,
)
from repro.ccd.flow import FlowConfig, snapshot_netlist_state


@pytest.fixture
def context(small_design):
    nl, period = small_design
    env = EndpointSelectionEnv(nl, period)
    return nl, period, env


class TestEvaluateSelections:
    def test_sequential_returns_one_reward_per_selection(self, context):
        nl, period, env = context
        selections = [select_worst_slack(env, k) for k in (0, 2, 5)]
        rewards = evaluate_selections(nl, FlowConfig(clock_period=period), selections)
        assert len(rewards) == 3
        for reward, selection in zip(rewards, selections):
            assert isinstance(reward, FlowReward)
            assert reward.num_selected == len(selection)
            assert reward.tns <= 0.0

    def test_netlist_left_at_snapshot(self, context):
        nl, period, env = context
        before = snapshot_netlist_state(nl)
        evaluate_selections(
            nl, FlowConfig(clock_period=period), [select_worst_slack(env, 3)]
        )
        after = snapshot_netlist_state(nl)
        assert before == after

    def test_empty_selection_matches_default_flow(self, context):
        from repro.ccd.flow import restore_netlist_state, run_flow

        nl, period, env = context
        snapshot = snapshot_netlist_state(nl)
        (reward,) = evaluate_selections(nl, FlowConfig(clock_period=period), [[]])
        direct = run_flow(nl, FlowConfig(clock_period=period))
        restore_netlist_state(nl, snapshot)
        assert reward.tns == pytest.approx(direct.final.tns)
        assert reward.nve == direct.final.nve

    def test_deterministic_across_calls(self, context):
        nl, period, env = context
        sel = [select_random(env, 4, rng=1)]
        a = evaluate_selections(nl, FlowConfig(clock_period=period), sel)
        b = evaluate_selections(nl, FlowConfig(clock_period=period), sel)
        assert a == b

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_parallel_matches_sequential(self, context):
        nl, period, env = context
        selections = [select_random(env, 3, rng=i) for i in range(3)]
        config = FlowConfig(clock_period=period)
        seq = evaluate_selections(nl, config, selections)
        with RolloutPool(nl, config, workers=3) as pool:
            par = pool.evaluate(selections)
        assert seq == par


class TestTaskPayload:
    def test_task_payload_is_o_selection_not_o_netlist(self, context):
        """Regression: the pre-pool evaluator re-pickled the whole netlist
        into every worker task; pool tasks must stay O(selection)."""
        nl, period, env = context
        selection = select_worst_slack(env, 8)
        payload = pickle.dumps(_task_message(7, 0, selection))
        netlist_size = len(pickle.dumps(nl))
        assert len(payload) < 512
        assert len(payload) * 100 < netlist_size

    def test_task_payload_grows_with_selection_only(self, context):
        nl, period, env = context
        small = len(pickle.dumps(_task_message(0, 0, select_worst_slack(env, 1))))
        large = len(pickle.dumps(_task_message(0, 0, select_worst_slack(env, 9))))
        # Eight more endpoints cost a few dozen bytes, not a netlist.
        assert large - small < 256


class TestRewardCache:
    def test_hit_returns_stored_reward(self, context):
        nl, period, env = context
        config = FlowConfig(clock_period=period)
        snapshot = snapshot_netlist_state(nl)
        cache = RewardCache.for_context(snapshot, config)
        selection = select_worst_slack(env, 3)
        assert cache.get(selection) is None
        (reward,) = evaluate_selections(
            nl, config, [selection], snapshot=snapshot, cache=cache
        )
        assert cache.get(selection) == reward
        assert cache.hits == 1 and cache.misses == 2

    def test_cached_rewards_identical_to_recompute(self, context):
        nl, period, env = context
        config = FlowConfig(clock_period=period)
        snapshot = snapshot_netlist_state(nl)
        cache = RewardCache.for_context(snapshot, config)
        selections = [select_worst_slack(env, k) for k in (0, 2, 4)]
        first = evaluate_selections(
            nl, config, selections, snapshot=snapshot, cache=cache
        )
        replay = evaluate_selections(
            nl, config, selections, snapshot=snapshot, cache=cache
        )
        uncached = evaluate_selections(
            nl, config, selections, snapshot=snapshot
        )
        assert pickle.dumps(first) == pickle.dumps(replay) == pickle.dumps(uncached)
        assert cache.hits == len(selections)

    def test_key_distinguishes_selection_order(self, context):
        nl, period, env = context
        snapshot = snapshot_netlist_state(nl)
        cache = RewardCache.for_context(snapshot, FlowConfig(clock_period=period))
        a, b = env.endpoints[0], env.endpoints[1]
        assert cache.key([a, b]) != cache.key([b, a])

    def test_key_distinguishes_flow_config(self, context):
        nl, period, env = context
        snapshot = snapshot_netlist_state(nl)
        one = RewardCache.for_context(snapshot, FlowConfig(clock_period=period))
        two = RewardCache.for_context(
            snapshot, FlowConfig(clock_period=period, datapath_effort=1.5)
        )
        selection = select_worst_slack(env, 2)
        assert one.key(selection) != two.key(selection)

    def test_fifo_eviction_bounds_entries(self, context, monkeypatch):
        nl, period, env = context
        snapshot = snapshot_netlist_state(nl)
        monkeypatch.setattr(parallel, "CACHE_MAX_ENTRIES", 2)
        cache = RewardCache.for_context(snapshot, FlowConfig(clock_period=period))
        reward = FlowReward(tns=-1.0, wns=-0.5, nve=1, num_selected=1)
        for endpoint in env.endpoints[:3]:
            cache.put([endpoint], reward)
        assert len(cache) == 2
        assert cache.get([env.endpoints[0]]) is None  # evicted first-in


class TestRolloutPool:
    def test_sequential_degradation_without_processes(self, context):
        nl, period, env = context
        config = FlowConfig(clock_period=period)
        selections = [select_worst_slack(env, k) for k in (1, 3)]
        with RolloutPool(nl, config, workers=1) as pool:
            assert pool.start_method is None
            rewards = pool.evaluate(selections)
        direct = evaluate_selections(nl, config, selections)
        assert rewards == direct

    def test_in_process_flows_run_in_evaluate(self, context, monkeypatch):
        """Without worker processes ``submit`` only queues: the flow runs
        inside ``evaluate``, where the caller waits for its reward."""
        nl, period, env = context
        flows = []
        run_flow = parallel.run_flow

        def counting_run_flow(*args, **kwargs):
            flows.append(args)
            return run_flow(*args, **kwargs)

        monkeypatch.setattr(parallel, "run_flow", counting_run_flow)
        selection = select_worst_slack(env, 2)
        with RolloutPool(nl, FlowConfig(clock_period=period), workers=1) as pool:
            pool.submit(selection)
            assert flows == []
            pool.evaluate([selection])
        assert len(flows) == 1

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_pool_reused_across_batches(self, context):
        nl, period, env = context
        config = FlowConfig(clock_period=period)
        batch1 = [select_worst_slack(env, k) for k in (1, 2)]
        batch2 = [select_random(env, 3, rng=7), select_worst_slack(env, 4)]
        with RolloutPool(nl, config, workers=2, start_method="fork") as pool:
            one = pool.evaluate(batch1)
            two = pool.evaluate(batch2)
        assert one == evaluate_selections(nl, config, batch1)
        assert two == evaluate_selections(nl, config, batch2)

    def test_closed_pool_rejects_evaluate(self, context):
        nl, period, env = context
        pool = RolloutPool(nl, FlowConfig(clock_period=period), workers=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.evaluate([[]])

    def test_invalid_parameters_raise(self, context):
        nl, period, env = context
        config = FlowConfig(clock_period=period)
        with pytest.raises(ValueError):
            RolloutPool(nl, config, workers=0)
        with pytest.raises(ValueError):
            RolloutPool(nl, config, workers=1, task_timeout=0.0)

    def test_unknown_start_method_degrades_to_sequential(self, context):
        nl, period, env = context
        assert resolve_start_method("not-a-method") is None
        with RolloutPool(
            nl, FlowConfig(clock_period=period), workers=4, start_method="not-a-method"
        ) as pool:
            assert pool.start_method is None
            (reward,) = pool.evaluate([select_worst_slack(env, 2)])
        assert isinstance(reward, FlowReward)


@pytest.mark.wallclock
class TestPooledThroughputRegression:
    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_pooled_not_slower_than_sequential(self, context):
        """Guard on the pooled-dispatch regression fixed with batched
        submission: a warmed 2-worker pool must keep up with sequential
        evaluation at smoke scale (it used to run ~1.45x slower because
        tasks were dispatched one at a time).  Single-CPU runners can only
        reach parity, so the allowed factor is loose there and tight when
        real parallelism is available; best-of-3 on both sides absorbs
        scheduler noise."""
        import os
        import time

        nl, period, env = context
        config = FlowConfig(clock_period=period)
        selections = [select_worst_slack(env, k) for k in (1, 2, 3, 4)]
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            cpus = os.cpu_count() or 1
        factor = 1.25 if cpus == 1 else 1.05

        def best_of(run, passes=3):
            best = float("inf")
            for _ in range(passes):
                start = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - start)
            return best

        sequential = best_of(
            lambda: evaluate_selections(nl, config, selections)
        )
        with RolloutPool(nl, config, workers=2, start_method="fork") as pool:
            pool.evaluate(selections)  # untimed warm-up batch
            pooled = best_of(lambda: pool.evaluate(selections))
        assert pooled <= sequential * factor, (
            f"pooled evaluation regressed: {pooled:.3f}s vs sequential "
            f"{sequential:.3f}s (allowed factor {factor} on {cpus} cpus)"
        )
