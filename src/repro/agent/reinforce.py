"""REINFORCE training loop (paper Algorithm 1 and Eq. 7).

Each training iteration:

1. roll out one (or ``episodes_per_update``) selection trajectories with the
   current policy;
2. run the full placement-optimization flow with the selected endpoints
   prioritized; the achieved final **TNS is the reward** (zero for all
   intermediate actions — a single terminal reward per trajectory);
3. update {θ_gnn, θ_LSTM, θ_attn} by ascending
   ``∇_θ Σ_t R(τ)·log π(a_t | s_t)``.

Practicalities the paper leaves implicit, implemented the standard way:

* **reward normalization** — raw TNS values are design-scale dependent, so
  the advantage is ``(R − running mean) / running std`` over the episodes
  seen so far (a moving-baseline variance reduction that does not bias the
  REINFORCE gradient);
* **early stopping** — "training is terminated when the TNS value no longer
  improves in 3 consecutive iterations" (§IV-A); we use the same plateau
  rule with a configurable patience and an episode cap;
* the paper trains with 8 parallel CPU processes; we batch
  ``episodes_per_update`` rollouts per gradient step and (optionally)
  evaluate their flow rewards across a persistent, fault-tolerant
  :class:`~repro.agent.parallel.RolloutPool` of ``workers`` processes,
  with a content-addressed reward cache that replays re-sampled
  trajectories without re-running the flow — see
  :mod:`repro.agent.parallel` and ``docs/rollout.md``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.obs import telemetry as obs_telemetry
from repro.agent.env import EndpointSelectionEnv
from repro.agent.parallel import RewardCache, RolloutPool, evaluate_selections
from repro.agent.policy import RLCCDPolicy, Trajectory
from repro.ccd.flow import (
    FlowConfig,
    FlowResult,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.nn.functional import clip_gradient_norm
from repro.nn.optim import Adam
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TrainConfig:
    """Trainer knobs.

    ``workers > 1`` evaluates the flow rewards of each update batch in
    parallel processes (the paper's 8-process farm training, §IV-A); it is
    numerically identical to sequential evaluation because flows are
    deterministic, and degrades gracefully where ``fork`` is unavailable.
    """

    max_episodes: int = 40
    episodes_per_update: int = 1
    learning_rate: float = 2e-3
    gradient_clip: float = 5.0
    plateau_patience: int = 3  # paper: stop after 3 non-improving iterations
    plateau_tolerance: float = 1e-6
    workers: int = 1
    # Cap on selections per trajectory.  Each step's EP-GNN run stays on the
    # autograd tape until the update, so unbounded trajectories on large
    # designs are a memory hazard; 48 comfortably covers the selection sizes
    # the paper reports (e.g. 74 endpoints on a 180K-cell block maps to far
    # fewer at our design scale).  Set to 0 for uncapped paper-exact loops.
    max_selection_steps: int = 48
    # Entropy regularization: adds −coef·Σ_t H(P_t) to the loss, pushing
    # the policy to keep exploring when rewards are flat.  0 disables (the
    # paper does not mention one; useful on hard designs).
    entropy_coefficient: float = 0.0
    # Per-task wall-clock budget for one pooled flow evaluation; a worker
    # exceeding it is killed and the task retried (then run sequentially).
    rollout_timeout: float = 120.0
    # Content-addressed reward cache: re-sampled trajectories (common once
    # entropy collapses) replay their stored FlowReward instead of
    # re-running the flow.  Rewards are identical either way.
    reward_cache: bool = True
    # Pool process start method: None → fork where available, else spawn
    # (REPRO_ROLLOUT_START_METHOD overrides the default).
    rollout_start_method: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("max_episodes", self.max_episodes)
        check_positive("episodes_per_update", self.episodes_per_update)
        check_positive("learning_rate", self.learning_rate)
        check_positive("plateau_patience", self.plateau_patience)
        check_positive("workers", self.workers)
        check_positive("rollout_timeout", self.rollout_timeout)
        if self.entropy_coefficient < 0:
            raise ValueError("entropy_coefficient must be non-negative")


@dataclass
class EpisodeRecord:
    """Per-episode training telemetry."""

    episode: int
    tns: float
    wns: float
    nve: int
    num_selected: int
    advantage: float


@dataclass
class TrainingResult:
    """Outcome of one :func:`train_rlccd` run."""

    history: List[EpisodeRecord]
    best_tns: float
    best_selection: List[int]
    best_flow: Optional[FlowResult]
    episodes_run: int
    converged: bool

    @property
    def tns_curve(self) -> np.ndarray:
        return np.array([r.tns for r in self.history])

    @property
    def best_so_far_curve(self) -> np.ndarray:
        return np.maximum.accumulate(self.tns_curve)


class _RunningNorm:
    """Running mean/std for reward normalization (Welford)."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 1.0
        return max(math.sqrt(self._m2 / (self.count - 1)), 1e-8)

    def advantage(self, value: float) -> float:
        return (value - self.mean) / self.std


def train_rlccd(
    policy: RLCCDPolicy,
    env: EndpointSelectionEnv,
    flow_config: FlowConfig,
    config: TrainConfig = TrainConfig(),
    progress: Optional[Callable[[EpisodeRecord], None]] = None,
) -> TrainingResult:
    """Train ``policy`` on one design (Algorithm 1, single-design mode).

    The design netlist is snapshotted once and restored before every flow
    run, so all episodes replay from the identical post-global-placement
    state, matching the paper's same-seed, apples-to-apples protocol.
    """
    rng = as_rng(config.seed)
    optimizer = Adam(policy.parameters(), lr=config.learning_rate)
    snapshot = snapshot_netlist_state(
        env.netlist, verify_clock_period=flow_config.clock_period
    )
    norm = _RunningNorm()
    log = obs.get_logger("agent.reinforce")

    history: List[EpisodeRecord] = []
    best_tns = -np.inf
    best_selection: List[int] = []
    best_flow: Optional[FlowResult] = None
    plateau = 0
    converged = False
    episode = 0

    max_steps = config.max_selection_steps if config.max_selection_steps > 0 else None

    # Run-record bookkeeping (only populated while tracing): cumulative
    # per-endpoint selection counts, and the episode payloads of the update
    # batch in flight — gradient norms exist only once the optimizer step
    # has run, so records are staged in ``process`` and emitted after it.
    selection_counts: Counter = Counter()
    pending_records: List[Dict[str, Any]] = []

    def process(trajectory: Trajectory, flow_reward, batch_size: int) -> bool:
        """Norm update, REINFORCE backward, bookkeeping; returns improved."""
        nonlocal episode, best_tns, best_selection
        selection = trajectory.action_cells
        reward = flow_reward.tns  # negative; maximization = improvement
        # One NaN would poison the running mean for every later advantage.
        if not np.isfinite(reward):
            raise ValueError(
                f"episode {episode}: non-finite reward tns={reward!r} "
                f"for selection {list(selection)}"
            )
        norm.update(reward)
        advantage = norm.advantage(reward)
        # Eq. 7: ∇ Σ_t R·log π — we minimize the negated, advantage-
        # weighted log-likelihood, averaged over the update batch.
        loss = trajectory.total_log_prob() * (-advantage / batch_size)
        if config.entropy_coefficient > 0:
            loss = loss + trajectory.total_entropy() * (
                -config.entropy_coefficient / batch_size
            )
        loss.backward()
        record = EpisodeRecord(
            episode=episode,
            tns=flow_reward.tns,
            wns=flow_reward.wns,
            nve=flow_reward.nve,
            num_selected=len(selection),
            advantage=advantage,
        )
        history.append(record)
        if progress is not None:
            progress(record)
        log.debug(
            "episode %d: tns=%.4f wns=%.4f selected=%d advantage=%.3f",
            episode,
            record.tns,
            record.wns,
            record.num_selected,
            record.advantage,
        )
        if obs.records_active():
            selection_counts.update(selection)
            gamma = getattr(policy, "epgnn", None)
            pending_records.append(
                obs_telemetry.episode_payload(
                    {
                        "episode": episode,
                        "seed": config.seed,
                        "reward": reward,
                        "tns": record.tns,
                        "wns": record.wns,
                        "nve": record.nve,
                        "num_selected": record.num_selected,
                        "advantage": record.advantage,
                    },
                    trajectory.telemetry,
                    baseline={
                        "mean": norm.mean,
                        "std": norm.std,
                        "count": norm.count,
                    },
                    selection_frequency=dict(selection_counts),
                    gnn_gamma=gamma.gamma_values() if gamma is not None else None,
                )
            )
        episode += 1
        if reward > best_tns + config.plateau_tolerance:
            best_tns = reward
            best_selection = list(selection)
            return True
        return False

    # Reward evaluation backends: a content-addressed cache shared by both
    # paths, plus — for workers > 1 — a persistent fault-tolerant pool whose
    # workers load the design snapshot once for the whole training run.
    cache = (
        RewardCache.for_context(snapshot, flow_config) if config.reward_cache else None
    )
    pool: Optional[RolloutPool] = None
    if config.workers > 1:
        pool = RolloutPool(
            env.netlist,
            flow_config,
            workers=config.workers,
            snapshot=snapshot,
            task_timeout=config.rollout_timeout,
            start_method=config.rollout_start_method,
            cache=cache,
        )

    try:
        while episode < config.max_episodes:
            optimizer.zero_grad()
            batch_improved = False
            batch_size = min(config.episodes_per_update, config.max_episodes - episode)

            if pool is not None:
                # Parallel reward evaluation (paper's farm training, §IV-A):
                # all batch trajectories' tapes are held while workers run.
                with obs.span(
                    "agent.rollout", attrs={"episode": episode, "batch": batch_size}
                ):
                    trajectories = [
                        policy.rollout(
                            env,
                            rng=rng,
                            max_steps=max_steps,
                            with_entropy=config.entropy_coefficient > 0,
                        )
                        for _ in range(batch_size)
                    ]
                with obs.span("agent.flow_eval", attrs={"episode": episode}):
                    rewards = pool.evaluate(
                        [t.action_cells for t in trajectories]
                    )
                for trajectory, flow_reward in zip(trajectories, rewards):
                    improved = process(trajectory, flow_reward, batch_size)
                    batch_improved = batch_improved or improved
                del trajectories
            else:
                # Sequential: interleave rollout → evaluate → backward so only
                # one trajectory's autograd tape is alive at a time.
                for _ in range(batch_size):
                    with obs.span("agent.rollout", attrs={"episode": episode}):
                        trajectory = policy.rollout(
                            env,
                            rng=rng,
                            max_steps=max_steps,
                            with_entropy=config.entropy_coefficient > 0,
                        )
                    with obs.span("agent.flow_eval", attrs={"episode": episode}):
                        (flow_reward,) = evaluate_selections(
                            env.netlist,
                            flow_config,
                            [trajectory.action_cells],
                            workers=1,
                            snapshot=snapshot,
                            cache=cache,
                        )
                    improved = process(trajectory, flow_reward, batch_size)
                    batch_improved = batch_improved or improved
                    del trajectory

            with obs.span("agent.update", attrs={"episode": episode}):
                grad_norm = clip_gradient_norm(
                    policy.parameters(), config.gradient_clip
                )
                optimizer.step()

            if pending_records:
                # The whole batch shared one gradient step; every staged
                # episode record gets that update's pre/post-clip norms,
                # then ships.
                postclip = min(grad_norm, config.gradient_clip)
                for payload in pending_records:
                    tele = payload.get("telemetry") or {}
                    tele["grad_norm_preclip"] = grad_norm
                    tele["grad_norm_postclip"] = postclip
                    payload["telemetry"] = tele
                    obs.emit("episode", payload)
                pending_records.clear()

            if batch_improved:
                plateau = 0
            else:
                plateau += 1
                if plateau >= config.plateau_patience:
                    converged = True
                    break
    finally:
        if obs.records_active() and (pool is not None or cache is not None):
            stats: Dict[str, Any] = (
                pool.stats()
                if pool is not None
                else {
                    "workers": 1,
                    "start_method": "sequential",
                    "cache_hits": cache.hits,
                    "cache_misses": cache.misses,
                    "cache_entries": len(cache),
                }
            )
            stats["seed"] = config.seed
            stats["design_fingerprint"] = env.design_fingerprint()
            obs.emit("rollout", stats)
        if pool is not None:
            pool.close()

    # Materialize the best selection's full flow result (deterministic).
    if best_selection:
        restore_netlist_state(env.netlist, snapshot)
        best_flow = run_flow(
            env.netlist, flow_config, prioritized_endpoints=best_selection
        )
    restore_netlist_state(env.netlist, snapshot)
    if obs.records_active():
        obs.emit(
            "train",
            {
                "seed": config.seed,
                "episodes_run": episode,
                "converged": converged,
                "best_tns": float(best_tns),
                "best_selection": list(best_selection),
                "design": env.netlist.name,
                "endpoints": env.num_endpoints,
            },
        )
    return TrainingResult(
        history=history,
        best_tns=float(best_tns),
        best_selection=best_selection,
        best_flow=best_flow,
        episodes_run=episode,
        converged=converged,
    )
