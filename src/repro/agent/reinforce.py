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
  :mod:`repro.agent.parallel` and ``docs/rollout.md``.  A batch streams
  through one loop: each selection is submitted as soon as it is
  sampled.  A trajectory's reward enters Eq. 7 only through its scalar
  advantage, so its backward runs before the reward arrives: once the
  next trajectory is sampled and submitted (the last right after its own
  submit), a unit-seeded reverse walk stores ∇Σ_t log π (and a second,
  with an entropy term, ∇Σ_t H) and the tape is dropped.  Rewards are
  then awaited in submission order and each stored gradient is added in,
  scaled by its advantage.  Rollouts and backwards overlap the workers'
  flows, at most two autograd tapes are alive, and none lives through a
  flow.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.obs import telemetry as obs_telemetry
from repro.agent.env import EndpointSelectionEnv
from repro.agent.parallel import (
    RewardCache,
    RolloutPool,
    evaluate_selections,
    rollout_stats,
)
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
from repro.nn.tensor import Tensor, clear_grads
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

#: Smallest reward gain that counts as an improvement for early stopping.
PLATEAU_TOLERANCE = 1e-6

#: Adam step size.
LEARNING_RATE = 2e-3

#: Global gradient-norm clip applied before each optimizer step.
GRADIENT_CLIP = 5.0

#: Cap on selections per trajectory.  Each step keeps O(dirty region)
#: EP-GNN state for the episode's reverse pass (not an n-row tape), plus
#: its LSTM and decoder nodes, until its backward; 48 comfortably covers
#: the selection sizes the paper reports (e.g. 74 endpoints on a
#: 180K-cell block maps to far fewer at our design scale).
MAX_SELECTION_STEPS = 48


@dataclass(frozen=True)
class TrainConfig:
    """Trainer knobs.

    ``workers > 1`` evaluates the flow rewards of each update batch in
    parallel processes (the paper's 8-process farm training, §IV-A); it is
    numerically identical to sequential evaluation because flows are
    deterministic.  Where ``fork`` is missing, the pool starts its workers
    with ``spawn``.  Every worker count runs one loop: each trajectory is
    backpropagated before its reward is awaited (module docstring), so
    ``workers`` sets how many flows run at once, not how many tapes live.

    The step size, the gradient clip and the per-trajectory selection cap
    are the module constants :data:`LEARNING_RATE`, :data:`GRADIENT_CLIP`
    and :data:`MAX_SELECTION_STEPS`, read when training starts.
    """

    max_episodes: int = 40
    episodes_per_update: int = 1
    plateau_patience: int = 3  # paper: stop after 3 non-improving iterations
    workers: int = 1
    # Entropy regularization: adds −coef·Σ_t H(P_t) to the loss, pushing
    # the policy to keep exploring when rewards are flat.  0 disables (the
    # paper does not mention one; useful on hard designs).
    entropy_coefficient: float = 0.0
    # Per-task wall-clock budget for one pooled flow evaluation; a worker
    # exceeding it is killed and the task retried (then run sequentially).
    rollout_timeout: float = 120.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("max_episodes", self.max_episodes)
        check_positive("episodes_per_update", self.episodes_per_update)
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


@dataclass
class _Backpropagated:
    """A sampled trajectory after its backward, its tape dropped: the
    selection, its telemetry, and per parameter ∇Σ_t log π and (with an
    entropy term) ∇Σ_t H, ``None`` where the walk left no gradient."""

    selection: List[int]
    telemetry: Optional[obs_telemetry.EpisodeTelemetry]
    log_prob_grads: List[Optional[np.ndarray]]
    entropy_grads: Optional[List[Optional[np.ndarray]]]


def _walk(root: Tensor, params: Sequence[Tensor]) -> List[Optional[np.ndarray]]:
    """Unit-seeded backward from ``root``; takes the parameters' gradients
    (which must be ``None`` beforehand) and leaves them ``None``."""
    root.backward()
    grads = [param.grad for param in params]
    for param in params:
        param.grad = None
    return grads


def _add_scaled(
    params: Sequence[Tensor], grads: List[Optional[np.ndarray]], scale: float
) -> None:
    for param, grad in zip(params, grads):
        if grad is not None:
            param._accumulate_owned(grad * scale)


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
    params = policy.parameters()
    optimizer = Adam(params, lr=LEARNING_RATE)
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

    # Run-record bookkeeping (only populated while tracing): cumulative
    # per-endpoint selection counts, and the episode payloads of the update
    # batch in flight — gradient norms exist only once the optimizer step
    # has run, so records are staged in ``process`` and emitted after it.
    selection_counts: Counter = Counter()
    pending_records: List[Dict[str, Any]] = []

    def backpropagate(trajectory: Trajectory, index: int) -> _Backpropagated:
        """The reward-independent gradients of one trajectory, whose tape
        the caller then drops."""
        with obs.span("agent.backward", attrs={"episode": index}):
            log_prob = trajectory.total_log_prob()
            log_prob_grads = _walk(log_prob, params)
            entropy_grads = None
            if config.entropy_coefficient > 0:
                # The second walk shares the tape: it must start from no
                # interior gradient.
                clear_grads(log_prob)
                entropy_grads = _walk(trajectory.total_entropy(), params)
        return _Backpropagated(
            trajectory.action_cells, trajectory.telemetry, log_prob_grads, entropy_grads
        )

    def process(sample: _Backpropagated, flow_reward, batch_size: int) -> bool:
        """Norm update, REINFORCE gradient, bookkeeping; returns improved."""
        nonlocal episode, best_tns, best_selection
        selection = sample.selection
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
        _add_scaled(params, sample.log_prob_grads, -advantage / batch_size)
        if sample.entropy_grads is not None:
            _add_scaled(
                params, sample.entropy_grads, -config.entropy_coefficient / batch_size
            )
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
                    sample.telemetry,
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
        if reward > best_tns + PLATEAU_TOLERANCE:
            best_tns = reward
            best_selection = list(selection)
            return True
        return False

    # Reward evaluation: a content-addressed cache shared by both backends,
    # plus — for workers > 1 — a persistent fault-tolerant pool whose
    # workers load the design snapshot once for the whole training run.
    cache = RewardCache.for_context(snapshot, flow_config)
    pool: Optional[RolloutPool] = None
    if config.workers > 1:
        pool = RolloutPool(
            env.netlist,
            flow_config,
            workers=config.workers,
            snapshot=snapshot,
            task_timeout=config.rollout_timeout,
            cache=cache,
        )

    def evaluate(selection: List[int]):
        if pool is not None:
            return pool.evaluate([selection])[0]
        return evaluate_selections(
            env.netlist, flow_config, [selection], snapshot=snapshot, cache=cache
        )[0]

    # The rollout record's ``tasks`` (episodes) and ``batches`` (updates).
    counts: Counter = Counter()

    try:
        while episode < config.max_episodes:
            optimizer.zero_grad()
            batch_improved = False
            batch_size = min(config.episodes_per_update, config.max_episodes - episode)
            counts["batches"] += 1
            # Each trajectory is backpropagated once the next one is sampled
            # and submitted, while the workers run flows, and its tape dies
            # with that backward: at most two are alive, and none while a
            # reward is awaited.  Every walk of a batch runs before its first
            # ``process``, so the parameters' gradients are ``None`` for
            # each.  Weights are fixed within a batch and nothing here draws
            # from ``rng``.
            sampled: List[_Backpropagated] = []
            previous: Optional[Trajectory] = None
            for index in range(batch_size):
                with obs.span("agent.rollout", attrs={"episode": episode + index}):
                    trajectory = policy.rollout(
                        env,
                        rng=rng,
                        max_steps=MAX_SELECTION_STEPS,
                        with_entropy=config.entropy_coefficient > 0,
                    )
                    if pool is not None:
                        pool.submit(trajectory.action_cells)
                counts["tasks"] += 1
                if previous is not None:
                    sampled.append(backpropagate(previous, episode + index - 1))
                previous = trajectory
                del trajectory
            sampled.append(backpropagate(previous, episode + batch_size - 1))
            previous = None
            # Rewards in submission order: ``process`` adds each stored
            # gradient, scaled by its advantage, in episode order.
            for sample in sampled:
                with obs.span("agent.flow_eval", attrs={"episode": episode}):
                    flow_reward = evaluate(sample.selection)
                batch_improved = process(sample, flow_reward, batch_size) or batch_improved

            with obs.span("agent.update", attrs={"episode": episode}):
                grad_norm = clip_gradient_norm(policy.parameters(), GRADIENT_CLIP)
                optimizer.step()

            if pending_records:
                # The whole batch shared one gradient step; every staged
                # episode record gets that update's pre/post-clip norms,
                # then ships.
                postclip = min(grad_norm, GRADIENT_CLIP)
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
        if obs.records_active():
            # The pool counts a batch per evaluate call; the record, updates.
            stats = pool.stats() if pool is not None else rollout_stats({}, 1, "sequential", cache)
            stats.update(counts)
            stats["seed"] = config.seed
            # The begin state trained on, not the netlist as a failed flow
            # may have left it.
            stats["design_digest"] = f"{cache.design_digest}@{env.clock_period:.9g}"
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
