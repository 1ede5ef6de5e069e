"""RL-CCD policy: EP-GNN + LSTM encoder + attention decoder (paper Fig. 4).

One RL time step:

1. EP-GNN re-encodes the netlist (the "RL masked" feature column changed),
   producing endpoint embeddings ``F_EP`` — the state ``s_t``;
2. the LSTM encoder consumes the embedding of the previously selected
   endpoint, updating its hidden state; ``h_t`` becomes the query ``q_t``;
3. the pointer-attention decoder scores every endpoint against ``q_t``,
   masked softmax turns scores into the selection distribution ``P_t``;
4. an endpoint is sampled (training) or argmaxed (greedy evaluation), the
   environment applies overlap masking, and the loop continues until every
   endpoint is selected or masked.

The log-probabilities of the taken actions stay connected to the autograd
tape across the whole trajectory, so one ``backward()`` on the REINFORCE
loss trains all three components jointly ({θ_gnn, θ_LSTM, θ_attn}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import obs
from repro.agent.env import EndpointSelectionEnv
from repro.gnn import incremental as gnn_incremental
from repro.gnn.epgnn import EMBED_DIM, EPGNN
from repro.nn.attention import PointerAttention, logit_stats
from repro.nn.functional import entropy, masked_log_prob, masked_softmax
from repro.nn.layers import Module
from repro.nn.recurrent import LSTMCell
from repro.nn.tensor import Tensor, stack
from repro.obs import telemetry as obs_telemetry
from repro.utils.rng import SeedLike, as_rng


@dataclass
class Trajectory:
    """One complete selection episode (τ in the paper)."""

    actions: List[int] = field(default_factory=list)  # canonical EP positions
    action_cells: List[int] = field(default_factory=list)  # netlist cell ids
    log_probs: List[Tensor] = field(default_factory=list)  # connected to tape
    probabilities: List[np.ndarray] = field(default_factory=list)
    entropies: List[Tensor] = field(default_factory=list)  # tape-connected
    # Per-step RL telemetry; populated only while the obs recorder is
    # enabled (None otherwise — see repro.obs.telemetry).
    telemetry: Optional[obs_telemetry.EpisodeTelemetry] = None

    def __len__(self) -> int:
        return len(self.actions)

    def total_log_prob(self) -> Tensor:
        """Σ_t log π(a_t | s_t) as a single differentiable scalar.

        One ``stack(...).sum()`` node pair on the tape instead of O(T)
        chained ``+`` nodes, so the backward walk stays O(1) per trajectory.
        """
        if not self.log_probs:
            raise ValueError("empty trajectory has no log-probability")
        return stack(self.log_probs).sum()

    def total_entropy(self) -> Tensor:
        """Σ_t H(P_t) — available when the rollout recorded entropies."""
        if not self.entropies:
            raise ValueError(
                "rollout was not run with with_entropy=True; no entropy terms"
            )
        return stack(self.entropies).sum()


class RLCCDPolicy(Module):
    """The full agent: {θ_gnn, θ_LSTM, θ_attn} under one parameter tree."""

    def __init__(
        self,
        in_features: int,
        embed_dim: int = EMBED_DIM,
        lstm_hidden: int = EMBED_DIM,
        attn_hidden: int = EMBED_DIM,
        encoder_type: str = "lstm",
        rng: SeedLike = None,
    ):
        """``encoder_type``: "lstm" (paper Eq. 4) or "gru" (the lighter
        encoder-architecture ablation)."""
        super().__init__()
        rng = as_rng(rng)
        self.in_features = in_features
        self.embed_dim = embed_dim
        self.encoder_type = encoder_type
        self.epgnn = self.register_module("epgnn", EPGNN(in_features, embed_dim=embed_dim, rng=rng))
        if encoder_type == "lstm":
            encoder = LSTMCell(embed_dim, lstm_hidden, rng=rng)
        elif encoder_type == "gru":
            from repro.nn.recurrent import GRUCell

            encoder = GRUCell(embed_dim, lstm_hidden, rng=rng)
        else:
            raise ValueError(
                f"encoder_type must be 'lstm' or 'gru', got {encoder_type!r}"
            )
        self.encoder = self.register_module("encoder", encoder)
        self.decoder = self.register_module(
            "decoder", PointerAttention(embed_dim, lstm_hidden, attn_hidden, rng=rng)
        )
        # Incremental EP-GNN session, lazily built per environment and
        # reused across rollouts (the reverse adjacency and endpoint lookup
        # are episode-invariant); see repro.gnn.incremental / docs/policy.md.
        self._session: Optional[gnn_incremental.EncoderSession] = None

    def encoder_session(
        self, env: EndpointSelectionEnv
    ) -> gnn_incremental.EncoderSession:
        """The cached :class:`~repro.gnn.incremental.EncoderSession` for
        ``env`` (rebuilt if the environment changed under us)."""
        session = self._session
        if (
            session is None
            or session.graph is not env.graph
            or session.cones is not env.cones
            or session.gnn is not self.epgnn
        ):
            session = gnn_incremental.EncoderSession(
                self.epgnn, env.graph, env.cones, netlist=env.netlist
            )
            self._session = session
        return session

    def rollout(
        self,
        env: EndpointSelectionEnv,
        rng: SeedLike = None,
        greedy: bool = False,
        max_steps: Optional[int] = None,
        with_entropy: bool = False,
        incremental: bool = True,
    ) -> Trajectory:
        """Run one full selection episode (Algorithm 1 lines 3–13).

        ``with_entropy=True`` additionally records tape-connected policy
        entropies per step (for entropy-regularized training).

        ``incremental=False`` re-encodes the whole netlist every step
        instead of only the dirty region around newly masked cells — the
        full-encode oracle.  Both engines sample identical trajectories.
        """
        rng = as_rng(rng)
        session = self.encoder_session(env) if incremental else None
        state = env.reset()
        if session is not None:
            session.begin_episode()
        trajectory = Trajectory()
        trajectory.telemetry = collector = obs_telemetry.for_rollout()
        h, c = self.encoder.initial_state()
        prev_embedding = Tensor(np.zeros(self.embed_dim))  # F_{a_0} = 0
        step_limit = max_steps if max_steps is not None else env.num_endpoints

        while not state.done and len(trajectory) < step_limit:
            with obs.span("policy.step"):
                features = env.features()
                if session is not None:
                    embeddings = session.encode(features)
                else:
                    embeddings = self.epgnn(features, env.graph, env.cones)
                    obs.incr("gnn.full_encode")
                h, c = self.encoder(prev_embedding, (h, c))
                scores = self.decoder.scores(embeddings, h)
                probs = _masked_probabilities(scores.data, state.valid)
            if greedy:
                action = int(np.argmax(np.where(state.valid, probs, -1.0)))
            else:
                action = int(rng.choice(len(probs), p=probs))
            log_prob = masked_log_prob(scores, state.valid, action)

            step = len(trajectory)
            trajectory.actions.append(action)
            trajectory.action_cells.append(env.endpoints[action])
            trajectory.log_probs.append(log_prob)
            trajectory.probabilities.append(probs)
            if with_entropy:
                trajectory.entropies.append(
                    entropy(masked_softmax(scores, state.valid))
                )
            if collector is not None:
                stats = logit_stats(scores.data, state.valid, probs)

            prev_embedding = embeddings[action]
            state = env.step(action)
            if collector is not None:
                collector.record_step(
                    endpoint=env.endpoints[action],
                    step=step,
                    masked_after=len(state.masked),
                    entropy=_numpy_entropy(probs),
                    **stats,
                )
        return trajectory


def _numpy_entropy(probabilities: np.ndarray) -> float:
    """Shannon entropy of a plain probability vector (zeros contribute 0)."""
    p = probabilities[probabilities > 0]
    return float(-(p * np.log(p)).sum())


def _masked_probabilities(scores: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Plain-numpy masked softmax for sampling (no tape needed)."""
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise ValueError("no valid endpoint to sample")
    masked = np.where(valid, scores, -np.inf)
    shifted = masked - masked.max()
    exp = np.exp(shifted, where=np.isfinite(shifted), out=np.zeros_like(shifted))
    total = exp.sum()
    if total <= 0:
        raise ValueError("no valid endpoint to sample")
    return exp / total
