"""Pointer-network attention used as the action decoder (paper Eq. 5–6).

Given the LSTM query ``q_t`` and the EP-GNN endpoint embeddings
``F_EP ∈ R^{|EP|×d}``, the attention score of endpoint *i* is

    A_t^(i) = vᵀ tanh(W1 · F_EP^(i) + W2 · q_t)      (valid endpoints)
    A_t^(i) = −∞                                      (selected/masked)

and the selection distribution is ``softmax(A_t)`` — implemented as a masked
softmax so invalid endpoints receive exactly zero probability.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn import init
from repro.nn.functional import masked_softmax
from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, as_rng


class PointerAttention(Module):
    """Additive (Bahdanau-style) attention producing selection logits."""

    def __init__(self, embed_dim: int, query_dim: int, hidden_dim: int, rng: SeedLike = None):
        super().__init__()
        if min(embed_dim, query_dim, hidden_dim) <= 0:
            raise ValueError("PointerAttention dimensions must be positive")
        rng = as_rng(rng)
        self.embed_dim = embed_dim
        self.query_dim = query_dim
        self.hidden_dim = hidden_dim
        self.w1 = self.register_parameter("w1", init.xavier_uniform((embed_dim, hidden_dim), rng))
        self.w2 = self.register_parameter("w2", init.xavier_uniform((query_dim, hidden_dim), rng))
        self.v = self.register_parameter("v", init.xavier_uniform((hidden_dim,), rng))

    def scores(self, embeddings: Tensor, query: Tensor) -> Tensor:
        """Unmasked attention scores ``A_t ∈ R^{|EP|}`` (Eq. 5, valid branch).

        One tape node with a hand-written backward; its parents are the
        embeddings, the query, ``w1``, ``w2`` and ``v``.  Forward and
        backward evaluate the per-op chain
        ``(embeddings @ w1 + query @ w2).tanh() @ v`` expression for
        expression, so values and gradients are bitwise equal to it.
        """
        if embeddings.ndim != 2 or embeddings.shape[1] != self.embed_dim:
            raise ValueError(
                f"embeddings must have shape (n, {self.embed_dim}), got {embeddings.shape}"
            )
        if query.shape != (self.query_dim,):
            raise ValueError(
                f"query must have shape ({self.query_dim},), got {query.shape}"
            )
        w1, w2, v = self.w1, self.w2, self.v
        hidden = np.tanh(embeddings.data @ w1.data + query.data @ w2.data)

        def backward(grad: np.ndarray) -> None:
            if v.requires_grad:
                v._accumulate_owned(hidden.T @ grad)
            d_pre = np.outer(grad, v.data) * (1.0 - hidden**2)
            if embeddings.requires_grad:
                embeddings._accumulate_owned(d_pre @ w1.data.T)
            if w1.requires_grad:
                w1._accumulate_owned(embeddings.data.T @ d_pre)
            if query.requires_grad or w2.requires_grad:
                d_query = d_pre.sum(axis=0)  # the query row was broadcast
                if query.requires_grad:
                    query._accumulate_owned(w2.data @ d_query)
                if w2.requires_grad:
                    w2._accumulate_owned(np.outer(query.data, d_query))

        return Tensor._make(hidden @ v.data, (embeddings, query, w1, w2, v), backward)

    def forward(self, embeddings: Tensor, query: Tensor, valid: np.ndarray) -> Tensor:
        """Selection probabilities ``P_t`` over endpoints (Eq. 6).

        ``valid`` marks endpoints that are neither selected nor masked; they
        are the only positions with non-zero probability.
        """
        return masked_softmax(self.scores(embeddings, query), np.asarray(valid, dtype=bool))

    def __repr__(self) -> str:
        return (
            f"PointerAttention(embed_dim={self.embed_dim}, "
            f"query_dim={self.query_dim}, hidden_dim={self.hidden_dim})"
        )


def logit_stats(
    scores: np.ndarray,
    valid: np.ndarray,
    probabilities: Optional[np.ndarray] = None,
) -> Dict[str, float]:
    """Diagnostics of one decode step's attention logits (telemetry).

    Over the *valid* endpoints only (masked positions carry −∞ semantics,
    not information): the raw logit range plus two concentration measures
    of the masked softmax ``P_t`` —

    * ``top_prob`` — probability mass on the argmax endpoint;
    * ``concentration`` — Σ p² (the Herfindahl index / inverse
      participation ratio): 1/k for a uniform k-way choice, → 1 as the
      distribution collapses onto one endpoint.

    Pass ``probabilities`` when the masked softmax is already computed (the
    rollout hot path does) to avoid recomputing it; entropy lives on the
    telemetry record separately.
    """
    scores = np.asarray(scores, dtype=float)
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise ValueError("logit_stats requires at least one valid position")
    valid_scores = scores[valid]
    if probabilities is None:
        shifted = valid_scores - valid_scores.max()
        exp = np.exp(shifted)
        probs = exp / exp.sum()
    else:
        probs = np.asarray(probabilities, dtype=float)[valid]
    return {
        "logit_min": float(valid_scores.min()),
        "logit_max": float(valid_scores.max()),
        "top_prob": float(probs.max()),
        "concentration": float((probs**2).sum()),
    }
