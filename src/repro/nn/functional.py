"""Functional building blocks on top of :mod:`repro.nn.tensor`.

The attention decoder (paper Eq. 5–6) needs a numerically stable *masked*
softmax where masked positions (already-selected or overlap-masked endpoints)
receive probability exactly zero — the paper expresses this as attention
scores of −∞.  We implement that here without ever materializing infinities
inside the autograd tape.
"""

from __future__ import annotations


import numpy as np

from repro.nn.tensor import Tensor, as_tensor, where


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    logits = as_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    logits = as_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_softmax(logits: Tensor, valid: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over the positions where ``valid`` is True; zeros elsewhere.

    Equivalent to setting invalid logits to −∞ (paper Eq. 5) and taking a
    softmax (Eq. 6), but implemented so no ``inf`` or ``nan`` enters the tape.
    Gradients flow only through valid positions.
    """
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != logits.shape:
        raise ValueError(
            f"valid mask shape {valid.shape} must match logits shape {logits.shape}"
        )
    if not valid.any():
        raise ValueError("masked_softmax requires at least one valid position")
    # Shift by the max over *valid* entries only, then zero out invalid ones.
    valid_data = np.where(valid, logits.data, -np.inf)
    shift = valid_data.max(axis=axis, keepdims=True)
    shifted = logits - Tensor(shift)
    exp = where(valid, shifted.exp(), Tensor(np.zeros(logits.shape)))
    total = exp.sum(axis=axis, keepdims=True)
    return exp / total


def masked_log_prob(logits: Tensor, valid: np.ndarray, index: int) -> Tensor:
    """Log-probability of position ``index`` under the masked softmax.

    Computed directly in log space for numerical stability; used by the
    REINFORCE update (paper Eq. 7) where ``log π(a_t | s_t)`` is needed.

    One tape node over ``logits`` with a hand-written backward.  It keeps
    the per-op chain's expressions: shift by the valid maximum, ``exp``,
    zero the masked entries, sum, ``log``; the gradient is
    ``onehot(index)·g − g·softmax``.  Values and gradients are bitwise
    equal to that chain, except that a masked entry's gradient is always
    an exact zero (the chain multiplied it by the unmasked ``exp``, which
    made it ``nan`` when a masked logit overflowed).
    ``valid`` is copied: the backward reads it after the selection env
    has flipped its mask in place for the next step.
    """
    valid = np.array(valid, dtype=bool, copy=True)
    if logits.ndim != 1:
        raise ValueError("masked_log_prob expects a 1-D logit vector")
    if not valid[index]:
        raise ValueError(f"action index {index} is masked out")
    valid_data = np.where(valid, logits.data, -np.inf)
    shifted = logits.data - float(valid_data.max())
    exp = np.where(valid, np.exp(shifted), 0.0)
    total = exp.sum()

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            # The action's term reaches its logit through a one-hot row,
            # added after the softmax term as the per-op chain adds it.
            onehot = np.zeros_like(shifted)
            onehot[index] += grad
            softmax_term = -grad / total * valid * exp
            softmax_term += onehot
            logits._accumulate_owned(softmax_term)

    return Tensor._make(shifted[index] - np.log(total), (logits,), backward)


def mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = prediction - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def clip_gradient_norm(parameters, max_norm: float) -> float:
    """Scale accumulated gradients in-place so their global L2 norm ≤ ``max_norm``.

    Returns the pre-clipping norm.  Parameters with no gradient are skipped.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


def entropy(probabilities: Tensor, eps: float = 1e-12) -> Tensor:
    """Shannon entropy of a probability vector (zeros contribute zero).

    Positions with probability ≤ ``eps`` are treated as exact zeros: their
    ``p·log p`` term — and its gradient — vanish, matching the limit.
    """
    mask = probabilities.data > eps
    # log(1) = 0 at masked positions, so masked terms contribute nothing.
    clamped = where(mask, probabilities, Tensor(np.ones(probabilities.shape)))
    return -(probabilities * clamped.log()).sum()
