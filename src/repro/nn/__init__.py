"""From-scratch numpy neural-network stack.

Provides everything the RL-CCD agent needs without an external DL framework:
reverse-mode autodiff (:mod:`~repro.nn.tensor`), modules and dense layers
(:mod:`~repro.nn.layers`), the LSTM cell of paper Eq. 4
(:mod:`~repro.nn.recurrent`), the pointer attention of Eq. 5–6
(:mod:`~repro.nn.attention`), optimizers (:mod:`~repro.nn.optim`) and
parameter (de)serialization (:mod:`~repro.nn.serialization`).
"""

from repro.nn.attention import PointerAttention
from repro.nn.functional import (
    clip_gradient_norm,
    entropy,
    log_softmax,
    masked_log_prob,
    masked_softmax,
    mse_loss,
    softmax,
)
from repro.nn.layers import MLP, Linear, Module
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.recurrent import LSTMCell
from repro.nn.serialization import load_into, load_state, save_state
from repro.nn.tensor import Tensor, as_tensor, concat, stack, where

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "softmax",
    "log_softmax",
    "masked_softmax",
    "masked_log_prob",
    "mse_loss",
    "entropy",
    "clip_gradient_norm",
    "Module",
    "Linear",
    "MLP",
    "LSTMCell",
    "PointerAttention",
    "Optimizer",
    "SGD",
    "Adam",
    "save_state",
    "load_state",
    "load_into",
]
