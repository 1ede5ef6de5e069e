"""LSTM cell used as the past-actions encoder (paper §III-B.2, Eq. 4).

At each RL time step ``t`` the encoder consumes the EP-GNN embedding of the
previously selected endpoint and its own previous hidden state, producing the
new hidden vector ``h_t`` which becomes the attention query ``q_t``.  The
initial state is all zeros (Algorithm 1 line 3).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn import init
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, concat
from repro.utils.rng import SeedLike, as_rng


class LSTMCell(Module):
    """Single-step LSTM following the paper's Eq. 4 gate equations.

    The four gates share one fused weight matrix applied to the concatenation
    ``[h_{t-1}, x_t]`` for efficiency; slicing recovers the per-gate results.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: SeedLike = None):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTMCell dimensions must be positive")
        rng = as_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Fused [h, x] -> 4 * hidden (order: input, forget, output, cell).
        self.weight = self.register_parameter(
            "weight", init.xavier_uniform((hidden_size + input_size, 4 * hidden_size), rng)
        )
        bias = init.zeros(4 * hidden_size)
        # Standard positive forget-gate bias so early training does not wipe
        # the cell state before the reward signal arrives.
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = self.register_parameter("bias", bias)

    def initial_state(self) -> Tuple[Tensor, Tensor]:
        """Zero ``(h_0, c_0)`` per Algorithm 1 line 3."""
        return (
            Tensor(np.zeros(self.hidden_size)),
            Tensor(np.zeros(self.hidden_size)),
        )

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        """One step: returns ``(h_t, c_t)``.

        ``x`` is the embedding of the previously selected endpoint (shape
        ``(input_size,)``); ``state`` is ``(h_{t-1}, c_{t-1})``.
        """
        h_prev, c_prev = state
        if x.shape != (self.input_size,):
            raise ValueError(
                f"LSTMCell input shape {x.shape} != ({self.input_size},)"
            )
        if h_prev.shape != (self.hidden_size,):
            raise ValueError(
                f"LSTMCell hidden shape {h_prev.shape} != ({self.hidden_size},)"
            )
        fused = concat([h_prev, x]) @ self.weight + self.bias
        H = self.hidden_size
        i_gate = fused[slice(0, H)].sigmoid()
        f_gate = fused[slice(H, 2 * H)].sigmoid()
        o_gate = fused[slice(2 * H, 3 * H)].sigmoid()
        c_tilde = fused[slice(3 * H, 4 * H)].tanh()
        c_t = f_gate * c_prev + i_gate * c_tilde
        h_t = o_gate * c_t.tanh()
        return h_t, c_t

    def __repr__(self) -> str:
        return f"LSTMCell(input_size={self.input_size}, hidden_size={self.hidden_size})"

