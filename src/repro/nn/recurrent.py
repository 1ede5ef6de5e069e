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
from repro.nn.tensor import Tensor, sigmoid_data
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

        The step is three tape nodes with hand-written backwards: the
        pre-activation ``[h_{t-1}, x_t] @ W + b`` (parents ``h_{t-1}``,
        ``x_t``, ``W``, ``b``), ``c_t`` (parents ``c_{t-1}`` and the
        pre-activation) and ``h_t`` (parents the pre-activation and
        ``c_t``).  Forward and backward evaluate the per-op chain's
        expressions in its order (gates i, f, o, c̃; sigmoid clipped at
        ±60), and the parents are listed so the tape visits them in that
        chain's order, so values and gradients are bitwise equal to it.
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
        H = self.hidden_size
        weight, bias = self.weight, self.bias
        joined = np.concatenate([h_prev.data, x.data])
        pre_data = joined @ weight.data + bias.data
        i_gate = sigmoid_data(pre_data[0:H])
        f_gate = sigmoid_data(pre_data[H : 2 * H])
        o_gate = sigmoid_data(pre_data[2 * H : 3 * H])
        c_tilde = np.tanh(pre_data[3 * H : 4 * H])
        c_data = f_gate * c_prev.data + i_gate * c_tilde
        tanh_c = np.tanh(c_data)

        def pre_backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                weight._accumulate_owned(np.outer(joined, grad))
            if bias.requires_grad:
                bias._accumulate(grad)
            if h_prev.requires_grad or x.requires_grad:
                joined_grad = weight.data @ grad
                if h_prev.requires_grad:
                    h_prev._accumulate(joined_grad[:H])
                if x.requires_grad:
                    x._accumulate(joined_grad[H:])

        # The tape walks a node's parents last first.  Reaching x_t (and the
        # encode that made it) before h_{t-1}, and the pre-activation before
        # c_{t-1} below, is the per-op chain's order, so gradients that sum
        # over steps (a full-encode rollout's GNN parameters) add in its order.
        pre = Tensor._make(pre_data, (h_prev, x, weight, bias), pre_backward)

        def c_backward(grad: np.ndarray) -> None:
            if pre.requires_grad:
                # Gate slices never overlap: one zero row, each slice added
                # into it as the per-op slice backwards add them.
                full = np.zeros(4 * H)
                full[0:H] += grad * c_tilde * i_gate * (1.0 - i_gate)
                full[H : 2 * H] += grad * c_prev.data * f_gate * (1.0 - f_gate)
                full[3 * H : 4 * H] += grad * i_gate * (1.0 - c_tilde**2)
                pre._accumulate_owned(full)
            if c_prev.requires_grad:
                c_prev._accumulate(grad * f_gate)

        c_t = Tensor._make(c_data, (c_prev, pre), c_backward)

        def h_backward(grad: np.ndarray) -> None:
            if pre.requires_grad:
                full = np.zeros(4 * H)
                full[2 * H : 3 * H] += grad * tanh_c * o_gate * (1.0 - o_gate)
                pre._accumulate_owned(full)
            if c_t.requires_grad:
                c_t._accumulate(grad * o_gate * (1.0 - tanh_c**2))

        h_t = Tensor._make(o_gate * tanh_c, (pre, c_t), h_backward)
        return h_t, c_t

    def __repr__(self) -> str:
        return f"LSTMCell(input_size={self.input_size}, hidden_size={self.hidden_size})"

