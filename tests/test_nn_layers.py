"""Tests for Module bookkeeping, Linear, MLP, LSTMCell, PointerAttention,
optimizers and parameter serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.attention import PointerAttention
from repro.nn.layers import MLP, Linear, Module
from repro.nn.optim import SGD, Adam
from repro.nn.recurrent import LSTMCell
from repro.nn.serialization import load_into, load_state, save_state
from repro.nn.tensor import Tensor


class TestModule:
    def test_parameters_recursive(self):
        outer = Module()
        inner = Linear(2, 3, rng=0)
        outer.register_module("inner", inner)
        outer.register_parameter("own", np.zeros(4))
        params = outer.parameters()
        assert len(params) == 3  # own + inner weight + inner bias

    def test_duplicate_parameter_raises(self):
        m = Module()
        m.register_parameter("p", np.zeros(1))
        with pytest.raises(ValueError):
            m.register_parameter("p", np.zeros(1))

    def test_duplicate_module_raises(self):
        m = Module()
        m.register_module("c", Linear(1, 1, rng=0))
        with pytest.raises(ValueError):
            m.register_module("c", Linear(1, 1, rng=0))

    def test_named_parameters_dotted(self):
        m = Module()
        m.register_module("child", Linear(2, 2, rng=0))
        names = [n for n, _ in m.named_parameters()]
        assert "child.weight" in names
        assert "child.bias" in names

    def test_zero_grad_clears_all(self):
        lin = Linear(2, 2, rng=0)
        out = lin(Tensor(np.ones(2)))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_num_parameters(self):
        lin = Linear(3, 4, rng=0)
        assert lin.num_parameters() == 3 * 4 + 4

    def test_state_dict_roundtrip(self):
        a = Linear(3, 2, rng=0)
        b = Linear(3, 2, rng=1)
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_is_copy(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["weight"][:] = 99.0
        assert not np.any(lin.weight.data == 99.0)

    def test_load_strict_mismatch_raises(self):
        lin = Linear(2, 2, rng=0)
        with pytest.raises(KeyError):
            lin.load_state_dict({"weight": np.zeros((2, 2))})

    def test_load_non_strict_ignores_extra(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["phantom"] = np.zeros(1)
        lin.load_state_dict(state, strict=False)

    def test_load_shape_mismatch_raises(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            lin.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLinear:
    def test_forward_matches_numpy(self, rng):
        lin = Linear(4, 3, rng=0)
        x = rng.normal(size=(5, 4))
        out = lin(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ lin.weight.data + lin.bias.data, atol=1e-12
        )

    def test_no_bias(self):
        lin = Linear(2, 2, bias=False, rng=0)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_gradients_flow_to_weight_and_bias(self, rng):
        lin = Linear(3, 2, rng=0)
        lin(Tensor(rng.normal(size=3))).sum().backward()
        assert lin.weight.grad is not None
        assert lin.bias.grad is not None

    def test_seeded_init_deterministic(self):
        a, b = Linear(4, 4, rng=7), Linear(4, 4, rng=7)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestMLP:
    def test_shapes(self, rng):
        mlp = MLP([4, 8, 2], rng=0)
        out = mlp(Tensor(rng.normal(size=(6, 4))))
        assert out.shape == (6, 2)

    def test_too_few_dims_raises(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            MLP([2, 2], activation="swishish")

    def test_final_activation_identity_default(self, rng):
        mlp = MLP([2, 2], rng=0)
        out = mlp(Tensor(rng.normal(size=(3, 2)) * 10))
        # tanh would clamp to (-1, 1); identity can exceed it.
        assert np.any(np.abs(out.data) >= 0.0)

    def test_trains_on_regression(self, rng):
        mlp = MLP([1, 8, 1], rng=0)
        opt = Adam(mlp.parameters(), lr=0.02)
        x = np.linspace(-1, 1, 16)[:, None]
        y = 0.5 * x
        first_loss = None
        for _ in range(150):
            opt.zero_grad()
            pred = mlp(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first_loss * 0.1


class TestLSTMCell:
    def test_initial_state_zero(self):
        cell = LSTMCell(3, 5, rng=0)
        h, c = cell.initial_state()
        np.testing.assert_array_equal(h.data, np.zeros(5))
        np.testing.assert_array_equal(c.data, np.zeros(5))

    def test_step_shapes(self, rng):
        cell = LSTMCell(3, 5, rng=0)
        h, c = cell(Tensor(rng.normal(size=3)), cell.initial_state())
        assert h.shape == (5,)
        assert c.shape == (5,)

    def test_hidden_bounded_by_tanh(self, rng):
        cell = LSTMCell(3, 5, rng=0)
        h, _ = cell(Tensor(rng.normal(size=3) * 100), cell.initial_state())
        assert np.all(np.abs(h.data) <= 1.0)

    def test_wrong_input_shape_raises(self):
        cell = LSTMCell(3, 5, rng=0)
        with pytest.raises(ValueError):
            cell(Tensor(np.zeros(4)), cell.initial_state())

    def test_wrong_hidden_shape_raises(self):
        cell = LSTMCell(3, 5, rng=0)
        with pytest.raises(ValueError):
            cell(Tensor(np.zeros(3)), (Tensor(np.zeros(4)), Tensor(np.zeros(5))))

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            LSTMCell(0, 5)

    def test_forget_bias_initialized_positive(self):
        cell = LSTMCell(2, 4, rng=0)
        H = 4
        np.testing.assert_array_equal(cell.bias.data[H : 2 * H], np.ones(H))

    def test_gradient_through_two_steps(self, rng):
        cell = LSTMCell(2, 3, rng=0)
        state = cell.initial_state()
        x1, x2 = Tensor(rng.normal(size=2)), Tensor(rng.normal(size=2))
        h, c = cell(x1, state)
        h, c = cell(x2, (h, c))
        (h * h).sum().backward()
        assert cell.weight.grad is not None
        assert np.any(cell.weight.grad != 0)

    def test_gate_equations_numeric(self, rng):
        """Hand-compute Eq. 4 from the fused weights and compare."""
        cell = LSTMCell(2, 3, rng=0)
        x = rng.normal(size=2)
        h0 = rng.normal(size=3)
        c0 = rng.normal(size=3)
        fused = np.concatenate([h0, x]) @ cell.weight.data + cell.bias.data
        H = 3

        def sig(v):
            return 1 / (1 + np.exp(-v))

        i, f, o = sig(fused[:H]), sig(fused[H : 2 * H]), sig(fused[2 * H : 3 * H])
        c_tilde = np.tanh(fused[3 * H :])
        c1 = f * c0 + i * c_tilde
        h1 = o * np.tanh(c1)
        h_out, c_out = cell(Tensor(x), (Tensor(h0), Tensor(c0)))
        np.testing.assert_allclose(h_out.data, h1, atol=1e-10)
        np.testing.assert_allclose(c_out.data, c1, atol=1e-10)


class TestPointerAttention:
    def test_scores_shape(self, rng):
        attn = PointerAttention(8, 5, 6, rng=0)
        scores = attn.scores(Tensor(rng.normal(size=(10, 8))), Tensor(rng.normal(size=5)))
        assert scores.shape == (10,)

    def test_forward_distribution(self, rng):
        attn = PointerAttention(8, 5, 6, rng=0)
        valid = np.array([1, 1, 0, 1, 0, 1, 1, 1, 0, 1], bool)
        p = attn(Tensor(rng.normal(size=(10, 8))), Tensor(rng.normal(size=5)), valid)
        assert p.data.sum() == pytest.approx(1.0)
        assert np.all(p.data[~valid] == 0.0)

    def test_eq5_formula(self, rng):
        """A_i = vᵀ tanh(W1·F_i + W2·q), verified against numpy."""
        attn = PointerAttention(4, 3, 5, rng=0)
        F = rng.normal(size=(6, 4))
        q = rng.normal(size=3)
        expected = np.tanh(F @ attn.w1.data + q @ attn.w2.data) @ attn.v.data
        scores = attn.scores(Tensor(F), Tensor(q))
        np.testing.assert_allclose(scores.data, expected, atol=1e-12)

    def test_bad_embedding_shape_raises(self, rng):
        attn = PointerAttention(4, 3, 5, rng=0)
        with pytest.raises(ValueError):
            attn.scores(Tensor(rng.normal(size=(6, 5))), Tensor(rng.normal(size=3)))

    def test_bad_query_shape_raises(self, rng):
        attn = PointerAttention(4, 3, 5, rng=0)
        with pytest.raises(ValueError):
            attn.scores(Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=4)))

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            PointerAttention(0, 3, 5)

    def test_gradients_reach_all_parameters(self, rng):
        attn = PointerAttention(4, 3, 5, rng=0)
        valid = np.ones(6, bool)
        p = attn(Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=3)), valid)
        p[2].backward()
        for param in attn.parameters():
            assert param.grad is not None


class TestOptimizers:
    def _quadratic_step(self, opt_cls, **kwargs):
        t = Tensor([5.0], requires_grad=True)
        opt = opt_cls([t], **kwargs)
        for _ in range(200):
            opt.zero_grad()
            (t * t).backward()
            opt.step()
        return abs(t.data[0])

    def test_sgd_converges_on_quadratic(self):
        assert self._quadratic_step(SGD, lr=0.1) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self._quadratic_step(SGD, lr=0.05, momentum=0.9) < 1e-3

    def test_adam_converges_on_quadratic(self):
        assert self._quadratic_step(Adam, lr=0.2) < 1e-2

    def test_invalid_lr_raises(self):
        t = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            SGD([t], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([t], lr=0.0)

    def test_invalid_momentum_raises(self):
        t = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            SGD([t], momentum=1.0)

    def test_invalid_betas_raise(self):
        t = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            Adam([t], betas=(1.0, 0.9))

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            SGD([])

    def test_non_grad_param_raises(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0])])

    def test_step_skips_gradless(self):
        t = Tensor([1.0], requires_grad=True)
        Adam([t]).step()  # no grad accumulated; must not crash or move
        assert t.data[0] == 1.0

    def test_adam_bias_correction_first_step(self):
        t = Tensor([0.0], requires_grad=True)
        opt = Adam([t], lr=0.1)
        t.grad = np.array([1.0])
        opt.step()
        # With bias correction the first step size is exactly lr.
        assert t.data[0] == pytest.approx(-0.1, rel=1e-6)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        a = Linear(3, 2, rng=0)
        path = str(tmp_path / "weights.npz")
        save_state(a, path)
        b = Linear(3, 2, rng=5)
        load_into(b, path)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(str(tmp_path / "nope.npz"))

    def test_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "deep" / "er" / "w.npz")
        save_state(Linear(2, 2, rng=0), path)
        assert load_state(path)

