"""Autograd engine tests: ops, broadcasting, and numeric gradient checks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gnn.incremental
import repro.netlist.transform
import repro.nn.tensor
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainConfig, train_rlccd
from repro.ccd.flow import FlowConfig
from repro.features.table1 import NUM_FEATURES
from repro.nn.tensor import (
    Tensor,
    clear_grads,
    concat,
    row_sums,
    segment_sum,
    stack,
    where,
)


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(build, x: np.ndarray, tolerance: float = 1e-6) -> None:
    """Assert autograd gradient of ``build(Tensor)`` matches numerics."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.backward()
    expected = numeric_grad(lambda arr: build(Tensor(arr)).item(), x)
    np.testing.assert_allclose(t.grad, expected, atol=tolerance, rtol=1e-4)


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64

    def test_construction_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.shares_memory(a.data, b.data)

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_on_vector_raises(self):
        with pytest.raises(Exception):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_tape(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.size == 12

    def test_backward_without_grad_flag_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_without_grad_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()

    def test_zero_grad(self):
        t = Tensor([2.0], requires_grad=True)
        (t * t).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestArithmetic:
    def test_add_forward(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_gradients_both_sides(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_add_broadcast_scalar(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + 5.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_add_broadcast_row_gradient(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])

    def test_radd(self):
        out = 2.0 + Tensor([1.0])
        assert out.data[0] == 3.0

    def test_sub_and_rsub(self):
        a = Tensor([5.0])
        assert (a - 2.0).data[0] == 3.0
        assert (10.0 - a).data[0] == 5.0

    def test_neg_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        (-a).sum().backward()
        assert a.grad[0] == -1.0

    def test_mul_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [4.0, 5.0])
        np.testing.assert_array_equal(b.grad, [2.0, 3.0])

    def test_div_gradient_numeric(self, rng):
        x = rng.uniform(0.5, 2.0, size=(3, 2))
        check_gradient(lambda t: (t / Tensor([2.0, 4.0])).sum(), x)

    def test_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        (4.0 / a).backward()
        assert a.grad[0] == pytest.approx(-1.0)

    def test_pow_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_pow_non_scalar_exponent_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_reuse_accumulates_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a + a).backward()  # d/da (a² + a) = 2a + 1 = 5
        assert a.grad[0] == pytest.approx(5.0)


class TestMatmul:
    def test_2d_2d_forward(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)

    def test_2d_2d_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        w = Tensor(rng.normal(size=(4, 2)))
        check_gradient(lambda t: (t @ w).sum(), x)

    def test_2d_2d_gradient_rhs(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        x = rng.normal(size=(4, 2))
        check_gradient(lambda t: (a @ t).sum(), x)

    def test_1d_2d_gradient(self, rng):
        w = Tensor(rng.normal(size=(4, 3)))
        check_gradient(lambda t: (t @ w).sum(), rng.normal(size=4))

    def test_2d_1d_gradient(self, rng):
        v = Tensor(rng.normal(size=3))
        check_gradient(lambda t: (t @ v).sum(), rng.normal(size=(2, 3)))

    def test_1d_1d_gradient(self, rng):
        v = Tensor(rng.normal(size=5))
        check_gradient(lambda t: t @ v, rng.normal(size=5))

    def test_unsupported_ranks_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2))) @ Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2))) @ Tensor(np.zeros((2, 2, 2)))


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "relu"])
    def test_gradient_matches_numeric(self, op, rng):
        x = rng.normal(size=(4, 3))
        check_gradient(lambda t: getattr(t, op)().sum(), x)

    def test_log_gradient(self, rng):
        x = rng.uniform(0.2, 3.0, size=(3, 3))
        check_gradient(lambda t: t.log().sum(), x)

    def test_sigmoid_saturation_is_finite(self):
        out = Tensor([1000.0, -1000.0]).sigmoid()
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0)

    def test_relu_zeroes_negative(self):
        out = Tensor([-1.0, 2.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 2.0])


class TestReductions:
    def test_sum_all(self):
        assert Tensor([[1.0, 2.0], [3.0, 4.0]]).sum().item() == 10.0

    def test_sum_axis_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), x)

    def test_sum_keepdims_shape(self):
        out = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean_gradient(self, rng):
        x = rng.normal(size=(4, 2))
        check_gradient(lambda t: (t.mean() ** 2), x)

    def test_mean_axis_value(self):
        out = Tensor([[1.0, 3.0], [5.0, 7.0]]).mean(axis=0)
        np.testing.assert_array_equal(out.data, [3.0, 5.0])

    def test_max_all_gradient(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        out = Tensor([[1.0, 9.0], [7.0, 2.0]]).max(axis=1)
        np.testing.assert_array_equal(out.data, [9.0, 7.0])


class TestShapeOps:
    def test_reshape_gradient(self, rng):
        x = rng.normal(size=(2, 6))
        check_gradient(lambda t: (t.reshape(3, 4) ** 2).sum(), x)

    def test_transpose_roundtrip(self, rng):
        x = rng.normal(size=(2, 5))
        t = Tensor(x)
        np.testing.assert_array_equal(t.T.T.data, x)

    def test_transpose_gradient(self, rng):
        x = rng.normal(size=(3, 2))
        v = Tensor(rng.normal(size=(3,)))
        check_gradient(lambda t: (t.T @ v).sum(), x)

    def test_getitem_row_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a[0].sum().backward()
        np.testing.assert_array_equal(a.grad, [[1, 1, 1], [0, 0, 0]])

    def test_getitem_slice(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        a[slice(1, 4)].sum().backward()
        np.testing.assert_array_equal(a.grad, [0, 1, 1, 1, 0])

    @pytest.mark.parametrize(
        "index",
        [2, -1, slice(None, None, -2), (1, slice(1, 3)), (slice(None), 0), (slice(0, 3, 2), -2)],
    )
    def test_getitem_basic_index_matches_add_at(self, rng, index):
        """Basic indices take the plain indexed add; the result is the
        ``np.add.at`` scatter's, byte for byte."""
        data = rng.normal(size=(3, 4))
        a = Tensor(data, requires_grad=True)
        upstream = rng.normal(size=data[index].shape)
        a[index].backward(upstream)
        expected = np.zeros_like(data)
        np.add.at(expected, index, upstream)
        assert a.grad.tobytes() == expected.tobytes()

    def test_getitem_advanced_index_repeats_accumulate(self):
        a = Tensor(np.ones(4), requires_grad=True)
        a[np.array([1, 1, 3])].sum().backward()
        np.testing.assert_array_equal(a.grad, [0, 2, 0, 1])

    def test_gather_rows_repeats_accumulate(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        a.gather_rows(np.array([0, 0, 2])).sum().backward()
        np.testing.assert_array_equal(a.grad, [[2, 2], [0, 0], [1, 1]])


class TestCombinators:
    def test_concat_forward(self):
        out = concat([Tensor([1.0]), Tensor([2.0, 3.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_gradient_split(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (concat([a, b]) * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0])

    def test_concat_axis1(self, rng):
        a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 3))
        out = concat([Tensor(a), Tensor(b)], axis=1)
        assert out.shape == (2, 5)

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])

    def test_stack_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (stack([a, b]) * Tensor([[1.0, 1.0], [2.0, 2.0]])).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_stack_empty_raises(self):
        with pytest.raises(ValueError):
            stack([])

    def test_where_selects(self):
        out = where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([9.0, 9.0]))
        np.testing.assert_array_equal(out.data, [1.0, 9.0])

    def test_where_gradient_routing(self):
        cond = np.array([True, False, True])
        a = Tensor([1.0, 1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0, 2.0], requires_grad=True)
        where(cond, a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])

    def test_where_copies_condition(self):
        """Gradients route by the mask as it was at forward time, even if
        the caller flips it in place before backward (the selection env
        does exactly that between steps)."""
        cond = np.array([True, False, True])
        a = Tensor([1.0, 1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0, 2.0], requires_grad=True)
        out = where(cond, a, b).sum()
        cond[:] = False
        out.backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])


class TestSegmentOps:
    def test_segment_sum_forward(self):
        rows = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = segment_sum(rows, np.array([0, 2, 0]), 3)
        np.testing.assert_array_equal(
            out.data, [[6.0, 8.0], [0.0, 0.0], [3.0, 4.0]]
        )

    def test_segment_sum_gradient(self):
        rows = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        out = segment_sum(rows, np.array([1, 1, 0]), 2)
        (out * Tensor([[1.0, 1.0], [3.0, 3.0]])).sum().backward()
        np.testing.assert_array_equal(
            rows.grad, [[3.0, 3.0], [3.0, 3.0], [1.0, 1.0]]
        )

    def test_segment_sum_numeric_gradient(self, rng):
        x = rng.normal(size=(5, 3))
        seg = np.array([0, 1, 0, 2, 1])
        check_gradient(lambda t: (segment_sum(t, seg, 3) ** 2).sum(), x)


def _add_at(num_rows, index, values):
    """The reference row sum: numpy's own ``np.add.at`` into zeros."""
    expected = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(expected, index, values)
    return expected


def _wide_values(rng, shape):
    """Signed values whose magnitudes span 1e-8 to 1e8."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


class TestScatterAddRows:
    """The row scatter-sum kernel, :func:`row_sums` (one ordered bincount),
    against ``np.add.at`` into zeros; ``tests/test_nn_fused.py`` covers
    signed zeros, non-finite values and zero-degree rows."""

    @pytest.mark.parametrize("width", [1, 3, 14, 32])
    @pytest.mark.parametrize("seed", range(5))
    def test_bytes_equal_add_at_with_duplicates(self, width, seed):
        rng = np.random.default_rng(seed)
        index = rng.integers(0, 7, size=200)  # ~30 hits per row
        values = _wide_values(rng, (200, width))
        assert row_sums(index, values, 7).tobytes() == _add_at(7, index, values).tobytes()

    def test_one_dimensional_destination(self, rng):
        index = rng.integers(0, 9, size=60)
        values = _wide_values(rng, 60)
        sums = row_sums(index, values, 9)
        assert sums.shape == (9,)
        assert sums.tobytes() == _add_at(9, index, values).tobytes()

    def test_empty_index_leaves_destination(self):
        sums = row_sums(np.empty(0, dtype=np.int64), np.empty((0, 3)), 4)
        assert sums.dtype == np.float64
        assert sums.tobytes() == np.zeros((4, 3)).tobytes()


class TestGradientOwnership:
    def test_no_two_gradients_alias(self, rng):
        """Owned hand-overs and in-place accumulation never share a buffer:
        mutating one tensor's ``.grad`` leaves every other one unchanged."""
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        base = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        h = x @ w
        picked = h.gather_rows(np.array([0, 0, 2, 4]))
        summed = segment_sum(picked, np.array([0, 1, 1, 2]), 3)
        out = base.gather_rows(np.array([1, 3, 5])) + summed
        twice = x + x
        loss = (out * out).sum() + (twice * h.gather_rows(np.arange(5))[:, :3]).sum()
        seed_grad = np.ones_like(loss.data)
        loss.backward(seed_grad)
        tensors = [x, w, base, h, picked, summed, out, twice, loss]
        assert all(t.grad is not None for t in tensors)
        for i, a in enumerate(tensors):
            assert not np.shares_memory(a.grad, seed_grad)
            for b in tensors[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad)
        snapshots = [t.grad.copy() for t in tensors]
        for i, target in enumerate(tensors):
            target.grad[...] = np.nan
            for j, other in enumerate(tensors):
                if j != i:
                    assert other.grad.tobytes() == snapshots[j].tobytes()
            target.grad[...] = snapshots[i]

    def test_second_backward_accumulates(self, rng):
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))
        (x @ w).sum().backward()
        first = w.grad.copy()
        (x @ w).sum().backward()
        np.testing.assert_array_equal(w.grad, first + first)

    def test_clear_grads_lets_a_second_root_walk_a_shared_tape(self, rng):
        """A second walk over a shared tape adds to the first walk's
        interior gradients unless ``clear_grads`` resets them, leaves
        included; after it the walk equals one on a fresh tape."""
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))

        def roots():
            h = (x @ w).tanh()
            return h.sum(), (h * h).sum()

        first, second = roots()
        first.backward()
        clear_grads(first)
        assert w.grad is None
        second.backward()
        w.grad, walked = None, w.grad
        roots()[1].backward()
        np.testing.assert_array_equal(walked, w.grad)

        first, second = roots()
        first.backward()
        w.grad = None
        second.backward()  # the shared ``h`` still holds the first walk's gradient
        assert not np.array_equal(w.grad, walked)


def _add_at_row_sums(index, values, num_rows):
    """The reference kernel: 2-D ``np.add.at`` into zeros."""
    return _add_at(num_rows, index, np.asarray(values, dtype=np.float64))


def _copying_accumulate(self, grad):
    """The reference accumulate: copy on first use, then ``grad + new``."""
    if self.grad is None:
        self.grad = np.array(grad, dtype=np.float64, copy=True)
    else:
        self.grad = self.grad + grad


class TestTrainingEquivalence:
    """The row-sum kernel and in-place accumulation change no bit of a
    training run: a reference on 2-D ``np.add.at`` and copying accumulation
    gives the same parameters and history on the same machine."""

    def _train(self, small_design):
        netlist, period = small_design
        env = EndpointSelectionEnv(netlist, period)
        policy = RLCCDPolicy(NUM_FEATURES, rng=3)
        config = TrainConfig(max_episodes=4, seed=7)
        result = train_rlccd(policy, env, FlowConfig(clock_period=period), config)
        params = {name: p.data.tobytes() for name, p in policy.named_parameters()}
        history = [dataclasses.astuple(record) for record in result.history]
        return params, history

    def test_kernel_matches_add_at_reference(self, small_design, monkeypatch):
        shipped = self._train(small_design)
        with monkeypatch.context() as patch:
            for module in (repro.nn.tensor, repro.gnn.incremental, repro.netlist.transform):
                patch.setattr(module, "row_sums", _add_at_row_sums)
            patch.setattr(Tensor, "_accumulate", _copying_accumulate)
            patch.setattr(Tensor, "_accumulate_owned", _copying_accumulate)
            reference = self._train(small_design)
        assert len(shipped[1]) == 4
        assert shipped[0] == reference[0]
        assert shipped[1] == reference[1]


class TestComposite:
    def test_mlp_like_chain(self, rng):
        x = rng.normal(size=(5, 4))
        w1 = Tensor(rng.normal(size=(4, 6)))
        w2 = Tensor(rng.normal(size=(6, 1)))
        check_gradient(lambda t: ((t @ w1).tanh() @ w2).sigmoid().sum(), x)

    def test_weight_gradient_through_chain(self, rng):
        x = Tensor(rng.normal(size=(5, 4)))
        w = rng.normal(size=(4, 3))

        def build(t):
            return ((x @ t).sigmoid() ** 2).mean()

        check_gradient(build, w)

    def test_diamond_graph(self):
        # y = a*b + a*c where b, c derive from a: gradient accumulates.
        a = Tensor([2.0], requires_grad=True)
        b = a * 3.0
        c = a * 4.0
        (b * c).backward()  # y = 12 a², dy/da = 24a = 48
        assert a.grad[0] == pytest.approx(48.0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_property_random_composite_gradients(rows, cols, seed):
    """Gradient of a random composite matches central differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    w = Tensor(rng.normal(size=(cols, 2)))

    def build(t):
        return ((t @ w).tanh() * 0.5 + 0.1).sigmoid().sum()

    check_gradient(build, x, tolerance=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 10_000),
)
def test_property_unbroadcast_row_and_col(shape, seed):
    """Broadcast add reduces gradients back to each operand's shape."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    row = Tensor(rng.normal(size=(1, shape[1])), requires_grad=True)
    col = Tensor(rng.normal(size=(shape[0], 1)), requires_grad=True)
    (a + row + col).sum().backward()
    assert a.grad.shape == shape
    assert row.grad.shape == (1, shape[1])
    assert col.grad.shape == (shape[0], 1)
    np.testing.assert_allclose(row.grad, np.full((1, shape[1]), shape[0]))
    np.testing.assert_allclose(col.grad, np.full((shape[0], 1), shape[1]))
