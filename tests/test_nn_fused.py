"""The decoder's fused tape nodes and the row-sum kernel, bit for bit.

``LSTMCell.forward``, ``PointerAttention.scores`` and ``masked_log_prob``
are each one tape node per output with a hand-written backward.  The
per-op compositions they replaced live here as oracles; every value and
every gradient of a fused node must equal the oracle's byte for byte, and
so must a whole rollout plus backward of the policy.  The row-sum kernel
(:func:`repro.nn.tensor.row_sums`) must equal ``np.add.at`` into zeros.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.agent.policy
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.features.table1 import NUM_FEATURES
from repro.netlist.generator import GeneratorConfig, generate_design
from repro.nn.attention import PointerAttention
from repro.nn.functional import entropy, masked_log_prob, masked_softmax
from repro.nn.recurrent import LSTMCell
from repro.nn.tensor import Tensor, concat, row_sums, stack, where
from repro.placement.global_place import PlacementConfig, place_design
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer

# ---------------------------------------------------------------------- #
# per-op oracles: the compositions the fused nodes replaced
# ---------------------------------------------------------------------- #


def lstm_per_op(cell: LSTMCell, x: Tensor, state):
    h_prev, c_prev = state
    fused = concat([h_prev, x]) @ cell.weight + cell.bias
    H = cell.hidden_size
    i_gate = fused[slice(0, H)].sigmoid()
    f_gate = fused[slice(H, 2 * H)].sigmoid()
    o_gate = fused[slice(2 * H, 3 * H)].sigmoid()
    c_tilde = fused[slice(3 * H, 4 * H)].tanh()
    c_t = f_gate * c_prev + i_gate * c_tilde
    h_t = o_gate * c_t.tanh()
    return h_t, c_t


def scores_per_op(attention: PointerAttention, embeddings: Tensor, query: Tensor) -> Tensor:
    hidden = (embeddings @ attention.w1 + query @ attention.w2).tanh()
    return hidden @ attention.v


def masked_log_prob_per_op(logits: Tensor, valid: np.ndarray, index: int) -> Tensor:
    valid = np.asarray(valid, dtype=bool)
    valid_data = np.where(valid, logits.data, -np.inf)
    shift = float(valid_data.max())
    shifted = logits - shift
    exp = where(valid, shifted.exp(), Tensor(np.zeros(logits.shape)))
    log_total = exp.sum().log()
    return shifted[index] - log_total


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #


def _assert_bytes(a: np.ndarray, b: np.ndarray, what: str = "") -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), f"{what}: max |Δ|={np.abs(a - b).max():.3e}"


def _grad(t: Tensor) -> np.ndarray:
    return t.grad if t.grad is not None else np.zeros_like(t.data)


def _assert_param_grads(a, b) -> None:
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        _assert_bytes(_grad(pa), _grad(pb), name)


# ---------------------------------------------------------------------- #
# LSTM step
# ---------------------------------------------------------------------- #


def _lstm_chain(step, cell, xs, state, weights):
    """Run ``step`` over ``xs``; the loss reads every ``h_t`` and the last
    ``c_t``, so gradient reaches each step through both states."""
    h, c = state
    hs, cs, terms = [], [], []
    for x, w in zip(xs, weights):
        h, c = step(cell, x, (h, c))
        hs.append(h)
        cs.append(c)
        terms.append((h * Tensor(w)).sum())
    terms.append((c * Tensor(weights[-1][::-1].copy())).sum())
    stack(terms).sum().backward()
    return hs, cs


class TestLSTMStep:
    @pytest.mark.parametrize("inputs_grad", [True, False])
    @pytest.mark.parametrize("state_grad", [True, False])
    def test_chain_bitwise_equal_to_per_op(self, inputs_grad, state_grad):
        rng = np.random.default_rng(7)
        steps, size, hidden = 24, 6, 5
        xs_data = [rng.normal(size=size) * 3.0 for _ in range(steps)]
        weights = [rng.normal(size=hidden) for _ in range(steps)]
        h0, c0 = rng.normal(size=hidden), rng.normal(size=hidden)
        runs = []
        for step in (LSTMCell.forward, lstm_per_op):
            cell = LSTMCell(size, hidden, rng=11)
            xs = [Tensor(x, requires_grad=inputs_grad) for x in xs_data]
            state = (Tensor(h0, requires_grad=state_grad), Tensor(c0, requires_grad=state_grad))
            hs, cs = _lstm_chain(step, cell, xs, state, weights)
            runs.append((cell, xs, state, hs, cs))
        (cell, xs, state, hs, cs), (ref_cell, ref_xs, ref_state, ref_hs, ref_cs) = runs
        for t in range(steps):
            _assert_bytes(hs[t].data, ref_hs[t].data, f"h_{t}")
            _assert_bytes(cs[t].data, ref_cs[t].data, f"c_{t}")
            _assert_bytes(_grad(hs[t]), _grad(ref_hs[t]), f"dh_{t}")
            _assert_bytes(_grad(cs[t]), _grad(ref_cs[t]), f"dc_{t}")
            _assert_bytes(_grad(xs[t]), _grad(ref_xs[t]), f"dx_{t}")
        _assert_param_grads(cell, ref_cell)
        for mine, ref in zip(state, ref_state):
            assert (mine.grad is None) == (ref.grad is None)
            _assert_bytes(_grad(mine), _grad(ref), "initial state")

    def test_cell_state_read_every_step(self):
        """``c_t`` also read by the loss: three gradient contributions."""
        rng = np.random.default_rng(3)
        grads = []
        for step in (LSTMCell.forward, lstm_per_op):
            cell = LSTMCell(4, 3, rng=5)
            h, c = cell.initial_state()
            terms = []
            for t in range(24):
                h, c = step(cell, Tensor(rng.normal(size=4) if t else np.zeros(4)), (h, c))
                terms.append((h * 2.0 + c * c).sum())
            stack(terms).sum().backward()
            grads.append(cell)
            rng = np.random.default_rng(3)
        _assert_param_grads(*grads)

    def test_frozen_weights_pass_gradient_to_inputs(self):
        rng = np.random.default_rng(4)
        results = []
        for step in (LSTMCell.forward, lstm_per_op):
            cell = LSTMCell(3, 4, rng=2)
            cell.weight.requires_grad = False
            cell.bias.requires_grad = False
            x = Tensor(rng.normal(size=3), requires_grad=True)
            h, c = step(cell, x, cell.initial_state())
            (h.sum() + c.sum()).backward()
            results.append(x.grad)
            assert cell.weight.grad is None and cell.bias.grad is None
            rng = np.random.default_rng(4)
        _assert_bytes(*results, "dx")


# ---------------------------------------------------------------------- #
# pointer scores, masked log-prob and entropy
# ---------------------------------------------------------------------- #


class TestScores:
    @pytest.mark.parametrize("embeddings_grad", [True, False])
    def test_bitwise_equal_to_per_op(self, embeddings_grad):
        rng = np.random.default_rng(5)
        e_data, q_data = rng.normal(size=(40, 8)), rng.normal(size=6)
        upstream = rng.normal(size=40)
        runs = []
        for scores in (PointerAttention.scores, scores_per_op):
            attention = PointerAttention(8, 6, 7, rng=9)
            embeddings = Tensor(e_data, requires_grad=embeddings_grad)
            query = Tensor(q_data, requires_grad=True)
            out = scores(attention, embeddings, query)
            out.backward(upstream)
            runs.append((attention, embeddings, query, out))
        (attention, embeddings, query, out), (ref_attention, ref_e, ref_q, ref_out) = runs
        _assert_bytes(out.data, ref_out.data, "scores")
        _assert_param_grads(attention, ref_attention)
        _assert_bytes(_grad(embeddings), _grad(ref_e), "dE")
        _assert_bytes(_grad(query), _grad(ref_q), "dq")
        assert (embeddings.grad is None) == (not embeddings_grad)

    def test_entropy_on_fused_scores(self):
        rng = np.random.default_rng(6)
        e_data, q_data = rng.normal(size=(30, 8)), rng.normal(size=6)
        valid = rng.random(30) < 0.6
        action = int(np.flatnonzero(valid)[2])
        runs = []
        for scores, log_prob in (
            (PointerAttention.scores, masked_log_prob),
            (scores_per_op, masked_log_prob_per_op),
        ):
            attention = PointerAttention(8, 6, 7, rng=9)
            embeddings = Tensor(e_data, requires_grad=True)
            out = scores(attention, embeddings, Tensor(q_data, requires_grad=True))
            loss = log_prob(out, valid, action) * -1.3 + entropy(masked_softmax(out, valid)) * 0.2
            loss.backward()
            runs.append((attention, embeddings, out, loss))
        (attention, embeddings, out, loss), (ref_attention, ref_e, ref_out, ref_loss) = runs
        _assert_bytes(loss.data, ref_loss.data, "loss")
        _assert_bytes(_grad(out), _grad(ref_out), "dscores")
        _assert_bytes(_grad(embeddings), _grad(ref_e), "dE")
        _assert_param_grads(attention, ref_attention)


class TestMaskedLogProb:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_per_op(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        data = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        valid = rng.random(n) < 0.5
        valid[rng.integers(n)] = True
        action = int(rng.choice(np.flatnonzero(valid)))
        upstream = np.asarray(rng.normal() if seed % 3 else -0.0)
        runs = []
        for log_prob in (masked_log_prob, masked_log_prob_per_op):
            logits = Tensor(data, requires_grad=True)
            out = log_prob(logits, valid, action)
            out.backward(upstream)
            runs.append((out, logits))
        (out, logits), (ref_out, ref_logits) = runs
        _assert_bytes(out.data, ref_out.data, "log-prob")
        _assert_bytes(logits.grad, ref_logits.grad, "dlogits")

    def test_single_valid_endpoint(self):
        data = np.array([3.0, -1.0, 7.5, 0.25])
        valid = np.array([False, False, True, False])
        runs = []
        for log_prob in (masked_log_prob, masked_log_prob_per_op):
            logits = Tensor(data, requires_grad=True)
            out = log_prob(logits, valid, 2)
            out.backward(np.asarray(-0.75))
            runs.append((out, logits))
        (out, logits), (ref_out, ref_logits) = runs
        assert out.item() == 0.0
        _assert_bytes(out.data, ref_out.data, "log-prob")
        _assert_bytes(logits.grad, ref_logits.grad, "dlogits")

    def test_mask_flipped_after_forward(self):
        """The env flips its ``valid`` array in place between steps; the
        backward routes by the mask as it was at forward time."""
        data = np.array([0.5, -1.0, 2.0, 0.0])
        valid = np.array([True, True, False, True])
        logits = Tensor(data, requires_grad=True)
        out = masked_log_prob(logits, valid, 0)
        valid[0] = False
        valid[2] = True
        out.backward()
        reference = Tensor(data, requires_grad=True)
        masked_log_prob_per_op(reference, np.array([True, True, False, True]), 0).backward()
        _assert_bytes(logits.grad, reference.grad, "dlogits")

    def test_overflowing_masked_logit_keeps_gradient_finite(self):
        logits = Tensor(np.array([0.0, 1.0, 1000.0]), requires_grad=True)
        valid = np.array([True, True, False])
        with np.errstate(over="ignore"):
            out = masked_log_prob(logits, valid, 1)
        out.backward()
        assert np.all(np.isfinite(logits.grad))
        assert logits.grad[2] == 0.0


# ---------------------------------------------------------------------- #
# a whole rollout
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def smoke_env():
    """perfbench's ``smoke`` design: 320 generated cells, placed, at the
    period that leaves 40% of the endpoints violating."""
    config = GeneratorConfig(
        name="fused_smoke", library="tech7", n_cells=320, n_inputs=8, n_outputs=6, seed=0
    )
    netlist = generate_design(config)
    place_design(netlist, PlacementConfig(seed=0))
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    return EndpointSelectionEnv(netlist, choose_clock_period(report, nominal, 0.4))


class TestRollout:
    @pytest.mark.parametrize("incremental", [True, False])
    def test_rollout_and_backward_bitwise_equal_to_per_op(
        self, smoke_env, monkeypatch, incremental
    ):
        def run():
            policy = RLCCDPolicy(NUM_FEATURES, rng=3)
            trajectory = policy.rollout(
                smoke_env, rng=21, with_entropy=True, incremental=incremental
            )
            loss = trajectory.total_log_prob() * -0.7 + trajectory.total_entropy() * -0.05
            loss.backward()
            return policy, trajectory

        fused, trajectory = run()
        with monkeypatch.context() as patch:
            patch.setattr(LSTMCell, "forward", lstm_per_op)
            patch.setattr(PointerAttention, "scores", scores_per_op)
            patch.setattr(repro.agent.policy, "masked_log_prob", masked_log_prob_per_op)
            oracle, ref_trajectory = run()
        assert len(trajectory) > 3
        assert trajectory.actions == ref_trajectory.actions
        for mine, ref in zip(trajectory.log_probs, ref_trajectory.log_probs):
            _assert_bytes(mine.data, ref.data, "log-prob")
        _assert_param_grads(fused, oracle)


# ---------------------------------------------------------------------- #
# the row-sum kernel
# ---------------------------------------------------------------------- #


def _add_at_zeros(index, values, num_rows):
    expected = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(expected, index, values)
    return expected


class TestRowSums:
    @pytest.mark.parametrize("width", [1, 7, 16, 32])
    def test_repeated_unsorted_indices(self, width):
        rng = np.random.default_rng(width)
        index = rng.integers(0, 40, size=300)
        assert np.any(np.diff(index) < 0)
        values = rng.normal(size=(300, width)) * 10.0 ** rng.uniform(-8, 8, size=(300, width))
        _assert_bytes(row_sums(index, values, 45), _add_at_zeros(index, values, 45))

    @pytest.mark.parametrize("width", [1, 7, 16, 32])
    def test_empty_index(self, width):
        sums = row_sums(np.empty(0, dtype=np.int64), np.empty((0, width)), 5)
        _assert_bytes(sums, np.zeros((5, width)))

    def test_zero_degree_rows_are_positive_zero(self):
        index = np.array([4, 1, 4])
        values = np.arange(6.0).reshape(3, 2)
        sums = row_sums(index, values, 6)
        _assert_bytes(sums, _add_at_zeros(index, values, 6))
        assert not np.signbit(sums[[0, 2, 3, 5]]).any()

    @pytest.mark.parametrize("width", [1, 7, 16, 32])
    def test_signed_zero_inf_nan(self, width):
        rng = np.random.default_rng(100 + width)
        index = rng.integers(0, 12, size=120)
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, -2.25])
        values = rng.choice(special, size=(120, width))
        values[index == 3] = -0.0  # a row that sums only negative zeros
        with np.errstate(invalid="ignore"):
            sums = row_sums(index, values, 12)
            expected = _add_at_zeros(index, values, 12)
        # IEEE fixes no NaN's sign bit: which NaN operand an add keeps
        # depends on the compiled loop's operand order.
        nan = np.isnan(expected)
        assert nan.any() and np.array_equal(np.isnan(sums), nan)
        _assert_bytes(sums[~nan], expected[~nan])
        assert np.isinf(expected).any() and sums[3].tobytes() == np.zeros(width).tobytes()

    def test_one_dimensional_values(self):
        rng = np.random.default_rng(8)
        index = rng.integers(0, 9, size=70)
        values = rng.normal(size=70)
        _assert_bytes(row_sums(index, values, 11), _add_at_zeros(index, values, 11))
