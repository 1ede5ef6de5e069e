"""Tests for the EP-GNN encoder (Eq. 2 and Eq. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.features.cones import ConeIndex, fanin_cone
from repro.features.table1 import NUM_FEATURES, FeatureExtractor
from repro.gnn import epgnn
from repro.gnn.epgnn import EMBED_DIM, HIDDEN_DIM, EPGNN, GraphConvLayer
from repro.netlist.transform import to_message_passing_graph
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer, compile_timing


@pytest.fixture
def gnn_context(small_design):
    nl, period = small_design
    analyzer = TimingAnalyzer(nl)
    clock = ClockModel.for_netlist(nl, period)
    report = analyzer.analyze(clock)
    graph = to_message_passing_graph(nl)
    cones = ConeIndex(compile_timing(nl), nl.endpoints())
    features = FeatureExtractor(nl).extract(report, clock)
    return nl, graph, cones, features


class TestGraphConvLayer:
    def test_output_in_sigmoid_range(self, gnn_context, rng):
        nl, graph, cones, features = gnn_context
        layer = GraphConvLayer(NUM_FEATURES, 8, rng=0)
        from repro.nn.tensor import Tensor

        out = layer(Tensor(features), graph)
        assert np.all(out.data > 0.0)
        assert np.all(out.data < 1.0)

    def test_gamma_in_unit_interval(self):
        layer = GraphConvLayer(4, 4, rng=0)
        assert 0.0 < layer.gamma < 1.0

    def test_gamma_trainable(self, gnn_context):
        nl, graph, cones, features = gnn_context
        layer = GraphConvLayer(NUM_FEATURES, 4, rng=0)
        from repro.nn.tensor import Tensor

        out = layer(Tensor(features), graph)
        out.sum().backward()
        assert layer.gamma_logit.grad is not None
        assert layer.gamma_logit.grad[0] != 0.0


class TestEPGNN:
    def test_paper_dimensions(self):
        gnn = EPGNN(NUM_FEATURES, rng=0)
        assert gnn.hidden_dim == HIDDEN_DIM == 32
        assert gnn.embed_dim == EMBED_DIM == 16
        assert len(gnn.layers) == 3

    def test_embedding_shape(self, gnn_context):
        nl, graph, cones, features = gnn_context
        gnn = EPGNN(NUM_FEATURES, rng=0)
        emb = gnn(features, graph, cones)
        assert emb.shape == (len(cones), EMBED_DIM)

    def test_wrong_feature_dim_raises(self, gnn_context):
        nl, graph, cones, features = gnn_context
        gnn = EPGNN(NUM_FEATURES, rng=0)
        with pytest.raises(ValueError):
            gnn(features[:, :5], graph, cones)

    def test_deterministic_per_seed(self, gnn_context):
        nl, graph, cones, features = gnn_context
        a = EPGNN(NUM_FEATURES, rng=3)(features, graph, cones)
        b = EPGNN(NUM_FEATURES, rng=3)(features, graph, cones)
        np.testing.assert_array_equal(a.data, b.data)

    def test_mask_column_changes_embeddings(self, gnn_context):
        """Re-encoding after a selection must produce different state s_t."""
        nl, graph, cones, features = gnn_context
        gnn = EPGNN(NUM_FEATURES, rng=0)
        base = gnn(features, graph, cones).data
        flipped = features.copy()
        flipped[cones.endpoints[0], 0] = 1.0
        after = gnn(flipped, graph, cones).data
        assert not np.allclose(base, after)

    def test_cone_aggregation_matters(self, gnn_context, monkeypatch):
        """Eq. 3: perturbing a cone cell's features changes only endpoints
        whose receptive field contains it."""
        nl, graph, cones, features = gnn_context
        monkeypatch.setattr(epgnn, "NUM_LAYERS", 1)
        gnn = EPGNN(NUM_FEATURES, rng=0)
        target = None
        for i, endpoint in enumerate(cones.endpoints):
            cone = fanin_cone(nl, endpoint)
            if len(cone) >= 3:
                target = i
                break
        assert target is not None
        cone_cell = min(cone)
        base = gnn(features, graph, cones).data
        perturbed = features.copy()
        perturbed[cone_cell, 3:10] += 5.0
        after = gnn(perturbed, graph, cones).data
        assert not np.allclose(base[target], after[target])

    def test_gradients_reach_every_parameter(self, gnn_context):
        nl, graph, cones, features = gnn_context
        gnn = EPGNN(NUM_FEATURES, rng=0)
        emb = gnn(features, graph, cones)
        (emb * emb).sum().backward()
        for name, p in gnn.named_parameters():
            assert p.grad is not None, f"no grad for {name}"

    def test_segment_sum_gradient(self, rng):
        from repro.nn.tensor import Tensor, segment_sum

        rows = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        segments = np.array([0, 0, 1, 2, 2])
        out = segment_sum(rows, segments, 3)
        np.testing.assert_allclose(out.data[0], rows.data[:2].sum(axis=0))
        (out * out).sum().backward()
        assert rows.grad is not None
        np.testing.assert_allclose(rows.grad[0], 2 * out.data[0])

    def test_transfer_state_dict_roundtrip(self, gnn_context):
        nl, graph, cones, features = gnn_context
        a = EPGNN(NUM_FEATURES, rng=0)
        b = EPGNN(NUM_FEATURES, rng=9)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(
            a(features, graph, cones).data, b(features, graph, cones).data
        )
