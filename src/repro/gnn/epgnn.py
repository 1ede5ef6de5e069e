"""EP-GNN: endpoint-oriented graph neural network (paper §III-B.1).

Three graph-convolution layers (Eq. 2) followed by one fully-connected
endpoint head (Eq. 3):

.. math::

    f_v^l = \\sigma\\big( \\gamma\\, f_v^{l-1} \\Theta_{proj}
            + (1-\\gamma)\\, \\Theta_{agg}\\big(\\tfrac{1}{|N(v)|}
              \\textstyle\\sum_{j \\in N(v)} f_j^{l-1}\\big) \\big)

    f_e = \\Theta_{FC}\\big( f_e^{l=3} + \\textstyle\\sum_{j \\in cone(e)}
          f_j^{l=3} \\big)

* σ is the sigmoid, γ a *trainable scalar* weighing self-projection against
  neighborhood aggregation (squashed through a sigmoid so it stays in
  (0, 1));
* the hidden dimension is 32 and the endpoint embedding dimension is 16, as
  specified in the paper;
* the endpoint head sums the final-layer embeddings over the endpoint's
  **fan-in cone**, giving each endpoint a receptive field that covers its
  entire logic cone regardless of depth — the "EP" in EP-GNN.

The mean-over-neighbors aggregation is computed with a differentiable
row-gather + segment-sum over the CSR message-passing graph built by
:func:`repro.netlist.transform.to_message_passing_graph`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import obs
from repro.features.cones import ConeIndex
from repro.netlist.transform import MessagePassingGraph
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, segment_sum
from repro.utils.rng import SeedLike, as_rng

HIDDEN_DIM = 32
EMBED_DIM = 16
NUM_LAYERS = 3


class GraphConvLayer(Module):
    """One Eq.-2 layer: gated mix of self-projection and mean aggregation."""

    def __init__(self, in_dim: int, out_dim: int, rng: SeedLike = None):
        super().__init__()
        rng = as_rng(rng)
        self.proj = self.register_module("proj", Linear(in_dim, out_dim, rng=rng))
        self.agg = self.register_module("agg", Linear(in_dim, out_dim, rng=rng))
        # γ is stored as a pre-sigmoid logit so it is unconstrained during
        # optimization but always lands in (0, 1) in the forward pass.
        self.gamma_logit = self.register_parameter("gamma_logit", np.zeros(1))

    @property
    def gamma(self) -> float:
        """Current mixing coefficient γ ∈ (0, 1)."""
        return float(1.0 / (1.0 + np.exp(-self.gamma_logit.data[0])))

    def forward(self, features: Tensor, graph: MessagePassingGraph) -> Tensor:
        neighbor_mean = _mean_aggregate(features, graph)
        gamma = self.gamma_logit.sigmoid()
        mixed = gamma * self.proj(features) + (1.0 - gamma) * self.agg(neighbor_mean)
        return mixed.sigmoid()


def _mean_aggregate(features: Tensor, graph: MessagePassingGraph) -> Tensor:
    """Differentiable per-node mean of neighbor rows (zeros if no neighbors)."""
    gathered = features.gather_rows(graph.neighbor_index)
    # Segment-sum by destination node via a (sparse pattern) matmul-free
    # scatter: build once per call; graph topology is static per design.
    dst = graph._edge_dst()
    summed = segment_sum(gathered, dst, graph.num_nodes)
    degree = np.maximum(graph.degree(), 1)[:, None]
    return summed * Tensor(1.0 / degree)


class EPGNN(Module):
    """The full EP-GNN encoder: Eq. 2 stack + Eq. 3 endpoint head.

    ``forward`` returns the (num_endpoints × 16) embedding matrix
    ``F_EP`` in the canonical endpoint order of the supplied
    :class:`~repro.features.cones.ConeIndex`.  Depth and widths are the
    module constants :data:`NUM_LAYERS`, :data:`HIDDEN_DIM` and
    :data:`EMBED_DIM` (the paper's 3, 32 and 16), read at construction.
    """

    def __init__(self, in_features: int, rng: SeedLike = None):
        super().__init__()
        rng = as_rng(rng)
        self.in_features = in_features
        self.hidden_dim = hidden_dim = HIDDEN_DIM
        self.embed_dim = embed_dim = EMBED_DIM
        self.layers: List[GraphConvLayer] = []
        dims = [in_features] + [hidden_dim] * NUM_LAYERS
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = GraphConvLayer(d_in, d_out, rng=rng)
            self.register_module(f"conv{i}", layer)
            self.layers.append(layer)
        self.fc = self.register_module("fc", Linear(hidden_dim, embed_dim, rng=rng))

    def gamma_values(self) -> List[float]:
        """Per-layer mixing coefficients γ ∈ (0, 1), outermost layer first.

        γ is the paper's trainable self-vs-neighborhood gate (Eq. 2); its
        drift over training is part of the per-episode telemetry.
        """
        return [layer.gamma for layer in self.layers]

    def node_embeddings(self, features: np.ndarray, graph: MessagePassingGraph) -> Tensor:
        """Run the Eq.-2 stack over all cells; (num_cells × hidden_dim)."""
        x = Tensor(np.asarray(features, dtype=np.float64))
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"feature dim {x.shape[1]} != model in_features {self.in_features}"
            )
        for layer in self.layers:
            x = layer(x, graph)
        return x

    def forward(
        self,
        features: np.ndarray,
        graph: MessagePassingGraph,
        cones: ConeIndex,
    ) -> Tensor:
        """Endpoint embeddings ``F_EP`` per Eq. 3 (num_endpoints × embed_dim)."""
        with obs.span("gnn.forward"):
            nodes = self.node_embeddings(features, graph)
            result = self.fc(self.endpoint_pool(nodes, cones))
        obs.incr("gnn.forward_passes")
        return result

    def endpoint_pool(self, nodes: Tensor, cones: ConeIndex) -> Tensor:
        """Eq.-3 pooling ``f_e + Σ_{j∈cone(e)} f_j`` as one segment-sum.

        Reads the cone CSR of :class:`~repro.features.cones.ConeIndex`
        (members and their owner rows).  Cone members are summed in their
        ascending CSR order, the order the incremental encoder mirrors row
        for row.
        """
        endpoint_rows = nodes.gather_rows(cones.endpoints)
        if cones.cone_members.size == 0:
            return endpoint_rows
        cone_sums = segment_sum(nodes.gather_rows(cones.cone_members), cones.cone_owner, len(cones))
        return endpoint_rows + cone_sums
