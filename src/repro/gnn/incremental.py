"""Incremental EP-GNN encoding: dirty-region re-encode inside the RL loop.

:class:`~repro.gnn.epgnn.EPGNN` re-encodes the **whole** netlist at every
RL step even though, per Table I, only the "RL masked" feature column
changes between steps — an N-endpoint episode costs N full graph encodes.
This module applies the dirty-frontier + shadow-check recipe that
:mod:`repro.timing.incremental` proved on the STA side to the policy's
encoder:

* **rank-1 layer 1** — the affine contribution of the 13 static feature
  columns to layer 1 is episode-constant, so it is computed once per
  episode (``A_static = proj(F_static)``, ``M_static = agg(mean(F_static))``,
  both tape-connected; autograd accumulates their gradients on every
  reuse).  A step then only applies the rank-1 masked-column update
  ``A_static[v] + m[v]·W_proj[0]`` (and the neighbor-mean analogue) to the
  rows whose mask or neighbor-mask changed;
* **3-hop dirty region** — a GNN layer's output row moves only when the
  row's own input or one of its aggregation sources moved, so the dirty
  set grows by at most one adjacency hop per layer: ``D → D∪N(D) → … ``
  for the three Eq.-2 layers.  Clean rows keep the tensors computed at
  earlier steps (values are identical, and the shared tape subgraph
  yields the same parameter gradients);
* **incremental Eq.-3 pooling** — only endpoints whose fan-in cone (or
  own cell) intersects the final dirty region re-pool and re-project;
  everything else reuses the cached embedding rows via the differentiable
  ``scatter_rows``.

Every incremental expression mirrors the vectorized full pass row for row
(same summation order inside :func:`repro.nn.tensor.segment_sum`, same
``γ``-gating expression), so a recomputed row from unchanged inputs is
bitwise equal; drift against a from-scratch encode can only come from the
rank-1 decomposition of layer 1 and from BLAS blocking on the smaller
matmuls, both far below :data:`CHECK_ATOL`.

Fallback rules (always produce the exact full-path embedding, bitwise):
first encode of an episode, a netlist ``mutation_version`` bump, a static
feature column that changed under us (diffed every step, the stale-state
safety net), a feature-matrix shape change, the dirty region covering
more than :data:`FULL_FALLBACK_FRACTION` of the cells.  A rollout can
also skip the session altogether (``RLCCDPolicy.rollout(incremental=False)``),
which is the full-encode oracle the equivalence tests compare against.

Shadow-check mode (``REPRO_GNN_CHECK=1``) re-runs the full encode after
every incremental one and asserts max |Δ| ≤ :data:`CHECK_ATOL` — the
``gnn-differential`` CI job runs the policy suites under it.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.features.cones import ConeIndex
from repro.gnn.epgnn import EPGNN
from repro.netlist.transform import MessagePassingGraph
from repro.nn.tensor import Tensor, scatter_rows

#: Shadow-check agreement tolerance (absolute, elementwise on embeddings).
CHECK_ATOL = 1e-9

#: When the 3-hop dirty region covers more than this fraction of all cells,
#: a full re-encode is cheaper than the per-row bookkeeping — and keeps the
#: result bitwise equal to the full path.
FULL_FALLBACK_FRACTION = 0.5


#: Truthy value turns on differential shadow checking of every incremental
#: encode (expensive: each one also pays a full encode).
ENV_CHECK = "REPRO_GNN_CHECK"

_TRUTHY = ("1", "true", "yes", "on")

_check: bool = os.environ.get(ENV_CHECK, "").strip().lower() in _TRUTHY


def check_enabled() -> bool:
    """Whether shadow-check mode is on (``REPRO_GNN_CHECK=1``)."""
    return _check


def set_check(value: bool) -> bool:
    """Set shadow-check mode; returns the previous value."""
    global _check
    previous = _check
    _check = bool(value)
    return previous


def assert_embeddings_equal(
    incremental: Tensor, full: Tensor, atol: float = CHECK_ATOL
) -> None:
    """Raise ``RuntimeError`` if the two embedding matrices disagree."""
    if incremental.shape != full.shape:
        raise RuntimeError(
            "incremental EP-GNN drift: embedding shape "
            f"{incremental.shape} != full {full.shape}"
        )
    worst = float(np.abs(incremental.data - full.data).max()) if full.size else 0.0
    if worst > atol:
        raise RuntimeError(
            f"incremental EP-GNN drift beyond {atol:g}: max |Δ|={worst:.3e} — "
            "a dirty-region expansion is missing or a cached row went stale"
        )


def _reverse_csr(graph: MessagePassingGraph) -> Tuple[np.ndarray, np.ndarray]:
    """CSR over "who aggregates me": cell u → cells v with u ∈ N(v).

    Equal to the forward CSR for the default ``bidirectional`` mode, but
    built explicitly so the ``forward``/``backward`` edge-mode ablations
    stay correct.
    """
    src = graph.neighbor_index
    dst = graph._edge_dst()
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=graph.num_nodes)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, dst[order]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Plain-numpy mirror of :meth:`Tensor.sigmoid` (same ±60 clip)."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _segment_sum_sorted(
    values: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-segment sums of ``values`` rows grouped contiguously by ``counts``.

    ``np.add.reduceat`` over the non-empty segment starts — bitwise equal to
    the ``np.add.at`` scatter in :func:`repro.nn.tensor.segment_sum` for
    sorted contiguous segments (both reduce sequentially in row order, and
    ``0 + v`` is exact), but several times faster.  Empty segments get zero
    rows (``reduceat`` would repeat a neighbor's row instead).
    """
    if values.shape[0] == 0:
        return np.zeros((counts.size,) + values.shape[1:], dtype=values.dtype)
    starts = np.cumsum(counts) - counts
    if counts.all():
        return np.add.reduceat(values, starts, axis=0)
    nonempty = counts > 0
    sums = np.zeros((counts.size,) + values.shape[1:], dtype=values.dtype)
    sums[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
    return sums


def _rank1_rows(
    a_static: Tensor,
    m_static: Tensor,
    layer,
    rows: np.ndarray,
    mask_rows: np.ndarray,
    nb_mask_rows: np.ndarray,
) -> Tensor:
    """Fused layer-1 dirty-row update (one tape node).

    Forward: ``σ(γ·(A[rows] + m·W_proj[0]) + (1-γ)·(M[rows] + m̄·W_agg[0]))``
    — the rank-1 masked-column correction on top of the cached static
    affines.  Backward routes gradients into the static caches (whose own
    tape reaches the layer parameters and biases), the two weight matrices'
    row 0 (the mask column's row, the only part the correction touches) and
    the γ logit.
    """
    proj_w, agg_w, gamma_logit = layer.proj.weight, layer.agg.weight, layer.gamma_logit
    g = float(_sigmoid(gamma_logit.data)[0])
    proj_pre = a_static.data[rows] + np.multiply.outer(mask_rows, proj_w.data[0])
    agg_pre = m_static.data[rows] + np.multiply.outer(nb_mask_rows, agg_w.data[0])
    out_data = _sigmoid(g * proj_pre + (1.0 - g) * agg_pre)

    def backward(grad: np.ndarray) -> None:
        d = grad * out_data * (1.0 - out_data)
        gp = g * d
        ga = (1.0 - g) * d
        if a_static.requires_grad:
            full = np.zeros_like(a_static.data)
            np.add.at(full, rows, gp)
            a_static._accumulate(full)
        if m_static.requires_grad:
            full = np.zeros_like(m_static.data)
            np.add.at(full, rows, ga)
            m_static._accumulate(full)
        if proj_w.requires_grad:
            full = np.zeros_like(proj_w.data)
            full[0] = mask_rows @ gp
            proj_w._accumulate(full)
        if agg_w.requires_grad:
            full = np.zeros_like(agg_w.data)
            full[0] = nb_mask_rows @ ga
            agg_w._accumulate(full)
        if gamma_logit.requires_grad:
            d_gamma = float((d * (proj_pre - agg_pre)).sum())
            gamma_logit._accumulate(np.array([d_gamma * g * (1.0 - g)]))

    return Tensor._make(
        out_data, (a_static, m_static, proj_w, agg_w, gamma_logit), backward
    )


def _conv_rows(
    prev: Tensor,
    layer,
    rows: np.ndarray,
    mean: np.ndarray,
    mean_backward,
) -> Tensor:
    """Fused Eq.-2 layer evaluated on ``rows`` only (one tape node).

    Forward mirrors :class:`~repro.gnn.epgnn.GraphConvLayer`:
    ``σ(γ·(X[rows]·W_p + b_p) + (1-γ)·(mean·W_a + b_a))`` where ``mean``
    is the per-row neighbor mean computed by the caller (CSR segment sums
    or a dense matrix product, see :meth:`EncoderSession._neighbor_means`).
    Backward hand-writes the matmul chain, accumulating into the
    previous-layer tensor and all five layer parameters;
    ``mean_backward(g, dx)`` adds the mean path's contribution
    ``∂mean/∂X · g`` into ``dx``.
    """
    proj_w, proj_b = layer.proj.weight, layer.proj.bias
    agg_w, agg_b = layer.agg.weight, layer.agg.bias
    gamma_logit = layer.gamma_logit
    g = float(_sigmoid(gamma_logit.data)[0])
    x = prev.data
    x_rows = x[rows]
    proj_pre = x_rows @ proj_w.data + proj_b.data
    agg_pre = mean @ agg_w.data + agg_b.data
    out_data = _sigmoid(g * proj_pre + (1.0 - g) * agg_pre)

    def backward(grad: np.ndarray) -> None:
        d = grad * out_data * (1.0 - out_data)
        gp = g * d
        ga = (1.0 - g) * d
        if proj_w.requires_grad:
            proj_w._accumulate(x_rows.T @ gp)
        if proj_b.requires_grad:
            proj_b._accumulate(gp.sum(axis=0))
        if agg_w.requires_grad:
            agg_w._accumulate(mean.T @ ga)
        if agg_b.requires_grad:
            agg_b._accumulate(ga.sum(axis=0))
        if gamma_logit.requires_grad:
            d_gamma = float((d * (proj_pre - agg_pre)).sum())
            gamma_logit._accumulate(np.array([d_gamma * g * (1.0 - g)]))
        if prev.requires_grad:
            dx = np.zeros_like(x)
            np.add.at(dx, rows, gp @ proj_w.data.T)
            mean_backward(ga @ agg_w.data.T, dx)
            prev._accumulate(dx)

    return Tensor._make(
        out_data,
        (prev, proj_w, proj_b, agg_w, agg_b, gamma_logit),
        backward,
    )


def _pool_fc_rows(
    final: Tensor,
    fc,
    ep_cells: np.ndarray,
    cone_sums: np.ndarray,
    pool_backward,
) -> Tensor:
    """Fused Eq.-3 pooling + FC head for dirty endpoints (one tape node).

    Forward: ``(X[ep] + cone_sums)·W_fc + b_fc`` where ``cone_sums`` holds
    each dirty endpoint's ``Σ_{j∈cone} X[j]`` (caller-computed, same
    summation order as ``EPGNN.endpoint_pool``);
    ``pool_backward(upstream, dx)`` adds the cone path's contribution into
    ``dx``.
    """
    fc_w, fc_b = fc.weight, fc.bias
    x = final.data
    pooled = x[ep_cells] + cone_sums
    out_data = pooled @ fc_w.data + fc_b.data

    def backward(grad: np.ndarray) -> None:
        if fc_w.requires_grad:
            fc_w._accumulate(pooled.T @ grad)
        if fc_b.requires_grad:
            fc_b._accumulate(grad.sum(axis=0))
        if final.requires_grad:
            upstream = grad @ fc_w.data.T
            dx = np.zeros_like(x)
            np.add.at(dx, ep_cells, upstream)
            pool_backward(upstream, dx)
            final._accumulate(dx)

    return Tensor._make(out_data, (final, fc_w, fc_b), backward)


class EncoderSession:
    """Per-``(policy, env)`` incremental EP-GNN encoding state.

    Built once per environment (reverse adjacency, endpoint lookup) and
    reset per episode with :meth:`begin_episode`; :meth:`encode` then
    serves each RL step either incrementally or — on any fallback
    trigger — with a cache-refreshing full encode that is bitwise equal
    to :meth:`EPGNN.forward`.
    """

    def __init__(
        self,
        gnn: EPGNN,
        graph: MessagePassingGraph,
        cones: ConeIndex,
        netlist=None,
    ):
        self.gnn = gnn
        self.graph = graph
        self.cones = cones
        self.netlist = netlist if netlist is not None else cones.netlist
        self._rev_indptr, self._rev_index = _reverse_csr(graph)
        self._inv_degree = 1.0 / np.maximum(graph.degree(), 1).astype(np.float64)
        # Edge → owning-row maps for the mask-select gathers: selecting a
        # CSR's edges through a boolean row-membership mask replaces the
        # whole index arithmetic of a per-row gather with one fancy index
        # (and preserves CSR edge order, so segment sums stay bitwise).
        self._fwd_owner = graph._edge_dst()
        self._fwd_counts = np.diff(graph.indptr)
        self._rev_owner = np.repeat(
            np.arange(graph.num_nodes, dtype=np.int64),
            np.diff(self._rev_indptr),
        )
        self._cone_owner = np.repeat(
            np.arange(len(cones.endpoints), dtype=np.int64),
            np.diff(cones.cone_indptr),
        )
        self._cone_counts = np.diff(cones.cone_indptr)
        self._ep_cells = np.asarray(cones.endpoints, dtype=np.int64)
        # Cell → endpoint position (−1 for non-endpoint cells).
        self._ep_pos = np.full(graph.num_nodes, -1, dtype=np.int64)
        self._ep_pos[self._ep_cells] = np.arange(self._ep_cells.size)
        self.begin_episode()

    # ------------------------------------------------------------------ #
    def begin_episode(self) -> None:
        """Drop all per-episode caches (parameters may have changed)."""
        self._layers: Optional[List[Tensor]] = None
        self._emb: Optional[Tensor] = None
        self._prev_mask: Optional[np.ndarray] = None
        self._static: Optional[np.ndarray] = None
        self._statics: Optional[Tuple[Tensor, Tensor]] = None
        self._version: Optional[int] = None

    # ------------------------------------------------------------------ #
    def encode(self, features: np.ndarray) -> Tensor:
        """Endpoint embeddings for the current step (incremental or full)."""
        features = np.asarray(features, dtype=np.float64)
        if not self._cache_valid(features):
            return self._full_encode(features)

        mask = features[:, 0]
        dirty = np.nonzero(mask != self._prev_mask)[0]
        if dirty.size == 0:
            obs.incr("gnn.incremental_encode")
            return self._emb

        # Grow the dirty region one reverse-adjacency hop per layer.
        # Boolean membership masks + frontier-only neighbor selects beat
        # repeated ``np.union1d`` sorts; ``np.nonzero`` keeps the rows
        # sorted exactly as ``union1d`` would, and the masks double as the
        # row-membership selectors for the layer gathers below.
        in_region = np.zeros(self.graph.num_nodes, dtype=bool)
        in_region[dirty] = True
        frontier_mask = in_region.copy()
        regions = [dirty]
        region_masks = [frontier_mask]
        for _ in range(len(self.gnn.layers)):
            neighbors = self._rev_index[frontier_mask[self._rev_owner]]
            fresh_mask = np.zeros_like(in_region)
            fresh_mask[neighbors] = True
            fresh_mask &= ~in_region
            in_region |= fresh_mask
            frontier_mask = fresh_mask
            regions.append(np.nonzero(in_region)[0])
            region_masks.append(in_region.copy())
        if regions[-1].size > FULL_FALLBACK_FRACTION * self.graph.num_nodes:
            return self._full_encode(features)

        with obs.span(
            "gnn.incremental_encode",
            attrs={"dirty": int(dirty.size), "region": int(regions[-1].size)},
        ):
            embeddings = self._incremental_step(
                features, mask, regions, region_masks
            )
        obs.incr("gnn.incremental_encode")
        obs.incr("gnn.dirty_cells", int(regions[-1].size))
        if check_enabled():
            with obs.span("gnn.shadow_check"):
                assert_embeddings_equal(
                    embeddings, self._reference(features), CHECK_ATOL
                )
            obs.incr("gnn.shadow_checks")
        return embeddings

    # ------------------------------------------------------------------ #
    def _cache_valid(self, features: np.ndarray) -> bool:
        if self._layers is None or self._emb is None:
            return False
        version = getattr(self.netlist, "mutation_version", None)
        if version != self._version:
            return False
        if features.shape != (self.graph.num_nodes, self._static.shape[1] + 1):
            return False
        # Stale-state safety net: a static column mutated under us (the
        # analogue of the incremental STA's clock-arrival diff) forces a
        # cache-refreshing full encode rather than a silent stale read.
        return bool(np.array_equal(features[:, 1:], self._static))

    def _full_encode(self, features: np.ndarray) -> Tensor:
        """Full re-encode mirroring :meth:`EPGNN.forward` bitwise; refreshes
        every per-episode cache (including the layer-1 static affines)."""
        gnn = self.gnn
        with obs.span("gnn.full_encode"):
            x = Tensor(features)
            layers: List[Tensor] = []
            for layer in gnn.layers:
                x = layer(x, self.graph)
                layers.append(x)
            pooled = gnn.endpoint_pool(x, self.cones)
            embeddings = gnn.fc(pooled)

            # Episode-constant rank-1 split of layer 1: the static columns'
            # affine images under proj/agg, computed on the tape once.
            static_features = np.array(features, copy=True)
            static_features[:, 0] = 0.0
            first = gnn.layers[0]
            a_static = first.proj(Tensor(static_features))
            m_static = first.agg(
                Tensor(self.graph.mean_aggregate(static_features))
            )

        self._layers = layers
        self._emb = embeddings
        self._prev_mask = np.array(features[:, 0], copy=True)
        self._static = np.array(features[:, 1:], copy=True)
        self._statics = (a_static, m_static)
        self._version = getattr(self.netlist, "mutation_version", None)
        obs.incr("gnn.full_encode")
        return embeddings

    def _neighbor_means(
        self, x: np.ndarray, row_mask: np.ndarray, rows: np.ndarray
    ):
        """Per-row neighbor means of ``x`` at ``rows`` plus the matching
        backward closure ``(g, dx) -> None`` adding ``∂mean/∂x · g`` into
        ``dx``.  Mask-select CSR gather + sorted segment reduce: selecting
        the CSR's edges through the boolean row-membership mask replaces a
        per-row gather's index arithmetic with one fancy index while
        preserving CSR edge order, so segment sums stay bitwise equal."""
        flat = self.graph.neighbor_index[row_mask[self._fwd_owner]]
        counts = self._fwd_counts[rows]
        inv_deg_rows = self._inv_degree[rows]
        mean = _segment_sum_sorted(x[flat], counts)
        mean *= inv_deg_rows[:, None]
        seg = np.repeat(np.arange(rows.size, dtype=np.int64), counts)

        def mean_backward(g: np.ndarray, dx: np.ndarray) -> None:
            d_mean = g * inv_deg_rows[:, None]
            np.add.at(dx, flat, d_mean[seg])

        return mean, mean_backward

    def _cone_sums(self, x: np.ndarray, ep_mask: np.ndarray, eps: np.ndarray):
        """Per-endpoint fan-in-cone sums of ``x`` at endpoint positions
        ``eps`` plus the backward closure, mirroring
        ``EPGNN.endpoint_pool``'s summation order."""
        flat = self.cones.cone_members[ep_mask[self._cone_owner]]
        counts = self._cone_counts[eps]
        sums = _segment_sum_sorted(x[flat], counts)
        seg = np.repeat(np.arange(eps.size, dtype=np.int64), counts)

        def pool_backward(upstream: np.ndarray, dx: np.ndarray) -> None:
            np.add.at(dx, flat, upstream[seg])

        return sums, pool_backward

    def _incremental_step(
        self,
        features: np.ndarray,
        mask: np.ndarray,
        regions: List[np.ndarray],
        region_masks: List[np.ndarray],
    ) -> Tensor:
        gnn = self.gnn
        layers = self._layers
        new_layers: List[Tensor] = []

        # Layer 1: rank-1 masked-column update on rows whose own mask or
        # neighbor-mask mean moved (regions[1] = D ∪ N(D)).  Fused into a
        # single tape node: on small designs the per-op autograd overhead
        # dominates, so each layer's dirty-row update is one custom op.
        first = gnn.layers[0]
        rows1 = regions[1]
        a_static, m_static = self._statics
        nb_mask, _ = self._neighbor_means(mask[:, None], region_masks[1], rows1)
        nb_mask = nb_mask[:, 0]
        fresh = _rank1_rows(a_static, m_static, first, rows1, mask[rows1], nb_mask)
        new_layers.append(scatter_rows(layers[0], rows1, fresh))

        # Layers 2..L: recompute one more adjacency hop per layer, reading
        # neighbors from the already-updated previous-layer tensor.
        for depth, layer in enumerate(gnn.layers[1:], start=1):
            rows = regions[depth + 1]
            prev = new_layers[depth - 1]
            mean, mean_backward = self._neighbor_means(
                prev.data, region_masks[depth + 1], rows
            )
            fresh = _conv_rows(prev, layer, rows, mean, mean_backward)
            new_layers.append(scatter_rows(layers[depth], rows, fresh))

        # Eq.-3 pooling + FC head for the endpoints whose receptive field
        # (own cell or fan-in cone) intersects the final dirty region.
        final_region = regions[-1]
        final = new_layers[-1]
        ep_dirty = np.zeros(self._ep_cells.size, dtype=bool)
        ep_dirty[self.cones.endpoints_touching(final_region)] = True
        own_positions = self._ep_pos[final_region]
        ep_dirty[own_positions[own_positions >= 0]] = True
        dirty_eps = np.nonzero(ep_dirty)[0]
        if dirty_eps.size:
            cone_sums, pool_backward = self._cone_sums(
                final.data, ep_dirty, dirty_eps
            )
            emb_rows = _pool_fc_rows(
                final, gnn.fc, self._ep_cells[dirty_eps], cone_sums, pool_backward
            )
            embeddings = scatter_rows(self._emb, dirty_eps, emb_rows)
        else:
            embeddings = self._emb

        self._layers = new_layers
        self._emb = embeddings
        self._prev_mask = np.array(mask, copy=True)
        return embeddings

    def _reference(self, features: np.ndarray) -> Tensor:
        """From-scratch embeddings for the shadow check (no cache refresh,
        no counters — same expression structure as :meth:`EPGNN.forward`)."""
        gnn = self.gnn
        x = Tensor(np.asarray(features, dtype=np.float64))
        for layer in gnn.layers:
            x = layer(x, self.graph)
        return gnn.fc(gnn.endpoint_pool(x, self.cones)).detach()


__all__ = [
    "CHECK_ATOL",
    "ENV_CHECK",
    "FULL_FALLBACK_FRACTION",
    "EncoderSession",
    "assert_embeddings_equal",
    "check_enabled",
    "set_check",
]
