"""Incremental EP-GNN encoding: dirty-region re-encode inside the RL loop.

:class:`~repro.gnn.epgnn.EPGNN` re-encodes the **whole** netlist at every
RL step even though, per Table I, only the "RL masked" feature column
changes between steps — an N-endpoint episode costs N full graph encodes.
This module applies the dirty-frontier + shadow-check recipe that
:mod:`repro.timing.incremental` proved on the STA side to the policy's
encoder, and gives the whole episode one autograd node:

* **3-hop dirty region** — a GNN layer's output row moves only when the
  row's own input or one of its aggregation sources moved, so the dirty
  set grows by at most one adjacency hop per layer: ``D → D∪N(D) → … ``
  for the three Eq.-2 layers.  A step recomputes those rows and writes
  them into the episode's layer matrices in place.  Layer 1 reads the
  step's feature rows and the full encode's neighbour means of the
  static columns; only the mask column's mean is recomputed;
* **delta pooling** — the Eq.-3 cone sums ``S`` are updated by
  ``S_e += Σ_{v ∈ cone(e) ∩ D} (h_new[v] − h_old[v])`` over the final
  dirty region ``D``; only endpoints whose cone or own cell meets ``D``
  re-project through the FC head;
* **one reverse pass** — a step saves only what its backward reads (its
  rows' inputs, neighbour means and activations, the dirty endpoints and
  the delta's (endpoint, cell) pairs).  Each step's embeddings are a fresh
  tensor whose only parent is the episode node; the episode node's
  backward walks the steps from last to first with one running gradient
  per layer, one for ``S`` and one for the embeddings, and adds each
  parameter's gradient once.  Neighbour-mean and cone gradients are
  pulled (gather + segment sum over the target rows), which the symmetric
  message-passing graph and the cone transpose allow.

Incremental rows are not bitwise equal to a full encode: the segment sums
reduce with ``np.add.reduceat`` (not sequential), the cone sums are
updated by deltas, and BLAS blocks the smaller matmuls differently.  They
agree within :data:`CHECK_ATOL`; after a 48-step episode at 10K cells the
delta sums sit 3.4e-13 from a from-scratch sum
(:meth:`EncoderSession.cone_sum_drift`).

Fallback rules (a full step, whose embeddings are bitwise equal to
:meth:`EPGNN.forward`): first encode of an episode, a netlist
``mutation_version`` bump, a static feature column that changed under us
(diffed every step, the stale-state safety net), a feature-matrix shape
change, the dirty region covering more than
:data:`FULL_FALLBACK_FRACTION` of the cells.  A rollout can also skip the
session altogether (``RLCCDPolicy.rollout(incremental=False)``), which is
the tape oracle the equivalence tests compare against.

**One full step per update batch.**  An episode's first encode reuses the
session's last first-encode full step when every parameter array and the
begin feature matrix equal the ones it was computed with (both compared
with ``np.array_equal``; :meth:`EncoderSession.shared_step`).  Within a
batch the weights are fixed and every episode starts from the env's begin
features, so a batch of ``episodes_per_update`` episodes computes one
forward.  The step record is read-only and shared; each episode copies the
buffers it writes in place (the layer outputs and the cone sums) and runs
its own backward, so no sum changes order.  The shared step is dropped
before a new one is computed, so it never coexists with its successor.

Shadow-check mode (``REPRO_GNN_CHECK=1``) re-runs the full encode after
every incremental one and asserts max |Δ| ≤ :data:`CHECK_ATOL`; the
episode's backward also re-runs every recorded step on the tape oracle
and compares parameter gradients within :data:`GRAD_CHECK_TOL`.  The
``gnn-differential`` CI job runs the policy suites under it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.features.cones import ConeIndex
from repro.gnn.epgnn import EPGNN
from repro.netlist.transform import MessagePassingGraph
from repro.nn.tensor import Tensor, row_sums, sigmoid_data

#: Shadow-check agreement tolerance (absolute, elementwise on embeddings).
CHECK_ATOL = 1e-9

#: Gradient shadow-check tolerance: a parameter's reverse-pass gradient may
#: differ from the tape oracle's by at most ``GRAD_CHECK_TOL · max(1, max|g|)``
#: elementwise, ``g`` being the oracle gradient.
GRAD_CHECK_TOL = 1e-9

#: When the 3-hop dirty region covers more than this fraction of all cells,
#: a full re-encode is cheaper than the per-row bookkeeping — and keeps the
#: result bitwise equal to the full path.
FULL_FALLBACK_FRACTION = 0.5


#: Truthy value turns on differential shadow checking of every incremental
#: encode and every episode backward (expensive: each step also pays a full
#: encode, and each backward a tape backward per step).
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


def _add_segments(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.add.reduceat(values, starts, axis=0)`` for non-empty segments.

    An even-width float64 row block is reduced as complex128 pairs: complex
    addition adds each float component on its own, and numpy's reduceat
    runs about 1.5× faster on half as many wider elements.  ``reduceat``
    does not add a segment's rows strictly in order either way, so sums
    differ from the sequential :func:`repro.nn.tensor.row_sums` in the
    last bits (about 6e-14 at 2K cells, far below :data:`CHECK_ATOL`).
    It is faster than ``row_sums`` at every size the reverse pass sums:
    1.5–2× on a step's 90–490 rows, and about 1.5× on a full step's
    three pulls at 2K cells (2.4 against 3.5 ms).
    """
    if values.ndim == 2 and values.shape[1] % 2 == 0 and values.flags.c_contiguous:
        return np.add.reduceat(values.view(np.complex128), starts, axis=0).view(np.float64)
    return np.add.reduceat(values, starts, axis=0)


def _segment_sum_sorted(
    values: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-segment sums of ``values`` rows grouped contiguously by ``counts``
    (see :func:`_add_segments`).  Empty segments get zero rows
    (``reduceat`` would repeat a neighbor's row instead)."""
    if values.shape[0] == 0:
        return np.zeros((counts.size,) + values.shape[1:], dtype=values.dtype)
    starts = np.cumsum(counts) - counts
    if counts.all():
        return _add_segments(values, starts)
    nonempty = counts > 0
    sums = np.zeros((counts.size,) + values.shape[1:], dtype=values.dtype)
    sums[nonempty] = _add_segments(values, starts[nonempty])
    return sums


class _LayerRows:
    """One Eq.-2 layer evaluated on some rows: what its backward reads."""

    __slots__ = ("rows", "edges", "x", "mean", "out", "diff", "gamma")

    def __init__(
        self, layer, gamma: float, x: np.ndarray, mean: np.ndarray, rows=None, edges=None
    ):
        # The expression of GraphConvLayer.forward, op for op, so a full
        # step is bitwise equal to the tape: γ·(xW_p + b_p) + (1−γ)·(x̄W_a + b_a).
        proj = x @ layer.proj.weight.data + layer.proj.bias.data
        agg = mean @ layer.agg.weight.data + layer.agg.bias.data
        self.rows = rows  # None: every row
        self.edges = edges  # the rows' CSR entries (incremental steps)
        self.x = x
        self.mean = mean
        self.out = sigmoid_data(gamma * proj + (1.0 - gamma) * agg)
        self.diff = proj - agg  # ∂mixed/∂γ
        self.gamma = gamma

    def backward(self, grad: np.ndarray, grads: List[np.ndarray]):
        """Add this layer's parameter gradients into ``grads`` (proj W, b,
        agg W, b, γ logit); return the gradients of the two pre-activations."""
        d = grad * self.out * (1.0 - self.out)
        g = self.gamma
        gp = g * d
        ga = (1.0 - g) * d
        grads[0] += self.x.T @ gp
        grads[1] += gp.sum(axis=0)
        grads[2] += self.mean.T @ ga
        grads[3] += ga.sum(axis=0)
        grads[4] += float((d * self.diff).sum()) * g * (1.0 - g)
        return gp, ga


@dataclass
class _FullStep:
    """Every row of every layer, the cone sums and all embeddings.

    Read-only once built: episodes that share it (see
    :meth:`EncoderSession.shared_step`) copy ``sums`` and the layer
    outputs before writing into them.
    """

    layers: List[_LayerRows]
    pooled: np.ndarray
    sums: np.ndarray  # the cone sums S
    emb: np.ndarray
    features: np.ndarray  # the input matrix (a private copy)
    params: List[np.ndarray]  # copies of the parameters it was computed with


@dataclass
class _DeltaStep:
    """The rows one incremental step replaced, and its pooling delta."""

    layers: List[_LayerRows]
    pair_e: np.ndarray  # cone transpose rows of D: endpoint positions
    pair_counts: np.ndarray  # their lengths, one per cell of D
    dirty_eps: np.ndarray
    ep_cells: np.ndarray
    pooled: np.ndarray


class _Episode:
    """One episode's encoder state, and the backward of its autograd node.

    The layer matrices, the cone sums ``S`` and the embeddings are written
    in place by the steps; each step keeps only what the reverse pass
    reads.  Nothing here is shared with another episode, and nothing here
    refers to a tensor, so an episode dies with its trajectory.
    """

    def __init__(self, session: "EncoderSession"):
        self.session = session
        # Parameters are fixed within an episode, so each layer's γ is too.
        self.gammas = [
            float(sigmoid_data(layer.gamma_logit.data)[0]) for layer in session.gnn.layers
        ]
        self.steps: list = []
        self.pending: Dict[int, np.ndarray] = {}  # step index -> dE_t
        self.check_features: List[Optional[np.ndarray]] = []
        self.layers: Optional[List[np.ndarray]] = None
        self.sums: Optional[np.ndarray] = None
        self.emb: Optional[np.ndarray] = None
        self.first_mean: Optional[np.ndarray] = None
        self.prev_mask: Optional[np.ndarray] = None
        self.static: Optional[np.ndarray] = None
        self.version: Optional[int] = None

    # ------------------------------------------------------------------ #
    def valid_for(self, features: np.ndarray) -> bool:
        if self.layers is None:
            return False
        if getattr(self.session.netlist, "mutation_version", None) != self.version:
            return False
        if features.shape != (self.session.graph.num_nodes, self.static.shape[1] + 1):
            return False
        # Stale-state safety net: a static column mutated under us (the
        # analogue of the incremental STA's clock-arrival diff) forces a
        # full step rather than a silent stale read.
        return bool(np.array_equal(features[:, 1:], self.static))

    def _record(self, step, emb: np.ndarray, features: np.ndarray) -> np.ndarray:
        self.steps.append(step)
        self.check_features.append(np.array(features, copy=True) if check_enabled() else None)
        self.emb = emb
        return emb

    # ------------------------------------------------------------------ #
    def full_step(self, features: np.ndarray) -> np.ndarray:
        """Reset the in-place state from a full step: the session's shared
        one for an episode's first encode when it matches (see
        :meth:`EncoderSession.shared_step`), else a new one computed with
        the expressions of ``EPGNN.forward`` (bitwise equal to it)."""
        session = self.session
        if self.steps:  # a mid-episode fallback
            step = self._compute(features)
        else:
            step = session.shared_step(features)
            if step is None:
                # Drop the old one first, so it never coexists with the new.
                session._shared = None
                step = session._shared = self._compute(features)
            else:
                obs.incr("gnn.shared_full_step")
        # The layer outputs and the cone sums are written in place by the
        # delta steps: this episode's own copies.
        self.layers = [record.out.copy() for record in step.layers]
        self.sums = step.sums.copy()
        self.first_mean = step.layers[0].mean
        self.prev_mask = step.features[:, 0]
        self.static = step.features[:, 1:]
        self.version = getattr(session.netlist, "mutation_version", None)
        return self._record(step, step.emb, features)

    def _compute(self, features: np.ndarray) -> _FullStep:
        session = self.session
        gnn, graph, cones = session.gnn, session.graph, session.cones
        if features.shape[1] != gnn.in_features:
            raise ValueError(
                f"feature dim {features.shape[1]} != model in_features {gnn.in_features}"
            )
        with obs.span("gnn.full_encode"):
            x = features = np.array(features, copy=True)
            features.flags.writeable = False  # prev_mask and static view it
            layers: List[_LayerRows] = []
            for layer, gamma in zip(gnn.layers, self.gammas):
                summed = row_sums(session._fwd_owner, x[graph.neighbor_index], graph.num_nodes)
                record = _LayerRows(layer, gamma, x, summed * session._inv_degree[:, None])
                layers.append(record)
                x = record.out
            sums = row_sums(cones.cone_owner, x[cones.cone_members], len(cones))
            if cones.cone_members.size:
                pooled = x[cones.endpoints] + sums
            else:
                pooled = x[cones.endpoints]
            emb = pooled @ gnn.fc.weight.data + gnn.fc.bias.data
        obs.incr("gnn.full_encode")
        params = [param.data.copy() for param in session.params]
        return _FullStep(layers, pooled, sums, emb, features, params)

    def delta_step(self, features: np.ndarray, regions: List[np.ndarray]) -> np.ndarray:
        """Recompute the dirty rows in place and delta-update the pooling."""
        session = self.session
        gnn, graph, cones = session.gnn, session.graph, session.cones
        mask = features[:, 0]
        last = len(gnn.layers) - 1
        records: List[_LayerRows] = []
        old_top = None
        for depth, layer in enumerate(gnn.layers):
            rows = regions[depth + 1]
            edges, counts = session.row_edges(rows)
            flat = graph.neighbor_index[edges]
            inv_degree = session._inv_degree[rows]
            if depth == 0:
                # Only the mask column moved: the static columns' means
                # are the full step's.
                x = features[rows]
                mean = self.first_mean[rows]
                mean[:, 0] = _segment_sum_sorted(mask[flat], counts) * inv_degree
            else:
                below = self.layers[depth - 1]
                x = below[rows]
                mean = _segment_sum_sorted(below[flat], counts)
                mean *= inv_degree[:, None]
            record = _LayerRows(layer, self.gammas[depth], x, mean, rows, edges)
            buffer = self.layers[depth]
            if depth == last:
                old_top = buffer[rows]
            buffer[rows] = record.out
            records.append(record)

        # Delta pooling over D (the last layer's rows), from the cone
        # transpose rows of D regrouped by endpoint.
        region = regions[-1]
        pair_e = cones.cones_containing(region)
        pair_counts = cones.cell_indptr[region + 1] - cones.cell_indptr[region]
        ep_dirty = np.zeros(len(cones), dtype=bool)
        if pair_e.size:
            order = np.argsort(pair_e, kind="stable")
            by_endpoint = pair_e[order]
            starts = np.flatnonzero(np.diff(by_endpoint, prepend=-1))
            touched = by_endpoint[starts]
            delta = records[-1].out - old_top
            cell_of_pair = np.repeat(np.arange(region.size), pair_counts)[order]
            self.sums[touched] += _add_segments(delta[cell_of_pair], starts)
            ep_dirty[touched] = True
        own = cones.endpoint_position[region]
        ep_dirty[own[own >= 0]] = True
        dirty_eps = np.flatnonzero(ep_dirty)
        ep_cells = cones.endpoints[dirty_eps]
        pooled = self.layers[-1][ep_cells] + self.sums[dirty_eps]
        emb = self.emb.copy()
        emb[dirty_eps] = pooled @ gnn.fc.weight.data + gnn.fc.bias.data
        self.prev_mask = np.array(mask, copy=True)
        step = _DeltaStep(records, pair_e, pair_counts, dirty_eps, ep_cells, pooled)
        return self._record(step, emb, features)

    # ------------------------------------------------------------------ #
    def backward(self, _grad: np.ndarray) -> None:
        """The episode node's backward: one reverse pass over the steps
        whose embeddings received a gradient in this ``Tensor.backward``."""
        pending = dict(self.pending)
        self.pending.clear()
        if not pending:
            return
        grads = self._reverse(pending)
        if check_enabled():
            self._check_gradients(pending, grads)
        for param, grad in zip(self.session.params, grads):
            if param.requires_grad:
                param._accumulate_owned(grad)

    def _reverse(self, pending: Dict[int, np.ndarray]) -> List[np.ndarray]:
        session = self.session
        gnn, cones = session.gnn, session.cones
        n = session.graph.num_nodes
        grads = [np.zeros_like(param.data) for param in session.params]
        per_layer = [grads[5 * depth : 5 * depth + 5] for depth in range(len(gnn.layers))]
        fc_grads = grads[-2:]
        running = [np.zeros((n, layer.proj.weight.shape[1])) for layer in gnn.layers]
        d_sums = np.zeros((len(cones), gnn.fc.weight.shape[0]))
        d_emb = np.zeros((len(cones), gnn.fc.weight.shape[1]))
        first = min(pending)
        for index in range(max(pending), -1, -1):
            d_step = pending.get(index)
            if d_step is not None:
                d_emb += d_step
            step = self.steps[index]
            if isinstance(step, _FullStep):
                self._full_backward(step, running, d_sums, d_emb, per_layer, fc_grads)
                if index <= first:
                    break  # nothing older holds a gradient
            else:
                self._delta_backward(step, running, d_sums, d_emb, per_layer, fc_grads)
        return grads

    def _full_backward(self, step, running, d_sums, d_emb, per_layer, fc_grads) -> None:
        session = self.session
        gnn, graph, cones = session.gnn, session.graph, session.cones
        fc_grads[0] += step.pooled.T @ d_emb
        fc_grads[1] += d_emb.sum(axis=0)
        upstream = d_emb @ gnn.fc.weight.data.T
        top = running[-1]
        top[cones.endpoints] += upstream  # unique endpoint cells
        d_sums += upstream
        if cones.cell_cones.size:
            top += _segment_sum_sorted(d_sums[cones.cell_cones], session._cell_counts)
        for depth in range(len(gnn.layers) - 1, -1, -1):
            layer = gnn.layers[depth]
            gp, ga = step.layers[depth].backward(running[depth], per_layer[depth])
            if depth:
                below = running[depth - 1]
                below += gp @ layer.proj.weight.data.T
                d_mean = (ga @ layer.agg.weight.data.T) * session._inv_degree[:, None]
                below += _segment_sum_sorted(d_mean[graph.neighbor_index], session._fwd_counts)
        # A full step replaced every row: nothing reaches older versions.
        for grad in running:
            grad.fill(0.0)
        d_sums.fill(0.0)
        d_emb.fill(0.0)

    def _delta_backward(self, step, running, d_sums, d_emb, per_layer, fc_grads) -> None:
        session = self.session
        gnn = session.gnn
        if step.dirty_eps.size:
            d_rows = d_emb[step.dirty_eps]
            d_emb[step.dirty_eps] = 0.0
            fc_grads[0] += step.pooled.T @ d_rows
            fc_grads[1] += d_rows.sum(axis=0)
            upstream = d_rows @ gnn.fc.weight.data.T
            running[-1][step.ep_cells] += upstream
            d_sums[step.dirty_eps] += upstream
        # Cᵀg over D: +Cᵀg to the new rows of D, −Cᵀg to the old ones; the
        # old sum keeps g itself.
        pulled = None
        if step.pair_e.size:
            pulled = _segment_sum_sorted(d_sums[step.pair_e], step.pair_counts)
        last = len(gnn.layers) - 1
        for depth in range(last, -1, -1):
            record = step.layers[depth]
            rows = record.rows
            version = running[depth]
            grad = version[rows]
            if depth == last and pulled is not None:
                grad += pulled
                version[rows] = -pulled
            else:
                version[rows] = 0.0
            gp, ga = record.backward(grad, per_layer[depth])
            if depth:
                layer = gnn.layers[depth]
                below = running[depth - 1]
                below[rows] += gp @ layer.proj.weight.data.T
                d_mean = (ga @ layer.agg.weight.data.T) * session._inv_degree[rows][:, None]
                session.pull_means(d_mean, record, below)

    def _check_gradients(self, pending: Dict[int, np.ndarray], grads) -> None:
        """Gradient shadow check: backpropagate the same ``dE_t`` through
        the tape oracle (``EPGNN.forward`` on each step's features)."""
        if any(self.check_features[index] is None for index in pending):
            return  # check mode was off while some step ran
        session = self.session
        params = session.params
        saved = [param.grad for param in params]
        for param in params:
            param.grad = None
        try:
            with obs.span("gnn.gradient_check"):
                for index, d_step in sorted(pending.items()):
                    out = session.gnn(self.check_features[index], session.graph, session.cones)
                    out.backward(d_step)
            oracle = [
                param.grad if param.grad is not None else np.zeros_like(param.data)
                for param in params
            ]
        finally:
            for param, grad in zip(params, saved):
                param.grad = grad
        names = {id(param): name for name, param in session.gnn.named_parameters()}
        for param, mine, reference in zip(params, grads, oracle):
            name = names[id(param)]
            scale = max(1.0, float(np.abs(reference).max()) if reference.size else 0.0)
            worst = float(np.abs(mine - reference).max()) if reference.size else 0.0
            if worst > GRAD_CHECK_TOL * scale:
                raise RuntimeError(
                    f"incremental EP-GNN gradient drift on {name}: "
                    f"max |Δ|={worst:.3e} > {GRAD_CHECK_TOL:g}·{scale:.3g}"
                )
        obs.incr("gnn.gradient_checks")


class EncoderSession:
    """Per-``(policy, env)`` incremental EP-GNN encoding state.

    Built once per environment (edge owners; cone membership is read from
    the :class:`ConeIndex`).  :meth:`begin_episode` starts a new episode
    object and drops the session's reference to the old one, so an episode
    still waiting for its backward shares no written buffer with the next
    (only the read-only first full step, :meth:`shared_step`).
    :meth:`encode` then serves each RL step either incrementally or — on
    any fallback trigger — with a full step that is bitwise equal to
    :meth:`EPGNN.forward`.
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
        self._inv_degree = 1.0 / np.maximum(graph.degree(), 1).astype(np.float64)
        # The row of every CSR entry: the full step's scatter targets, and
        # the targets of the reverse pass's pulls.
        self._fwd_owner = graph._edge_dst()
        self._fwd_counts = np.diff(graph.indptr)
        self._cell_counts = np.diff(cones.cell_indptr)
        self._reverse: Optional[np.ndarray] = None  # see reverse_edges()
        # The full step of the last episode that computed one (shared_step).
        self._shared: Optional[_FullStep] = None
        # The parameters in the reverse pass's order: per layer proj W, b,
        # agg W, b, γ logit; then the FC head's W, b.
        self.params: List[Tensor] = [
            param
            for layer in gnn.layers
            for param in (
                layer.proj.weight,
                layer.proj.bias,
                layer.agg.weight,
                layer.agg.bias,
                layer.gamma_logit,
            )
        ] + [gnn.fc.weight, gnn.fc.bias]
        self.begin_episode()

    # ------------------------------------------------------------------ #
    def begin_episode(self) -> None:
        """Start a new episode (parameters may have changed)."""
        self._episode = _Episode(self)
        # The episode's autograd node: the common ancestor of every step's
        # embeddings, whose backward is the episode's reverse pass.  The
        # episode holds no tensor, so dropping its trajectory frees it.
        self._node = Tensor._make(np.zeros(0), self.params, self._episode.backward)
        self._last: Optional[Tensor] = None

    def _emit(self, emb: np.ndarray) -> Tensor:
        """Wrap the step just recorded as a fresh tensor whose backward
        stores its gradient ``dE_t`` on the episode node."""
        episode, node = self._episode, self._node
        index = len(episode.steps) - 1

        def backward(grad: np.ndarray) -> None:
            episode.pending[index] = grad
            # The tape runs a node's backward only once it holds a gradient.
            if node.grad is None:
                node.grad = np.zeros(0)

        self._last = Tensor._make(emb, (node,), backward)
        return self._last

    # ------------------------------------------------------------------ #
    def encode(self, features: np.ndarray) -> Tensor:
        """Endpoint embeddings for the current step (incremental or full)."""
        features = np.asarray(features, dtype=np.float64)
        episode = self._episode
        if not episode.valid_for(features):
            return self._emit(episode.full_step(features))

        mask = features[:, 0]
        dirty = np.nonzero(mask != episode.prev_mask)[0]
        if dirty.size == 0:
            obs.incr("gnn.incremental_encode")
            return self._last

        # Grow the dirty region one adjacency hop per layer.  The graph is
        # bidirectional, so the rows that aggregate u are exactly N(u): the
        # frontier's own CSR entries name the next hop.  ``np.flatnonzero``
        # keeps every region sorted.
        in_region = np.zeros(self.graph.num_nodes, dtype=bool)
        in_region[dirty] = True
        frontier = dirty
        regions = [dirty]
        for _ in range(len(self.gnn.layers)):
            neighbors = self.graph.neighbor_index[self.row_edges(frontier)[0]]
            frontier = np.unique(neighbors[~in_region[neighbors]])
            in_region[frontier] = True
            regions.append(np.flatnonzero(in_region))
        if regions[-1].size > FULL_FALLBACK_FRACTION * self.graph.num_nodes:
            return self._emit(episode.full_step(features))

        with obs.span(
            "gnn.incremental_encode",
            attrs={"dirty": int(dirty.size), "region": int(regions[-1].size)},
        ):
            embeddings = self._emit(episode.delta_step(features, regions))
        obs.incr("gnn.incremental_encode")
        obs.incr("gnn.dirty_cells", int(regions[-1].size))
        if check_enabled():
            with obs.span("gnn.shadow_check"):
                assert_embeddings_equal(
                    embeddings, self._reference(features), CHECK_ATOL
                )
            obs.incr("gnn.shadow_checks")
        return embeddings

    def shared_step(self, features: np.ndarray) -> Optional[_FullStep]:
        """The last computed first-encode full step, if it is this one's.

        Within an update batch the weights are fixed and every episode
        starts from the same begin features, so the batch computes one
        forward.  Both inputs are compared whole with ``np.array_equal``
        (no version counter is trusted): every parameter array against the
        copy the step was computed with, and ``features`` against its input.
        """
        step = self._shared
        if step is None:
            return None
        for param, saved in zip(self.params, step.params):
            if not np.array_equal(param.data, saved):
                return None
        if not np.array_equal(features, step.features):
            return None
        return step

    def row_edges(self, rows: np.ndarray):
        """The CSR entries of sorted ``rows`` in CSR order, and their counts."""
        starts = self.graph.indptr[rows]
        counts = self._fwd_counts[rows]
        offsets = np.cumsum(counts) - counts
        edges = np.repeat(starts - offsets, counts) + np.arange(
            int(counts.sum()), dtype=np.int64
        )
        return edges, counts

    def reverse_edges(self) -> np.ndarray:
        """Edge ``e = (v → u)`` ↦ an edge ``(u → v)``, one to one.

        The message-passing graph lists every net edge in both directions,
        so sorting the entries by (row, neighbour) and by (neighbour, row)
        pairs each entry with its reverse.  Built on the first backward.
        """
        if self._reverse is None:
            owner, neighbor = self._fwd_owner, self.graph.neighbor_index
            forward = np.lexsort((neighbor, owner))
            backward = np.lexsort((owner, neighbor))
            if not np.array_equal(owner[backward], neighbor[forward]):
                raise ValueError("the incremental encoder needs a symmetric graph")
            self._reverse = np.empty_like(forward)
            self._reverse[forward] = backward
        return self._reverse

    def pull_means(self, d_mean: np.ndarray, record: _LayerRows, below: np.ndarray) -> None:
        """Add ``∂mean/∂x · d_mean`` for ``record``'s rows into ``below``.

        Each neighbour ``u`` of the rows sums ``d_mean`` over its own CSR
        entries that point back into the rows: the reverses of the rows'
        entries, grouped by ``u`` by sorting their ids.
        """
        entries = np.sort(self.reverse_edges()[record.edges])
        targets = self._fwd_owner[entries]
        sources = np.searchsorted(record.rows, self.graph.neighbor_index[entries])
        starts = np.flatnonzero(np.diff(targets, prepend=-1))
        below[targets[starts]] += _add_segments(d_mean[sources], starts)

    def cone_sum_drift(self) -> float:
        """How far the current episode's delta-updated cone sums ``S`` are
        from a from-scratch sum over the last layer (max |Δ|, 0 before the
        first encode)."""
        episode = self._episode
        if episode.sums is None or not episode.sums.size:
            return 0.0
        cones = self.cones
        fresh = row_sums(cones.cone_owner, episode.layers[-1][cones.cone_members], len(cones))
        return float(np.abs(episode.sums - fresh).max())

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
    "GRAD_CHECK_TOL",
    "EncoderSession",
    "assert_embeddings_equal",
    "check_enabled",
    "set_check",
]
