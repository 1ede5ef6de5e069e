"""Netlist-to-graph transformation for GNN message passing.

The paper constructs EP-GNN message-passing edges "using the netlist
transformation technique proposed in [4]" (Lu & Lim, ICCAD 2022): each
multi-pin net is decomposed into directed driver→sink edges so the GNN sees
signal flow rather than hyperedges.  Eq. 2 aggregates over the local
neighborhood ``N(v)``, so every driver→sink edge is paired with its
sink→driver reverse: a cell's neighbours are its fan-in drivers and its
fan-out sinks.

The result is a CSR-style adjacency usable for vectorized mean aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.core import Netlist
from repro.nn.tensor import row_sums


@dataclass(frozen=True)
class MessagePassingGraph:
    """CSR adjacency over netlist cells for neighborhood aggregation.

    ``neighbor_index[indptr[v]:indptr[v+1]]`` lists the neighbors of cell
    ``v``.  ``degree[v]`` is the neighbor count (``|N(v)|`` in Eq. 2);
    isolated nodes have degree 0 and aggregate to a zero vector.
    """

    num_nodes: int
    indptr: np.ndarray
    neighbor_index: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.neighbor_index.size)

    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor indices of ``node``."""
        return self.neighbor_index[self.indptr[node] : self.indptr[node + 1]]

    def mean_aggregate(self, features: np.ndarray) -> np.ndarray:
        """Mean of neighbor feature rows per node (zeros where degree 0).

        Plain-numpy version of Eq. 2's neighbour mean, used where no
        gradient is needed: the incremental encoder's full encode of the
        static features and placement refinement.  The differentiable
        version lives in :mod:`repro.gnn.epgnn`.
        """
        features = np.asarray(features)
        out = row_sums(self._edge_dst(), features[self.neighbor_index], self.num_nodes)
        deg = self.degree()
        nonzero = deg > 0
        out[nonzero] /= deg[nonzero, None]
        return out

    def _edge_dst(self) -> np.ndarray:
        """Destination node of each CSR entry (repeats of row indices)."""
        return np.repeat(np.arange(self.num_nodes), self.degree())


def to_message_passing_graph(netlist: Netlist) -> MessagePassingGraph:
    """Decompose nets into pairwise message-passing edges, both directions.

    Flop boundaries are *not* broken here — the GNN may propagate information
    across registers (the paper's features include power/physical attributes
    that are meaningful across sequential boundaries); timing-path semantics
    are enforced separately by the STA and fan-in cone computation.
    """
    n = netlist.num_cells
    src: list = []
    dst: list = []
    for net in netlist.nets:
        for sink_cell, _pin in net.sinks:
            src.append(net.driver)
            dst.append(sink_cell)
            src.append(sink_cell)
            dst.append(net.driver)
    if src:
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        order = np.argsort(dst_arr, kind="stable")
        src_arr, dst_arr = src_arr[order], dst_arr[order]
        counts = np.bincount(dst_arr, minlength=n)
    else:
        src_arr = np.empty(0, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return MessagePassingGraph(num_nodes=n, indptr=indptr, neighbor_index=src_arr)
