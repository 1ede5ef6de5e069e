"""Endpoint fan-in cones and overlap masking (paper Fig. 3, §III-C).

The fan-in cone of an endpoint is every combinational cell reachable
backwards from its data input(s) without crossing a startpoint (flop Q or
input port) — "the fan-in cone tracing of an endpoint stops at its previous
startpoints".

The overlap ratio between a selected endpoint *a* and a candidate *b* is
``|cone(a) ∩ cone(b)| / |cone(b)|`` — the overlapped cell count divided by
the candidate's total cone size, so a small cone fully contained in the
selected one is fully overlapped (ratio 1).  After each RL selection,
candidates with ratio > ρ are masked (default ρ = 0.3, Algorithm 1).
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Sequence, Set

import numpy as np

from repro import obs
from repro.netlist.core import Netlist
from repro.timing.sta import CompiledTiming
from repro.utils.validation import check_probability


def fanin_cone(netlist: Netlist, endpoint: int) -> FrozenSet[int]:
    """Combinational cells in ``endpoint``'s fan-in cone (endpoint excluded).

    Tracing stops at startpoints; the startpoints themselves and the
    endpoint are not counted, matching Fig. 3 where the ratio is over
    internal cone cells.
    """
    cone: Set[int] = set()
    queue = deque(netlist.fanin_cells(endpoint))
    while queue:
        cell_index = queue.popleft()
        cell = netlist.cells[cell_index]
        if cell.is_startpoint or cell_index in cone:
            continue
        cone.add(cell_index)
        queue.extend(netlist.fanin_cells(cell_index))
    return frozenset(cone)


def _cone_pairs(compiled: CompiledTiming, endpoints: np.ndarray):
    """Every endpoint's :func:`fanin_cone` at once, as ``(owner, members)``
    pairs sorted by endpoint position, then by cell.

    One level-by-level walk backwards over all (endpoint position, cell)
    pairs: each level steps from the pairs found last to their cells'
    drivers (``compiled.fanin_idx``) that are no startpoint
    (``compiled.is_src``) and not yet in that endpoint's cone.  The pairs
    are keyed ``position · num_cells + cell``, so the sorted keys are the
    CSR rows in ascending cell order.
    """
    fanin = compiled.fanin_idx
    n = fanin.shape[0]
    # −1 for no pin and for startpoints, where a walk stops (a −1 pin reads
    # the last cell's flag, and stays −1 either way).
    drivers = np.where(compiled.is_src[fanin], -1, fanin)

    base = np.arange(endpoints.size, dtype=np.int64) * n  # position · n
    cells = np.asarray(endpoints, dtype=np.int64)
    cone = np.empty(0, dtype=np.int64)  # sorted keys found so far
    while cells.size:
        step = drivers[cells]
        keys = np.sort((base[:, None] + step)[step >= 0])
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        if cone.size:
            at = np.minimum(np.searchsorted(cone, keys), cone.size - 1)
            fresh &= cone[at] != keys
        keys = keys[fresh]
        # Both runs are sorted, so the stable sort is a merge.
        cone = np.sort(np.concatenate([cone, keys]), kind="stable")
        cells = keys % n
        base = keys - cells
    return cone // n, cone % n


class ConeIndex:
    """The endpoints' fan-in cones as one endpoint × cell incidence matrix,
    read from a timing compile of the netlist's current state.

    Membership is held once, as a CSR over endpoint positions and its
    transpose over cells; every cone query reads these arrays:

    * ``cone_indptr`` / ``cone_members`` — row ``p`` lists the cells of
      ``fanin_cone(endpoints[p])`` in ascending order.  Eq.-3 pooling is
      one segment-sum over it (:meth:`repro.gnn.epgnn.EPGNN.endpoint_pool`);
    * ``cone_owner`` — the row of every entry of ``cone_members``, and
      ``cone_sizes`` — the row lengths;
    * ``cell_indptr`` / ``cell_cones`` — the transpose: row ``c`` lists, in
      ascending order, the endpoint positions whose cone contains cell ``c``;
    * ``endpoint_position`` — cell → endpoint position (−1 for other cells).

    Overlap ratios count intersections as exact integers over transpose
    rows, so they are bitwise equal to set intersections of the cones.
    """

    def __init__(self, compiled: CompiledTiming, endpoints: Sequence[int]):
        self.netlist = compiled.netlist
        self.endpoints = np.array(endpoints, dtype=np.int64)
        num_cells = compiled.fanin_idx.shape[0]
        with obs.span("features.cone_extraction"):
            owner, members = _cone_pairs(compiled, self.endpoints)
            self.cone_members = members
            self.cone_owner = owner
            self.cone_sizes = np.bincount(owner, minlength=self.endpoints.size)
            self.cone_indptr = np.zeros(self.endpoints.size + 1, dtype=np.int64)
            np.cumsum(self.cone_sizes, out=self.cone_indptr[1:])
            order = np.argsort(self.cone_members, kind="stable")
            self.cell_cones = self.cone_owner[order]
            self.cell_indptr = np.zeros(num_cells + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.cone_members, minlength=num_cells),
                out=self.cell_indptr[1:],
            )
            self.endpoint_position = np.full(num_cells, -1, dtype=np.int64)
            self.endpoint_position[self.endpoints] = np.arange(self.endpoints.size)
        obs.incr("cones.extracted", self.endpoints.size)

    def __len__(self) -> int:
        return self.endpoints.size

    def position(self, endpoint: int) -> int:
        """Canonical position of endpoint cell ``endpoint``."""
        position = int(self.endpoint_position[endpoint])
        if position < 0:
            raise KeyError(f"cell {endpoint} is not an indexed endpoint")
        return position

    def cones_containing(self, cells: np.ndarray) -> np.ndarray:
        """The transpose rows of ``cells``, concatenated: a position appears
        once per listed cell of its cone.  Row ``i`` is
        ``cell_indptr[cells[i]+1] − cell_indptr[cells[i]]`` entries long."""
        starts = self.cell_indptr[cells]
        counts = self.cell_indptr[cells + 1] - starts
        offsets = np.cumsum(counts) - counts
        flat = np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()), dtype=np.int64)
        return self.cell_cones[flat]

    def overlap_ratios(self, selected: int) -> np.ndarray:
        """``|cone(selected) ∩ cone(b)| / |cone(b)|`` for every endpoint ``b``.

        The intersection counts are integers (one ``bincount`` over the
        transpose rows of the selected cone's cells), so every ratio is
        exact.  An empty candidate cone gives 0.0; the selected endpoint's
        own entry is 1.0 when its cone is non-empty.
        """
        position = self.position(selected)
        start, stop = self.cone_indptr[position], self.cone_indptr[position + 1]
        counts = np.bincount(
            self.cones_containing(self.cone_members[start:stop]),
            minlength=len(self),
        )
        # An empty cone has a zero count, so dividing by 1 gives its 0.0.
        return counts / np.maximum(self.cone_sizes, 1)

    def mask_after_selection(
        self, selected: int, currently_valid: np.ndarray, rho: float
    ) -> np.ndarray:
        """Endpoints (boolean, canonical order) to mask after ``selected``.

        A still-valid candidate is masked when its overlap ratio with the
        selected endpoint exceeds ``rho``.  The selected endpoint itself is
        *not* in the returned mask (it transitions to "selected", a distinct
        state tracked by the caller).
        """
        check_probability("rho", rho)
        currently_valid = np.asarray(currently_valid, dtype=bool)
        if currently_valid.shape != (len(self),):
            raise ValueError(
                f"valid mask has shape {currently_valid.shape}, expected "
                f"({len(self)},)"
            )
        ratios = self.overlap_ratios(selected)
        to_mask = currently_valid & (ratios > rho)
        to_mask[self.position(selected)] = False
        return to_mask
