"""Synthetic global placement.

RL-CCD operates on a *globally placed* netlist (Fig. 1: the flows start from
"global placement"); locations feed the Table-I features and the wire
cap/delay model.  This placer is intentionally simple but structured:

1. clusters are assigned non-overlapping regions on a near-square grid of a
   die sized to the design's cell count at a target utilization;
2. cells scatter inside their cluster region;
3. a few sweeps of constrained centroid refinement pull each movable cell
   toward the mean location of its neighbors (a one-matrix-multiply version
   of force-directed placement), clamped to its cluster region.

Ports sit on the die boundary — inputs on the west edge, outputs on the
east — as a real floorplan would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.netlist.core import Netlist
from repro.netlist.transform import to_message_passing_graph
from repro.utils.rng import as_rng

#: µm² of die area budgeted per cell.
AREA_PER_CELL = 4.0

#: Centroid-refinement sweeps after the scatter.
REFINEMENT_SWEEPS = 3

#: Share of the way each sweep moves a cell toward its neighbors' centroid
#: (0 = pure scatter, 1 = full centroid snap).
NEIGHBOR_PULL = 0.5


@dataclass(frozen=True)
class PlacementConfig:
    """Placement seed; the die area and the refinement are the module
    constants :data:`AREA_PER_CELL`, :data:`REFINEMENT_SWEEPS` and
    :data:`NEIGHBOR_PULL`."""

    seed: int = 0


def die_size(netlist: Netlist) -> float:
    """Side length (µm) of the square die for this design."""
    return float(np.sqrt(max(1, netlist.num_cells) * AREA_PER_CELL))


def place_design(netlist: Netlist, config: PlacementConfig = PlacementConfig()) -> None:
    """Assign ``x``/``y`` to every cell in-place; deterministic per seed."""
    rng = as_rng(config.seed)
    side = die_size(netlist)
    clusters = sorted({cell.cluster for cell in netlist.cells})
    regions = _cluster_regions(clusters, side)

    inputs = [c for c in netlist.cells if c.is_input_port]
    outputs = [c for c in netlist.cells if c.is_output_port]
    movable = [c for c in netlist.cells if not c.cell_type.is_port]

    # Boundary ports: inputs west, outputs east, evenly spread.
    for i, cell in enumerate(inputs):
        cell.x = 0.0
        cell.y = side * (i + 0.5) / max(1, len(inputs))
    for i, cell in enumerate(outputs):
        cell.x = side
        cell.y = side * (i + 0.5) / max(1, len(outputs))

    # Scatter movable cells inside their cluster region.
    for cell in movable:
        x0, y0, x1, y1 = regions[cell.cluster]
        cell.x = float(rng.uniform(x0, x1))
        cell.y = float(rng.uniform(y0, y1))

    if not movable or REFINEMENT_SWEEPS == 0:
        return

    graph = to_message_passing_graph(netlist)
    coords = np.array([[c.x, c.y] for c in netlist.cells])
    movable_idx = np.array([c.index for c in movable])
    lows = np.array([regions[c.cluster][:2] for c in movable])
    highs = np.array([regions[c.cluster][2:] for c in movable])

    for _ in range(REFINEMENT_SWEEPS):
        centroids = graph.mean_aggregate(coords)
        deg = graph.degree()[movable_idx]
        target = coords[movable_idx].copy()
        connected = deg > 0
        target[connected] = centroids[movable_idx][connected]
        blended = (1.0 - NEIGHBOR_PULL) * coords[movable_idx] + NEIGHBOR_PULL * target
        coords[movable_idx] = np.clip(blended, lows, highs)

    for cell, (x, y) in zip(movable, coords[movable_idx]):
        cell.x, cell.y = float(x), float(y)


def _cluster_regions(
    clusters: List[int], side: float
) -> Dict[int, Tuple[float, float, float, float]]:
    """Tile the die into a near-square grid of cluster regions."""
    n = len(clusters)
    cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    regions: Dict[int, Tuple[float, float, float, float]] = {}
    for i, cluster in enumerate(clusters):
        r, c = divmod(i, cols)
        x0 = side * c / cols
        x1 = side * (c + 1) / cols
        y0 = side * r / rows
        y1 = side * (r + 1) / rows
        # Inset slightly so clusters remain visually and electrically distinct.
        pad_x = 0.05 * (x1 - x0)
        pad_y = 0.05 * (y1 - y0)
        regions[cluster] = (x0 + pad_x, y0 + pad_y, x1 - pad_x, y1 - pad_y)
    return regions
