"""Critical-path extraction.

Traces the worst arrival path backwards from an endpoint through argmax
fan-in pins — used by the data-path optimizer to decide *which* cells to
size/buffer for a given violating endpoint, and by examples/reports to show
what the optimizers did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.timing.sta import _NO_DRIVER, CompiledTiming, TimingReport


@dataclass(frozen=True)
class TimingPath:
    """A launch-to-capture path: cell indices from startpoint to endpoint."""

    endpoint: int
    cells: List[int]  # startpoint ... endpoint (inclusive)
    arrival: float
    slack: float

    @property
    def depth(self) -> int:
        return len(self.cells)

    def __str__(self) -> str:
        chain = " -> ".join(str(c) for c in self.cells)
        return f"Path(ep={self.endpoint}, slack={self.slack:.3f}): {chain}"


def trace_critical_path(
    compiled: CompiledTiming, report: TimingReport, endpoint_cell: int
) -> TimingPath:
    """Trace the most critical path into ``endpoint_cell``.

    Walks backwards from the endpoint, at each cell following the input pin
    with the largest driver arrival + wire delay (the first such pin on a
    tie), stopping at a launch point (flop or input port).  ``report`` must
    come from an analysis of ``compiled``; the walk reads the connected
    pins from ``compiled.topology``, the wire delays, ``is_src`` and
    ``ep_pos`` from the compiled buffers, and the report's arrivals as
    Python floats, so a call costs O(path × pins).
    """
    cb = compiled.buffers
    ep_pos = cb["ep_pos"]
    k = ep_pos[endpoint_cell] if 0 <= endpoint_cell < len(ep_pos) else -1
    if k < 0:
        raise KeyError(f"cell {endpoint_cell} is not an endpoint")
    fanin = compiled.topology.fanin
    wire = cb["fanin_wire_delay"]
    is_src = cb["is_src"]
    arrival = memoryview(report.cell_arrival)

    chain = [endpoint_cell]
    current = endpoint_cell
    # Guard against pathological loops (cannot occur in a valid netlist, but
    # a wrong compile would otherwise hang).
    for _ in range(len(ep_pos) + 1):
        best_driver = _NO_DRIVER
        best_time = -math.inf
        for driver, p in fanin[current]:
            t = arrival[driver] + wire[p]
            if t > best_time:
                best_time = t
                best_driver = driver
        if best_driver == _NO_DRIVER:
            break
        chain.append(best_driver)
        if is_src[best_driver]:
            break
        current = best_driver
    chain.reverse()
    return TimingPath(
        endpoint=endpoint_cell,
        cells=chain,
        arrival=float(report.arrival[k]),
        slack=float(report.slack[k]),
    )
