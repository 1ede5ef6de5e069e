"""Table-I node features for EP-GNN encoding.

The paper's Table I rows sum to 13 dimensions (1 mask + 2 location +
1 outNet cap + 1 load cap + 1 cell cap + 2 cell power + 1 net power +
1 max toggle + 1 wst slack + 1 wst output slew + 1 wst input slew).  We add
one substrate-specific 14th dimension, **clock flexibility** (the flop's
useful-skew bound as a fraction of the clock period): in ICC2 the useful
skew engine sees clock-tree flexibility internally, whereas in our substrate
that information exists only in ``netlist.skew_bounds`` — surfacing it as a
node feature gives the agent the same observability the paper's tool stack
has.  Every command and benchmark trains on all 14 columns.

==================  ====  =======================================================
name                dims  description
==================  ====  =======================================================
RL masked             1   endpoint is selected or masked by RL-CCD (dynamic)
locations             2   cell (x, y) in global placement, normalized to die
outNet cap            1   capacitance of the driven net
load cap              1   sum of sink input-pin capacitances being driven
cell cap              1   cell input capacitance (sum over own input pins)
cell power            2   internal power and leakage power
net power             1   output net switching power
max toggle            1   toggle rate at the output pin
wst slack             1   worst slack of paths through the cell
wst output slew       1   worst output transition
wst input slew        1   worst input transition
==================  ====  =======================================================

The "RL masked" column changes every RL step (selection + overlap masking),
which is why EP-GNN re-encodes the graph at each time step (paper §III-B.1);
:meth:`FeatureExtractor.update_mask_column` refreshes just that column so
the expensive static part is computed once per trajectory.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.netlist.core import Netlist
from repro.power.models import switching_power
from repro.timing.clock import ClockModel
from repro.timing.sta import CompiledTiming, TimingReport, column, compile_timing

NUM_FEATURES = 14

FEATURE_NAMES = (
    "rl_masked",
    "loc_x",
    "loc_y",
    "outnet_cap",
    "load_cap",
    "cell_cap",
    "internal_power",
    "leakage_power",
    "net_power",
    "max_toggle",
    "wst_slack",
    "wst_output_slew",
    "wst_input_slew",
    "clock_flexibility",
)


class FeatureExtractor:
    """Builds the (num_cells × NUM_FEATURES) feature matrix for a design.

    Static columns (physical, power, timing) are computed from one STA
    report via :meth:`extract`; the dynamic "RL masked" column is refreshed
    cheaply with :meth:`update_mask_column` as the agent selects endpoints.
    All columns are scaled to O(1) ranges so the GNN trains stably.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        xs = column(netlist.cells, "x")
        ys = column(netlist.cells, "y")
        self.die_side = float(max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9))

    def extract(
        self,
        report: TimingReport,
        clock: ClockModel,
        masked_or_selected: Iterable[int] = (),
        compiled: Optional[CompiledTiming] = None,
    ) -> np.ndarray:
        """Full feature matrix; see module docstring for columns.

        Array work over per-cell columns gathered once.  The net columns
        (outNet cap, load cap, net power) and the drivers of the worst
        input slew are read from ``compiled``, which must be a compile of
        the netlist's current state (the env passes its analyzer's);
        without one, the netlist is compiled here.
        """
        netlist = self.netlist
        if compiled is None:
            compiled = compile_timing(netlist)
        cells = netlist.cells
        n = len(cells)
        features = np.zeros((n, NUM_FEATURES))
        frequency = 1.0 / clock.period
        cap_scale = 0.1  # fF -> O(1)
        time_scale = 1.0 / clock.period
        power_scale = 10.0

        types = [cell.cell_type for cell in cells]
        sizes = [cell_type.sizes[cell.size_index] for cell, cell_type in zip(cells, types)]
        toggle = column(cells, "toggle_rate")
        num_inputs = np.fromiter((t.num_inputs for t in types), np.int64, n)

        self.update_mask_column(features, masked_or_selected)
        features[:, 1] = column(cells, "x") / self.die_side
        features[:, 2] = column(cells, "y") / self.die_side
        # The compile's load terms are 0.0 on cells that drive no net, so
        # the net columns are 0.0 there, as the loop left them.
        features[:, 3] = compiled.load_cap * cap_scale
        features[:, 4] = compiled.sink_cap * cap_scale
        features[:, 5] = column(sizes, "input_cap") * num_inputs * cap_scale
        features[:, 6] = column(sizes, "internal_power") * toggle * power_scale
        features[:, 7] = column(sizes, "leakage_power") * power_scale
        features[:, 8] = switching_power(toggle, compiled.load_cap, frequency) * power_scale
        features[:, 9] = toggle
        slew = report.cell_slew
        features[:, 11] = slew * time_scale
        fanin = compiled.fanin_idx
        connected = fanin >= 0  # -1 pads the unconnected pins
        in_slew = np.where(connected, slew[np.where(connected, fanin, 0)], 0.0)
        features[:, 12] = in_slew.max(axis=1, initial=0.0) * time_scale

        # Worst slack through cell: clamp unconstrained (+inf) to one period.
        wst = np.clip(report.cell_worst_slack, -10.0 / time_scale, 1.0 / time_scale)
        features[:, 10] = wst * time_scale

        # Endpoint cells have no "through" slack from the backward pass seed;
        # give them their own endpoint slack (margin-aware), the quantity the
        # agent must reason about.
        features[report.endpoints, 10] = np.clip(
            report.slack_with_margins * time_scale, -10.0, 1.0
        )

        # Substrate extension: per-flop useful-skew flexibility (see module
        # docstring).  Zero for combinational cells and ports.
        bounds = netlist.skew_bounds
        flops = np.fromiter(bounds.keys(), np.int64, len(bounds))
        features[flops, 13] = np.fromiter(bounds.values(), np.float64, len(bounds)) * time_scale
        return features

    def update_mask_column(
        self, features: np.ndarray, masked_or_selected: Iterable[int]
    ) -> np.ndarray:
        """Refresh column 0 in place (returns ``features`` for chaining)."""
        features[:, 0] = 0.0
        indices = list(masked_or_selected)
        if indices:
            features[np.asarray(indices, dtype=np.int64), 0] = 1.0
        return features
