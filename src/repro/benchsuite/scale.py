"""Vectorized synthetic-design generator for the 10K–200K-cell scale path.

The cone-growing generator in :mod:`repro.netlist.generator` builds rich
per-endpoint structure but does it one pin at a time through Python
``deque``/``dict`` bookkeeping — tens of seconds at 10K cells, minutes at
200K.  The scale sweep (``python -m repro bench --scale-sweep``) needs
designs at paper-adjacent sizes in *seconds*, so this module synthesizes a
netlist almost entirely in NumPy:

* cells are laid out index-contiguously (inports, flops, comb sorted by
  topological level, outports), so every "driver from a strictly lower
  level" draw is a single vectorized integer sample against a prefix of the
  index space — acyclicity by construction, like the slow generator;
* comb input pins pick their driver from the previous level with a locality
  coin (keeping realistic logic depth) and uniformly from all earlier cells
  otherwise (cone overlap); endpoint pins sample the deepest ~40% of levels
  so endpoint paths exercise the full depth;
* a fanout-coverage fixup then rewires a pin onto each driverless comb cell
  (stealing only from drivers that keep ≥ 1 sink, walking levels top-down),
  because a comb cell that drives nothing would fail
  :func:`~repro.netlist.validate.validate_netlist`;
* placement is inlined (boundary ports, uniform scatter at the same
  :data:`~repro.placement.global_place.AREA_PER_CELL` as the placer) — the
  force-directed refinement sweeps are Python-loop-bound and contribute
  nothing the STA scale measurements care about.

Construction bypasses the per-call ``add_cell``/``connect`` mutators (each
bumps ``mutation_version`` and re-validates bounds) and builds the
``Cell``/``Net`` objects directly, restoring every invariant the mutators
maintain — names unique and indexed, ``fanin_nets``/``fanout_net``/sink
lists consistent — and bumping ``mutation_version`` once at the end.

Everything is drawn from one seeded ``default_rng``: the same config always
yields the identical netlist, which the scale tests pin.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.core import Cell, Net, Netlist
from repro.netlist.generator import _TYPE_WEIGHTS, GeneratorConfig
from repro.netlist.library import get_library
from repro.netlist.validate import validate_netlist
from repro.placement.global_place import AREA_PER_CELL

#: Above this cell count ``fast_design`` skips :func:`validate_netlist`
#: (an O(cells·pins) Python DFS): construction is acyclic and fully
#: connected by layout, and the 10K-scale tests validate the same code path.
VALIDATE_MAX_CELLS = 20_000

#: Probability a comb pin samples its driver from the previous level
#: (vs. uniformly from all earlier cells).
LOCALITY_P = 0.7

#: Endpoint pins (flop D, output ports) draw their driver from the deepest
#: ``1 − ENDPOINT_LEVEL_FRACTION`` share of comb levels.
ENDPOINT_LEVEL_FRACTION = 0.6


def fast_design(config: GeneratorConfig, validate: bool | None = None) -> Netlist:
    """Vectorized, seed-stable stand-in for :func:`generate_design`.

    Honors the shared :class:`GeneratorConfig` knobs that shape timing at
    scale (cell/port/flop counts, depth, skew-bound diversity, library);
    cone-overlap and cluster-headroom shaping are approximated by the
    uniform earlier-cell draws and a per-cluster size bias.  Cells are
    placed inline; returns a design ready for :class:`TimingAnalyzer`.
    """
    rng = np.random.default_rng(config.seed)
    library = get_library(config.library)
    depth = max(2, int(round(config.mean_depth)))

    n_in = config.n_inputs
    n_out = config.n_outputs
    n_flops = max(2, int(round(config.flop_fraction * config.n_cells)))
    n_comb = max(depth, config.n_cells - n_in - n_out - n_flops)
    n_start = n_in + n_flops  # startpoints occupy [0, n_start)
    comb0 = n_start  # comb cells occupy [comb0, comb0 + n_comb)
    out0 = comb0 + n_comb
    n = out0 + n_out

    # --- comb levels and types (level-sorted layout ⇒ acyclic draws) ---- #
    levels = np.sort(rng.integers(1, depth + 1, size=n_comb))
    # lv_start[l] = absolute index of the first comb cell at level l.
    lv_start = comb0 + np.searchsorted(levels, np.arange(1, depth + 2))
    type_names = [name for name, _ in _TYPE_WEIGHTS]
    weights = np.array([w for _, w in _TYPE_WEIGHTS])
    type_idx = rng.choice(len(type_names), size=n_comb, p=weights / weights.sum())
    comb_types = [library.cell_type(name) for name in type_names]
    pins_of_type = np.array([t.num_inputs for t in comb_types])
    max_size_of_type = np.array([t.max_size_index for t in comb_types])
    n_pins = pins_of_type[type_idx]

    # --- sample comb pin drivers, level by level ------------------------ #
    pin_driver_chunks = []
    pin_sink_chunks = []
    pin_pos_chunks = []
    for level in range(1, depth + 1):
        lo, hi = int(lv_start[level - 1]), int(lv_start[level])
        if lo == hi:
            continue
        counts = n_pins[lo - comb0 : hi - comb0]
        total = int(counts.sum())
        sinks = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
        pos = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        prev_lo, prev_hi = (
            (0, n_start) if level == 1 else (int(lv_start[level - 2]), lo)
        )
        if prev_hi == prev_lo:  # empty previous level: fall back to startpoints
            prev_lo, prev_hi = 0, n_start
        local = prev_lo + (
            rng.random(total) * (prev_hi - prev_lo)
        ).astype(np.int64)
        # Global draws span startpoints plus every comb cell below `level`
        # (index-contiguous thanks to the level-sorted layout).
        glob = (rng.random(total) * lo).astype(np.int64)
        drivers = np.where(rng.random(total) < LOCALITY_P, local, glob)
        pin_driver_chunks.append(drivers)
        pin_sink_chunks.append(sinks)
        pin_pos_chunks.append(pos)

    # --- endpoint pins (flop D, outports) from the deepest levels ------- #
    ep_min_level = max(1, int(round(depth * ENDPOINT_LEVEL_FRACTION)))
    ep_lo = int(lv_start[ep_min_level - 1])
    if ep_lo >= out0:
        ep_lo = comb0
    ep_sinks = np.concatenate(
        [
            np.arange(n_in, n_start, dtype=np.int64),  # flop D pins
            np.arange(out0, n, dtype=np.int64),  # output ports
        ]
    )
    ep_drivers = ep_lo + (
        rng.random(ep_sinks.size) * (out0 - ep_lo)
    ).astype(np.int64)
    pin_driver_chunks.append(ep_drivers)
    pin_sink_chunks.append(ep_sinks)
    pin_pos_chunks.append(np.zeros(ep_sinks.size, dtype=np.int64))

    pin_driver = np.concatenate(pin_driver_chunks)
    pin_sink = np.concatenate(pin_sink_chunks)
    pin_pos = np.concatenate(pin_pos_chunks)
    # Sink level: comb cells carry their own level, endpoint pins sit past
    # the deepest level so any comb cell may steal them in the fixup.
    sink_level = np.full(pin_sink.size, depth + 1, dtype=np.int64)
    comb_pin = (pin_sink >= comb0) & (pin_sink < out0)
    sink_level[comb_pin] = levels[pin_sink[comb_pin] - comb0]

    _fix_driverless(rng, pin_driver, sink_level, levels, comb0, n)

    # --- materialize the netlist --------------------------------------- #
    netlist = Netlist(config.name, library)
    inport = library.cell_type("INPORT")
    outport = library.cell_type("OUTPORT")
    dff = library.cell_type("DFF")

    side = float(np.sqrt(max(1, n) * AREA_PER_CELL))
    xs = rng.uniform(0.0, side, size=n)
    ys = rng.uniform(0.0, side, size=n)
    toggles = rng.beta(2.0, 5.0, size=n)
    clusters = rng.integers(0, config.n_clusters, size=n)
    comb_sizes = np.minimum(
        max_size_of_type[type_idx], rng.integers(0, 4, size=n_comb)
    )
    flop_sizes = rng.integers(0, 2, size=n_flops)
    flex = rng.random(n_flops) < config.flex_flop_fraction
    period = library.default_clock_period
    flo, fhi = config.flexible_skew_range
    rlo, rhi = config.rigid_skew_range
    bounds = np.where(
        flex,
        rng.uniform(flo, fhi, size=n_flops),
        rng.uniform(rlo, rhi, size=n_flops),
    ) * period

    cells = netlist.cells
    for i in range(n_in):
        cell = Cell(index=i, name=f"in{i}", cell_type=inport)
        cell.x, cell.y = 0.0, side * (i + 0.5) / n_in
        cell.toggle_rate = float(toggles[i])
        cell.cluster = int(clusters[i])
        cells.append(cell)
    for j in range(n_flops):
        i = n_in + j
        cell = Cell(
            index=i, name=f"ff{j}", cell_type=dff, size_index=int(flop_sizes[j])
        )
        cell.x, cell.y = float(xs[i]), float(ys[i])
        cell.toggle_rate = float(toggles[i])
        cell.cluster = int(clusters[i])
        cells.append(cell)
        netlist.skew_bounds[i] = float(bounds[j])
    for j in range(n_comb):
        i = comb0 + j
        cell = Cell(
            index=i,
            name=f"g{j}",
            cell_type=comb_types[type_idx[j]],
            size_index=int(comb_sizes[j]),
        )
        cell.x, cell.y = float(xs[i]), float(ys[i])
        cell.toggle_rate = float(toggles[i])
        cell.cluster = int(clusters[i])
        cells.append(cell)
    for j in range(n_out):
        i = out0 + j
        cell = Cell(index=i, name=f"out{j}", cell_type=outport)
        cell.x, cell.y = side, side * (j + 0.5) / n_out
        cell.toggle_rate = float(toggles[i])
        cell.cluster = int(clusters[i])
        cells.append(cell)
    netlist._name_to_cell = {cell.name: cell.index for cell in cells}

    # Nets: one per driver with ≥ 1 sink, sinks grouped via a stable sort.
    order = np.argsort(pin_driver, kind="stable")
    d_sorted = pin_driver[order].tolist()
    s_sorted = pin_sink[order].tolist()
    p_sorted = pin_pos[order].tolist()
    nets = netlist.nets
    current_net: Net | None = None
    current_driver = -1
    for d, s, p in zip(d_sorted, s_sorted, p_sorted):
        if d != current_driver:
            current_net = Net(index=len(nets), name=f"n{d}", driver=d)
            nets.append(current_net)
            cells[d].fanout_net = current_net.index
            current_driver = d
        current_net.sinks.append((s, p))
        cells[s].fanin_nets[p] = current_net.index
    netlist.mutation_version += 1

    if validate is None:
        validate = n <= VALIDATE_MAX_CELLS
    if validate:
        validate_netlist(netlist)
    return netlist


def _fix_driverless(
    rng: np.random.Generator,
    pin_driver: np.ndarray,
    sink_level: np.ndarray,
    levels: np.ndarray,
    comb0: int,
    n: int,
) -> None:
    """Rewire one pin onto each comb cell the random draws left driverless.

    Walks levels deepest-first; a level-``l`` cell may only steal pins whose
    sink sits at a strictly deeper level (acyclicity), and only from drivers
    left with ≥ 1 sink (so the fixup never creates a new driverless cell).
    A shuffled pin order keeps the rewiring unbiased and seed-stable.
    """
    fanout = np.bincount(pin_driver, minlength=n)
    depth_max = int(levels[-1]) if levels.size else 0
    perm = rng.permutation(pin_driver.size)
    perm_levels = sink_level[perm]
    for level in range(depth_max, 0, -1):
        block = np.arange(comb0, comb0 + levels.size, dtype=np.int64)[
            levels == level
        ]
        unused = block[fanout[block] == 0]
        if unused.size == 0:
            continue
        candidates = perm[perm_levels > level]
        cursor = 0
        for c in unused.tolist():
            while cursor < candidates.size:
                j = int(candidates[cursor])
                cursor += 1
                old = int(pin_driver[j])
                if old != c and fanout[old] >= 2:
                    pin_driver[j] = c
                    fanout[old] -= 1
                    fanout[c] = 1
                    break
            # Candidate exhaustion is statistically unreachable (mean comb
            # fanout ≈ 2); if it ever happened the cell stays driverless and
            # validation at ≤ 20K cells reports it.
