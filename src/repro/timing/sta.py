"""Vectorized graph-based static timing analysis.

The analyzer follows standard STA semantics on the cell-level graph:

* **forward pass** — output arrival time ``A(v)`` and output slew ``S(v)``
  propagate in topological (level) order; combinational delay follows the
  library's linear NLDM-style model (intrinsic + drive·load + k·input-slew),
  wire delay is Manhattan-distance based;
* **launch** — input ports launch at t = 0; flop Q pins launch at
  ``clock_arrival(f) + clk_to_q``;
* **capture** — setup checks at flop D pins against
  ``period + clock_arrival(f) − setup`` and at output ports against
  ``period``;
* **backward pass** — required times propagate backwards, giving the
  per-cell "worst slack of paths through cell" used by Table-I features.

Endpoint **margins** (the mechanism of Algorithm 1 line 14) are handled as a
view: ``slack_with_margins = slack − margin`` so that downstream engines see
artificially worsened endpoints while the true timing state is untouched —
exactly how the paper applies and later removes margins.

Designs here are a few thousand cells, so a full (re)compile + analysis is a
few milliseconds; the CCD engines simply re-run STA after each move batch.
"""

from __future__ import annotations

import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro import obs
from repro.netlist.core import Netlist
from repro.timing.clock import ClockModel

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.timing.incremental import IncrementalState

_NO_DRIVER = -1

#: ``array`` typecode of each dtype a buffer-backed timing vector may have.
_TYPECODES = {
    np.dtype(np.float64): "d",
    np.dtype(np.int64): "q",
    np.dtype(np.bool_): "b",
}
_DTYPES = {code: dtype for dtype, code in _TYPECODES.items()}


def buffer_view(buf: array.array, shape: Optional[Tuple[int, ...]] = None) -> np.ndarray:
    """The NumPy view of a timing buffer (``np.frombuffer``, no copy)."""
    view = np.frombuffer(buf, dtype=_DTYPES[buf.typecode])
    return view if shape is None else view.reshape(shape)


def buffer_backed(values: np.ndarray) -> Tuple[array.array, np.ndarray]:
    """Copy ``values`` into a flat ``array.array``; return ``(buffer, view)``.

    The view is :func:`buffer_view` of the buffer, shaped like ``values``, so
    the pair names a single storage: vectorized code reads and writes the
    view, Python-scalar loops index the buffer at C-order flat offsets and
    get plain ``float``/``int`` values, and each side sees the other's
    writes with nothing to synchronize.
    """
    values = np.ascontiguousarray(values)
    buf = array.array(_TYPECODES[values.dtype], values.tobytes())
    return buf, buffer_view(buf, values.shape)


def csr_edge_indices(indptr: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Flattened CSR edge indices of ``cells`` (their row slices, in order).

    The standard repeat/cumsum gather: for each cell the slice
    ``indptr[c]:indptr[c+1]``, concatenated, without a Python loop.  Shared
    by levelization and the vectorized frontier kernels.
    """
    counts = indptr[cells + 1] - indptr[cells]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    return np.repeat(indptr[cells] - offsets, counts) + np.arange(
        total, dtype=np.int64
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (0.0 if unavailable).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are close
    enough for the coarse ``sta.peak_mb`` capacity gauges (the scale-sweep
    CI bound allows a wide margin).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


@dataclass
class CompiledTiming:
    """Array form of the netlist's timing graph (rebuilt after mutations).

    Besides the dense ``(n, max_pins)`` fanin layout (pin counts are bounded
    by the library, so the pad is small), the compile also emits a CSR
    fanout adjacency (``fanout_indptr``/``fanout_indices``/
    ``fanout_wire_delay``, the PR-5 cone-CSR pattern) plus per-cell level
    and endpoint-position maps — the layout the vectorized frontier kernels
    in :mod:`repro.timing.incremental` gather over.  Resizes never change
    topology or wire lengths, so :meth:`TimingAnalyzer.notify_resize` leaves
    all of these untouched.

    Every array field is a :func:`buffer_view` of the ``array.array`` stored
    under the same name in ``buffers`` (``fanin_idx``/``fanin_wire_delay``
    flattened row-major): the incremental engine's scalar loops index the
    buffers, everything else uses the views, and a patch through either is
    a patch of both.
    """

    netlist: Netlist
    levels: List[np.ndarray]  # cells per topological level
    fanin_idx: np.ndarray  # (n, max_pins) driver cell per pin, -1 pad
    fanin_wire_delay: np.ndarray  # (n, max_pins)
    load_cap: np.ndarray  # (n,)
    intrinsic: np.ndarray
    drive_res: np.ndarray
    slew_sens: np.ndarray
    slew_intr: np.ndarray
    slew_load: np.ndarray
    is_flop: np.ndarray
    is_inport: np.ndarray
    is_outport: np.ndarray
    is_src: np.ndarray  # flop or input port (launch points)
    is_comb: np.ndarray  # propagates required upstream
    is_ep: np.ndarray  # flop or output port (capture points)
    clk_to_q: np.ndarray
    setup: np.ndarray
    hold: np.ndarray
    endpoint_cells: np.ndarray  # endpoint cell indices, canonical order
    level_of: np.ndarray  # (n,) topological level per cell
    ep_pos: np.ndarray  # (n,) endpoint position per cell, -1 elsewhere
    fanout_indptr: np.ndarray  # (n+1,) CSR row pointers over fanout edges
    fanout_indices: np.ndarray  # (E,) sink cell per fanout edge
    fanout_wire_delay: np.ndarray  # (E,) wire delay at the sink's pin
    derate: float = 1.0
    buffers: Dict[str, array.array] = field(default_factory=dict, repr=False)


@dataclass
class TimingReport:
    """Result of one STA run.

    ``slack``/``arrival``/``required`` are per *endpoint* in the canonical
    order of ``endpoints``; cell-level quantities are full-length arrays.
    """

    endpoints: np.ndarray  # endpoint cell indices
    arrival: np.ndarray  # data arrival at each endpoint (ns)
    required: np.ndarray  # required time at each endpoint (ns)
    slack: np.ndarray  # true slack, margins NOT subtracted
    margins: np.ndarray  # margin per endpoint (0 where none)
    cell_arrival: np.ndarray  # output arrival per cell
    cell_slew: np.ndarray  # output slew per cell
    cell_required: np.ndarray  # true output required per cell (+inf if unconstrained)
    cell_worst_slack: np.ndarray  # true worst slack of paths through each cell
    cell_worst_slack_margined: np.ndarray  # margin-aware worst slack view
    # Hold (min-delay) results; populated only when analyze(..., include_hold=True):
    hold_slack: Optional[np.ndarray] = None  # per endpoint (+inf at ports)
    cell_min_arrival: Optional[np.ndarray] = None  # earliest output arrival

    @property
    def slack_with_margins(self) -> np.ndarray:
        """Apparent slack seen by margin-aware engines (Algorithm 1 l.14)."""
        return self.slack - self.margins

    def endpoint_slack(self, cell_index: int) -> float:
        """True slack of one endpoint cell."""
        pos = np.nonzero(self.endpoints == cell_index)[0]
        if pos.size == 0:
            raise KeyError(f"cell {cell_index} is not an endpoint")
        return float(self.slack[pos[0]])


#: Default corner derates: typical, pessimistic-late (setup signoff) and
#: optimistic-early (hold signoff).
DEFAULT_CORNERS: Dict[str, float] = {"typ": 1.0, "slow": 1.08, "fast": 0.92}


class TimingAnalyzer:
    """STA facade bound to a netlist; recompile after netlist mutations.

    Supports multi-corner analysis: ``analyze(..., corner="slow")`` runs on
    a compiled view whose delays are scaled by the corner's derate
    (:data:`DEFAULT_CORNERS` by default; override via ``corners``).
    Compiled views are cached per corner and updated together on
    :meth:`notify_resize`.

    ``analyze()`` is incremental by default (see
    :mod:`repro.timing.incremental`): dirty cells accumulated from
    :meth:`notify_resize` / :meth:`notify_skew` seed a pruned
    re-propagation instead of a full sweep.  ``incremental=False`` forces
    the full engine (the oracle the incremental one is checked against);
    structural edits, clock-period changes, hold analysis and the first
    analysis of a corner always take the full path.  A netlist mutated
    without notification is caught by the mutation-version guard and
    triggers ``invalidate()`` — a stale read without re-analysis is
    impossible.
    """

    def __init__(
        self,
        netlist: Netlist,
        corners: Optional[Dict[str, float]] = None,
        incremental: bool = True,
    ):
        self.netlist = netlist
        self.corners: Dict[str, float] = dict(corners or DEFAULT_CORNERS)
        if "typ" not in self.corners:
            self.corners["typ"] = 1.0
        #: ``False`` sends every analysis down the full engine.
        self.incremental = incremental
        self._compiled: Dict[str, CompiledTiming] = {}
        self._states: Dict[str, "IncrementalState"] = {}
        self._expected_version: int = netlist.mutation_version

    def invalidate(self) -> None:
        """Drop all compiled views (call after structural mutations)."""
        self._compiled = {}
        self._states = {}
        self._expected_version = self.netlist.mutation_version

    def notify_resize(self, cell_index: int) -> None:
        """Incrementally update every cached corner after one resize.

        A size change touches only (a) the cell's own delay/slew
        coefficients and (b) the load capacitance of every driver feeding
        it (its input pin capacitance changed).  Topology, levels and
        endpoints are untouched, so a full recompile — a Python pass over
        every cell — is wasted work the data-path optimizer would otherwise
        pay on every probe move.
        """
        obs.incr("sta.incremental_update")
        netlist = self.netlist
        cell = netlist.cells[cell_index]
        size = cell.size
        i = cell_index
        dirty = {i}
        for net_index in cell.fanin_nets:
            if net_index is None:
                continue
            dirty.add(netlist.nets[net_index].driver)
        for compiled in self._compiled.values():
            d = compiled.derate
            compiled.intrinsic[i] = d * size.intrinsic_delay
            compiled.drive_res[i] = d * size.drive_resistance
            compiled.slew_sens[i] = size.slew_sensitivity
            compiled.slew_intr[i] = d * size.slew_intrinsic
            compiled.slew_load[i] = d * size.slew_load_factor
            for net_index in cell.fanin_nets:
                if net_index is None:
                    continue
                driver = netlist.nets[net_index].driver
                compiled.load_cap[driver] = netlist.net_load_cap(net_index)
        # The resize is now fully reflected in the compiled views: mark the
        # touched cells timing-stale so the next analyze() re-propagates
        # them, and acknowledge the netlist mutation so the version guard
        # does not force a needless recompile.
        for state in self._states.values():
            state.pending.update(dirty)
        self._expected_version = netlist.mutation_version

    def notify_skew(self, flop_indices: Iterable[int]) -> None:
        """Mark flops whose clock arrival moved as timing-stale.

        An eager hint for the useful-skew commit loop: the next
        ``analyze()`` seeds its frontier from these flops instead of
        discovering them via the clock-arrival diff (which still runs, so
        an *unnotified* skew edit is caught regardless — this hook is a
        fast path, not a correctness requirement).
        """
        flops = [int(f) for f in flop_indices]
        for state in self._states.values():
            state.pending.update(flops)

    def notify_margins(self) -> None:
        """Documented no-op: margins are a view and must not dirty timing.

        Endpoint margins only reseed the margin-aware backward pass
        (``slack_with_margins``/``cell_worst_slack_margined``); arrivals,
        slews and true required times are untouched by applying or removing
        them.  ``analyze()`` diffs the margin mapping itself, so there is
        nothing to record here — the hook exists so call sites can state
        intent (and so a future margin model that *does* perturb timing has
        a seam to hook into).
        """

    @property
    def compiled(self) -> CompiledTiming:
        return self.compiled_for("typ")

    def compiled_for(self, corner: str) -> CompiledTiming:
        """The (cached) compiled timing graph of one corner."""
        if corner not in self.corners:
            raise KeyError(
                f"unknown corner {corner!r}; available: {sorted(self.corners)}"
            )
        if corner not in self._compiled:
            with obs.span("sta.compile"):
                self._compiled[corner] = compile_timing(
                    self.netlist, derate=self.corners[corner]
                )
            obs.gauge("sta.peak_mb.compile", peak_rss_mb())
        return self._compiled[corner]

    def analyze(
        self,
        clock: ClockModel,
        margins: Optional[Mapping[int, float]] = None,
        include_hold: bool = False,
        corner: str = "typ",
    ) -> TimingReport:
        """Run STA under ``clock``; see :class:`TimingReport`.

        Dispatches to the incremental engine when enabled and a cached
        :class:`~repro.timing.incremental.IncrementalState` for the corner
        is still valid; otherwise runs the full engine (and, when
        incremental mode is on, captures its state for future increments).

        ``include_hold=True`` additionally runs the min-delay pass and fills
        ``hold_slack`` / ``cell_min_arrival`` (conventionally run at the
        ``"fast"`` corner, where races are worst); hold analysis always
        takes the full path.
        """
        from repro.timing import incremental as inc

        if self.netlist.mutation_version != self._expected_version:
            # The netlist mutated without notify_resize()/invalidate():
            # every cached view is untrustworthy.  Recompiling here makes a
            # stale read without re-analysis impossible.
            self.invalidate()

        compiled = self.compiled_for(corner)
        state = self._states.get(corner)

        if include_hold or not self.incremental:
            # Hold (min-delay) results are not cached incrementally; a
            # plain full run leaves any cached state untouched — its
            # pending set and the clock/margin diffs still cover whatever
            # happens before the next incremental call.
            with obs.span("sta.full_update"):
                obs.incr("sta.full_analyze")
                report = analyze(compiled, clock, margins, include_hold=include_hold)
            obs.gauge("sta.peak_mb.analyze", peak_rss_mb())
            return report

        if (
            state is None
            or state.compiled is not compiled
            or clock.period != state.period
        ):
            with obs.span("sta.full_update"):
                obs.incr("sta.full_analyze")
                report, state = inc.build_state(compiled, clock, margins)
                self._states[corner] = state
            obs.gauge("sta.peak_mb.analyze", peak_rss_mb())
            return report

        with obs.span("sta.incremental_analyze"):
            obs.incr("sta.incremental_analyze")
            report, frontier = inc.incremental_analyze(state, clock, margins)
            obs.incr("sta.frontier_cells", frontier)
        if obs.enabled():
            obs.gauge("sta.peak_mb.analyze", peak_rss_mb())
            # Running high-water mark of the incremental frontier (gauges
            # are last-value-wins, so keep the max explicitly).
            peak = obs.get_recorder().gauges.get("sta.frontier_peak")
            if peak is None or frontier > peak:
                obs.gauge("sta.frontier_peak", frontier)
        if inc.check_enabled():
            with obs.span("sta.shadow_check"):
                obs.incr("sta.shadow_checks")
                full = analyze(compiled, clock, margins)
                inc.assert_reports_equal(report, full)
        return report


def compile_timing(netlist: Netlist, derate: float = 1.0) -> CompiledTiming:
    """Build the array representation of the current netlist state.

    ``derate`` scales every delay-producing coefficient (intrinsic, drive,
    slew factors, wire delay) — the standard corner model: a *slow* corner
    derates late (>1), a *fast* corner derates early (<1).  Capacitances
    and sequential setup/hold constraints are corner-independent here.
    """
    if derate <= 0:
        raise ValueError(f"derate must be positive, got {derate}")
    n = netlist.num_cells
    max_pins = max((c.cell_type.num_inputs for c in netlist.cells), default=1)
    max_pins = max(max_pins, 1)

    # The per-cell loop fills the buffers directly: an ``array.array`` item
    # store is several times cheaper than a NumPy scalar store.
    def cells_buffer(typecode: str) -> array.array:
        return array.array(typecode, [0]) * n

    fanin = array.array("q", [_NO_DRIVER]) * (n * max_pins)
    fanin_wire = array.array("d", [0.0]) * (n * max_pins)
    load_cap = cells_buffer("d")
    intrinsic = cells_buffer("d")
    drive_res = cells_buffer("d")
    slew_sens = cells_buffer("d")
    slew_intr = cells_buffer("d")
    slew_load = cells_buffer("d")
    is_flop = cells_buffer("b")
    is_inport = cells_buffer("b")
    is_outport = cells_buffer("b")
    clk_to_q = cells_buffer("d")
    setup = cells_buffer("d")
    hold = cells_buffer("d")

    wire_coeff = (
        derate * netlist.parasitic_scale * netlist.library.wire_res_delay_per_um
    )

    cells = netlist.cells
    nets = netlist.nets
    for cell in cells:
        i = cell.index
        size = cell.size
        intrinsic[i] = derate * size.intrinsic_delay
        drive_res[i] = derate * size.drive_resistance
        slew_sens[i] = size.slew_sensitivity
        slew_intr[i] = derate * size.slew_intrinsic
        slew_load[i] = derate * size.slew_load_factor
        is_flop[i] = cell.is_sequential
        is_inport[i] = cell.is_input_port
        is_outport[i] = cell.is_output_port
        if cell.is_sequential:
            # Clock-to-Q is a real delay and derates with the corner;
            # setup/hold are constraint values and stay corner-independent.
            clk_to_q[i] = derate * cell.cell_type.clk_to_q
            setup[i] = cell.cell_type.setup_time
            hold[i] = cell.cell_type.hold_time
        row = i * max_pins
        for pin, net_index in enumerate(cell.fanin_nets):
            if net_index is None:
                continue
            driver = nets[net_index].driver
            fanin[row + pin] = driver
            driver_cell = cells[driver]
            dist = abs(driver_cell.x - cell.x) + abs(driver_cell.y - cell.y)
            fanin_wire[row + pin] = wire_coeff * dist
        if cell.fanout_net is not None:
            load_cap[i] = netlist.net_load_cap(cell.fanout_net)

    buffers: Dict[str, array.array] = {
        "fanin_idx": fanin,
        "fanin_wire_delay": fanin_wire,
        "load_cap": load_cap,
        "intrinsic": intrinsic,
        "drive_res": drive_res,
        "slew_sens": slew_sens,
        "slew_intr": slew_intr,
        "slew_load": slew_load,
        "is_flop": is_flop,
        "is_inport": is_inport,
        "is_outport": is_outport,
        "clk_to_q": clk_to_q,
        "setup": setup,
        "hold": hold,
    }
    views = {name: buffer_view(buf) for name, buf in buffers.items()}
    fanin_idx = views["fanin_idx"] = views["fanin_idx"].reshape(n, max_pins)
    views["fanin_wire_delay"] = views["fanin_wire_delay"].reshape(n, max_pins)
    flop_view = views["is_flop"]
    inport_view = views["is_inport"]
    outport_view = views["is_outport"]

    # CSR fanout adjacency from the dense fanin layout: one edge per valid
    # (sink, pin), grouped by driver via a stable argsort so each driver's
    # edge slice preserves (sink, pin) order deterministically.
    sink_rows, sink_pins = np.nonzero(fanin_idx != _NO_DRIVER)
    edge_drivers = fanin_idx[sink_rows, sink_pins]
    order = np.argsort(edge_drivers, kind="stable")
    fanout_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_drivers, minlength=n), out=fanout_indptr[1:])

    levels = _levelize(n, sink_rows, edge_drivers, flop_view, inport_view)
    level_of = np.zeros(n, dtype=np.int64)
    for k, level_cells in enumerate(levels):
        level_of[level_cells] = k

    endpoint_cells = np.array(netlist.endpoints(), dtype=np.int64)
    ep_pos = np.full(n, -1, dtype=np.int64)
    ep_pos[endpoint_cells] = np.arange(endpoint_cells.size, dtype=np.int64)

    is_src = flop_view | inport_view
    derived = {
        "is_src": is_src,
        "is_comb": ~(is_src | outport_view),
        "is_ep": flop_view | outport_view,
        "endpoint_cells": endpoint_cells,
        "level_of": level_of,
        "ep_pos": ep_pos,
        "fanout_indptr": fanout_indptr,
        "fanout_indices": sink_rows[order].astype(np.int64, copy=False),
        "fanout_wire_delay": views["fanin_wire_delay"][sink_rows, sink_pins][order],
    }
    for name, values in derived.items():
        buffers[name], views[name] = buffer_backed(values)
    return CompiledTiming(
        netlist=netlist, levels=levels, derate=derate, buffers=buffers, **views
    )


def _levelize(
    n: int,
    edge_sinks: np.ndarray,
    edge_drivers: np.ndarray,
    is_flop: np.ndarray,
    is_inport: np.ndarray,
) -> List[np.ndarray]:
    """Topological levels over *data* edges (flop outputs are sources).

    Level 0 holds all launch points (flops, input ports); a combinational
    cell's level is 1 + max of its drivers' levels (flop drivers count as 0).

    Wave-synchronous Kahn, fully vectorized: each wave releases every cell
    whose last dependency just resolved, so a cell's wave number equals its
    longest dependency-path length — identical to the scalar
    ``level[v] = max(level[v], level[u] + 1)`` relaxation this replaces.
    """
    # Dependency edges: cell v depends on driver u unless u is sequential or
    # an input port (those are timing sources).  Flops themselves are also
    # sources — their *output* arrival depends only on the clock, never on
    # their D input (the D-side setup check reads the driver arrivals
    # directly) — so no dependency edges point INTO a flop.
    dep = ~is_flop[edge_sinks] & ~(is_flop[edge_drivers] | is_inport[edge_drivers])
    dep_sinks = edge_sinks[dep]
    dep_drivers = edge_drivers[dep]
    indegree = np.bincount(dep_sinks, minlength=n)
    order = np.argsort(dep_drivers, kind="stable")
    dep_sinks = dep_sinks[order].astype(np.int64, copy=False)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dep_drivers, minlength=n), out=indptr[1:])

    levels: List[np.ndarray] = []
    current = np.nonzero(indegree == 0)[0]
    seen = 0
    while current.size:
        levels.append(current)
        seen += current.size
        released = dep_sinks[csr_edge_indices(indptr, current)]
        if released.size == 0:
            break
        dec = np.bincount(released, minlength=n)
        indegree -= dec
        current = np.nonzero((indegree == 0) & (dec > 0))[0]
    if seen != n:
        raise ValueError(
            "timing graph contains a combinational cycle; run validate_netlist"
        )
    if not levels:
        levels.append(np.zeros(0, dtype=np.int64))
    return levels


def analyze(
    compiled: CompiledTiming,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
    include_hold: bool = False,
) -> TimingReport:
    """Forward + backward STA under ``clock`` (see module docstring).

    Setup (max-delay) analysis always runs; ``include_hold=True`` adds the
    min-delay pass: earliest arrivals propagate with ``min`` instead of
    ``max`` and each flop's hold check is
    ``hold_slack = min_arrival(D) − (clock_arrival + t_hold)`` — data must
    not race through and corrupt the *same-edge* capture.  Delaying a flop's
    clock (positive useful skew) therefore erodes its hold slack one-for-one,
    which is the guard :class:`repro.ccd.useful_skew.UsefulSkewConfig`
    ``respect_hold`` enforces."""
    n = compiled.fanin_idx.shape[0]
    arrival = np.zeros(n)
    slew = np.zeros(n)
    margins = dict(margins or {})

    # Clock arrivals are sparse (only skewed flops carry an offset), so fill
    # from the clock model's dict instead of probing all n cells.
    clock_arrival = np.zeros(n)
    for f, value in clock.arrivals.items():
        if compiled.is_flop[f]:
            clock_arrival[f] = value

    # ---------------- forward propagation ---------------------------- #
    # Sources: input ports launch at 0, flops at clock + clk_to_q; both then
    # see their own drive delay onto the net.
    src_driver_delay = compiled.drive_res * compiled.load_cap

    for level_cells in compiled.levels:
        if level_cells.size == 0:
            continue
        lc = level_cells
        flop_mask = compiled.is_flop[lc]
        inport_mask = compiled.is_inport[lc]
        comb_mask = ~(flop_mask | inport_mask)

        # Launch points.
        if flop_mask.any():
            f = lc[flop_mask]
            arrival[f] = clock_arrival[f] + compiled.clk_to_q[f] + src_driver_delay[f]
            slew[f] = compiled.slew_intr[f] + compiled.slew_load[f] * compiled.load_cap[f]
        if inport_mask.any():
            p = lc[inport_mask]
            arrival[p] = src_driver_delay[p]
            slew[p] = compiled.slew_intr[p] + compiled.slew_load[p] * compiled.load_cap[p]

        # Combinational cells (and output ports, which get pin arrival only).
        if comb_mask.any():
            c = lc[comb_mask]
            drivers = compiled.fanin_idx[c]  # (m, pins)
            valid = drivers != _NO_DRIVER
            drv = np.where(valid, drivers, 0)
            in_arr = np.where(valid, arrival[drv] + compiled.fanin_wire_delay[c], -np.inf)
            in_slew = np.where(valid, slew[drv], 0.0)
            gate_delay = (
                compiled.intrinsic[c][:, None]
                + compiled.slew_sens[c][:, None] * in_slew
            )
            # Output ports consume only: no gate delay, no drive.
            outport = compiled.is_outport[c]
            per_pin = in_arr + np.where(outport[:, None], 0.0, gate_delay)
            a = per_pin.max(axis=1)
            # Load-dependent drive delay added once at the output.
            a = a + np.where(outport, 0.0, compiled.drive_res[c] * compiled.load_cap[c])
            arrival[c] = a
            slew[c] = compiled.slew_intr[c] + compiled.slew_load[c] * compiled.load_cap[c]

    # ---------------- endpoint checks --------------------------------- #
    eps = compiled.endpoint_cells
    if eps.size:
        ep_drivers = compiled.fanin_idx[eps]  # (m, pins)
        valid = ep_drivers != _NO_DRIVER
        drv = np.where(valid, ep_drivers, 0)
        pin_arr = np.where(
            valid, arrival[drv] + compiled.fanin_wire_delay[eps], -np.inf
        )
        ep_arrival = pin_arr.max(axis=1)
        ep_arrival[~valid.any(axis=1)] = 0.0  # unconnected endpoint
        # Flops capture at period + skew − setup; output ports against a
        # virtual capture clock at period.
        ep_required = np.where(
            compiled.is_flop[eps],
            clock.period + clock_arrival[eps] - compiled.setup[eps],
            clock.period,
        )
    else:
        ep_arrival = np.zeros(0)
        ep_required = np.zeros(0)
    ep_slack = ep_required - ep_arrival
    if margins:
        ep_margin = np.array([float(margins.get(int(e), 0.0)) for e in eps])
    else:
        ep_margin = np.zeros(eps.size)

    # ---------------- backward required propagation ------------------- #
    # Two views: *true* required times (real timing state) and, when margins
    # are present, a *margin-aware* view whose endpoint seeds are worsened by
    # the margins.  The CCD engines use the true view to bound how much slack
    # they may steal and the margin-aware view to prioritize/protect the
    # selected endpoints.
    required_true = _backward_required(compiled, slew, ep_required)
    if ep_margin.any():
        required_eff = _backward_required(compiled, slew, ep_required - ep_margin)
    else:
        required_eff = required_true

    worst_slack_true = np.where(
        np.isfinite(required_true), required_true - arrival, np.inf
    )
    worst_slack_eff = np.where(
        np.isfinite(required_eff), required_eff - arrival, np.inf
    )

    # ---------------- optional hold (min-delay) pass ------------------- #
    hold_slack = None
    min_arrival = None
    if include_hold:
        min_arrival = _forward_min_arrival(compiled, slew, clock_arrival)
        hold_slack = np.full(eps.size, np.inf)
        for k, e in enumerate(eps):
            if not compiled.is_flop[e]:
                continue  # ports have no same-edge race check
            pins = [
                min_arrival[d] + compiled.fanin_wire_delay[e, p]
                for p, d in enumerate(compiled.fanin_idx[e])
                if d != _NO_DRIVER
            ]
            earliest = min(pins) if pins else np.inf
            hold_slack[k] = earliest - (clock_arrival[e] + compiled.hold[e])

    return TimingReport(
        endpoints=eps.copy(),  # reports never alias the compiled buffers
        arrival=ep_arrival,
        required=ep_required,
        slack=ep_slack,
        margins=ep_margin,
        cell_arrival=arrival,
        cell_slew=slew,
        cell_required=required_true,
        cell_worst_slack=worst_slack_true,
        cell_worst_slack_margined=worst_slack_eff,
        hold_slack=hold_slack,
        cell_min_arrival=min_arrival,
    )


def _forward_min_arrival(
    compiled: CompiledTiming, slew: np.ndarray, clock_arrival: np.ndarray
) -> np.ndarray:
    """Earliest-arrival forward pass (min over pins; same delay model).

    Uses the already-computed (max-corner) slews — a conservative single-
    corner simplification: real min-delay analysis would use a fast corner,
    but the structural behaviour (short paths race, skew erodes hold) is
    identical.
    """
    n = compiled.fanin_idx.shape[0]
    min_arrival = np.zeros(n)
    src_driver_delay = compiled.drive_res * compiled.load_cap
    for level_cells in compiled.levels:
        if level_cells.size == 0:
            continue
        lc = level_cells
        flop_mask = compiled.is_flop[lc]
        inport_mask = compiled.is_inport[lc]
        comb_mask = ~(flop_mask | inport_mask)
        if flop_mask.any():
            f = lc[flop_mask]
            min_arrival[f] = (
                clock_arrival[f] + compiled.clk_to_q[f] + src_driver_delay[f]
            )
        if inport_mask.any():
            p = lc[inport_mask]
            min_arrival[p] = src_driver_delay[p]
        if comb_mask.any():
            c = lc[comb_mask]
            drivers = compiled.fanin_idx[c]
            valid = drivers != _NO_DRIVER
            drv = np.where(valid, drivers, 0)
            in_arr = np.where(
                valid, min_arrival[drv] + compiled.fanin_wire_delay[c], np.inf
            )
            in_slew = np.where(valid, slew[drv], 0.0)
            gate_delay = (
                compiled.intrinsic[c][:, None]
                + compiled.slew_sens[c][:, None] * in_slew
            )
            outport = compiled.is_outport[c]
            per_pin = in_arr + np.where(outport[:, None], 0.0, gate_delay)
            a = per_pin.min(axis=1)
            a = a + np.where(
                outport, 0.0, compiled.drive_res[c] * compiled.load_cap[c]
            )
            min_arrival[c] = a
    return min_arrival


def _backward_required(
    compiled: CompiledTiming, slew: np.ndarray, endpoint_required: np.ndarray
) -> np.ndarray:
    """Vectorized backward pass from the given endpoint required times."""
    n = compiled.fanin_idx.shape[0]
    required = np.full(n, np.inf)
    eps = compiled.endpoint_cells

    # Seed: required at endpoint input pins mapped onto their drivers.
    ep_drivers = compiled.fanin_idx[eps]  # (m, pins)
    valid = ep_drivers != _NO_DRIVER
    seed_req = endpoint_required[:, None] - compiled.fanin_wire_delay[eps]
    np.minimum.at(
        required, ep_drivers[valid], np.broadcast_to(seed_req, ep_drivers.shape)[valid]
    )

    # Walk levels backwards: a driver's required is the min over its comb
    # sinks v of (required[v] − gate delay(v) − wire(u→v)).
    for level_cells in reversed(compiled.levels):
        if level_cells.size == 0:
            continue
        mask = ~(
            compiled.is_flop[level_cells]
            | compiled.is_inport[level_cells]
            | compiled.is_outport[level_cells]
        )
        c = level_cells[mask]
        if c.size == 0:
            continue
        drivers = compiled.fanin_idx[c]  # (m, pins)
        valid = drivers != _NO_DRIVER
        drv = np.where(valid, drivers, 0)
        gate_delay = (
            compiled.intrinsic[c][:, None]
            + compiled.slew_sens[c][:, None] * slew[drv]
            + (compiled.drive_res[c] * compiled.load_cap[c])[:, None]
        )
        req = required[c][:, None] - gate_delay - compiled.fanin_wire_delay[c]
        np.minimum.at(required, drivers[valid], req[valid])
    return required
