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
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro import obs
from repro.netlist.core import Netlist
from repro.timing.clock import ClockModel

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.timing.incremental import IncrementalState, Journal

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
    enough for the scale sweep's coarse ``peak_mb`` figures (the nightly
    bound allows a wide margin).
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


class Topology:
    """Integer-only adjacency of one compile, read by the scalar timing walks.

    ``fanin[c]`` is a tuple of ``(driver, p)`` per connected input pin of
    cell ``c``, in pin order, where ``p`` is the pin's flat offset
    ``c × max_pins + pin`` into ``fanin_idx``/``fanin_wire_delay``.
    ``fanout[c]`` is a tuple of ``(sink, level_of[sink])`` per non-flop
    sink edge of ``c`` and ``ep_sinks[c]`` a tuple of ``ep_pos[sink]`` per
    endpoint sink edge, both in CSR edge order.  Unconnected pins and
    absent sinks are simply not there, so a walk needs no pad test.

    Nothing in it is a float: wire delays and coefficients are read from
    the walking copy's own buffers, which a copy may patch.  A resize moves
    no pin, so the topology holds until the next compile.  It is built on
    first use (:attr:`CompiledTiming.topology`), never by the compile.
    """

    __slots__ = ("fanin", "fanout", "ep_sinks")

    def __init__(self) -> None:
        self.fanin: Optional[List[tuple]] = None
        self.fanout: Optional[List[tuple]] = None
        self.ep_sinks: Optional[List[tuple]] = None

    def fill(self, compiled: "CompiledTiming") -> "Topology":
        """Derive the fields from ``compiled``'s adjacency buffers; returns self."""
        fanin_idx = compiled.fanin_idx
        n, max_pins = fanin_idx.shape
        # One int object per cell index, shared by every tuple naming it.
        ids = list(range(n))
        rows, pins = np.nonzero(fanin_idx != _NO_DRIVER)
        drivers = [ids[u] for u in fanin_idx[rows, pins].tolist()]
        flat = (rows * max_pins + pins).tolist()
        self.fanin = _split(list(zip(drivers, flat)), rows, n)

        indptr = compiled.fanout_indptr
        sinks = compiled.fanout_indices
        owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        push = ~compiled.is_flop[sinks]
        pushed = sinks[push]
        sink_ids = [ids[s] for s in pushed.tolist()]
        levels = compiled.level_of[pushed].tolist()
        self.fanout = _split(list(zip(sink_ids, levels)), owners[push], n)
        ep = compiled.is_ep[sinks]
        self.ep_sinks = _split(compiled.ep_pos[sinks[ep]].tolist(), owners[ep], n)
        return self


def _split(items: list, owners: np.ndarray, n: int) -> List[tuple]:
    """Per-owner tuples of ``items`` (grouped by ascending ``owners``)."""
    bounds = np.searchsorted(owners, np.arange(n + 1)).tolist()
    return [tuple(items[bounds[c] : bounds[c + 1]]) for c in range(n)]


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
    all of these untouched, and ``wire_cap`` too: a driver's new load is its
    re-summed sink pin caps (``sink_cap``, patched) plus that stored wire
    term.

    Every array field is a :func:`buffer_view` of the ``array.array`` stored
    under the same name in ``buffers`` (``fanin_idx``/``fanin_wire_delay``
    flattened row-major): the incremental engine's scalar loops index the
    buffers, everything else uses the views, and a patch through either is
    a patch of both.  The scalar walks take the adjacency itself from
    :attr:`topology`, the same graph as tuples of real pins and sinks.
    """

    netlist: Netlist
    levels: List[np.ndarray]  # cells per topological level
    fanin_idx: np.ndarray  # (n, max_pins) driver cell per pin, -1 pad
    fanin_wire_delay: np.ndarray  # (n, max_pins)
    load_cap: np.ndarray  # (n,) fan-out net load: sink pin caps + wire cap
    sink_cap: np.ndarray  # (n,) sink-pin term of load_cap (notify_resize patches it)
    wire_cap: np.ndarray  # (n,) wire-cap term of load_cap (resizes never move it)
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
    endpoint_cells: np.ndarray  # endpoint cell indices, canonical order
    level_of: np.ndarray  # (n,) topological level per cell
    ep_pos: np.ndarray  # (n,) endpoint position per cell, -1 elsewhere
    fanout_indptr: np.ndarray  # (n+1,) CSR row pointers over fanout edges
    fanout_indices: np.ndarray  # (E,) sink cell per fanout edge
    fanout_wire_delay: np.ndarray  # (E,) wire delay at the sink's pin
    buffers: Dict[str, array.array] = field(default_factory=dict, repr=False)
    #: This compile's :class:`Topology`, empty until first read; shared with
    #: every copy, so whichever reads it first builds it for all.
    shared_topology: Topology = field(default_factory=Topology, repr=False, compare=False)

    @property
    def topology(self) -> Topology:
        """The compile's :class:`Topology`, built on the first read."""
        topology = self.shared_topology
        if topology.fanin is None:
            topology.fill(self)
        return topology

    def copy(self) -> "CompiledTiming":
        """An independent copy: every buffer copied, the views rebuilt on them.

        ``levels``, ``netlist`` and the :class:`Topology` are shared, since
        nothing patches them (:meth:`TimingAnalyzer.notify_resize` writes
        coefficients and loads only, and the topology holds no float).  A
        patch of the copy never reaches the original, and a copy whose
        topology is already built pays nothing for it.
        """
        buffers = {name: buf[:] for name, buf in self.buffers.items()}
        views = {
            name: buffer_view(buf, getattr(self, name).shape)
            for name, buf in buffers.items()
        }
        return CompiledTiming(
            netlist=self.netlist,
            levels=self.levels,
            buffers=buffers,
            shared_topology=self.shared_topology,
            **views,
        )


def buffer_mismatches(
    ours: Mapping[str, array.array], theirs: Mapping[str, array.array]
) -> List[str]:
    """Names of the buffers that are missing on one side or differ in bytes."""
    return sorted(
        name
        for name in set(ours) | set(theirs)
        if name not in ours
        or name not in theirs
        or ours[name].typecode != theirs[name].typecode
        or ours[name].tobytes() != theirs[name].tobytes()
    )


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


def _not_in_probe(name: str) -> property:
    def read(self: "ProbeReport") -> np.ndarray:
        raise RuntimeError(
            f"{name} is not computed by a probe analysis (forward only): "
            "commit or roll back the probe, then analyze() again"
        )

    return property(read)


class ProbeReport(TimingReport):
    """The forward-only report of an analysis inside an open probe.

    A probe (:meth:`TimingAnalyzer.open_probe`) skips the backward
    required-time sweep, so its report carries the endpoint fields,
    ``cell_arrival`` and ``cell_slew`` only.  Reading a required-side
    field raises ``RuntimeError``: there is no current value to return,
    and a stale one must never be read.

    ``cell_arrival`` and ``cell_slew`` are read-only views of the state's
    vectors, not copies, and ``endpoints`` is a read-only view of the
    compiled ``endpoint_cells``; the per-endpoint vectors are fresh
    arrays.  The views are guarded by the state's ``generation``, which
    every incremental analysis sets to a new value and a journaled
    rollback restores: reading either view once the state has moved on
    raises ``RuntimeError``, and a report from before a probe is readable
    again once that probe is rolled back.
    """

    #: The fields a probe report carries.
    FIELDS = (
        "endpoints",
        "arrival",
        "required",
        "slack",
        "margins",
        "cell_arrival",
        "cell_slew",
    )

    cell_required = _not_in_probe("cell_required")
    cell_worst_slack = _not_in_probe("cell_worst_slack")
    cell_worst_slack_margined = _not_in_probe("cell_worst_slack_margined")

    def __init__(
        self,
        endpoints: np.ndarray,
        arrival: np.ndarray,
        required: np.ndarray,
        slack: np.ndarray,
        margins: np.ndarray,
        state: "IncrementalState",
    ) -> None:
        self.endpoints = endpoints
        self.arrival = arrival
        self.required = required
        self.slack = slack
        self.margins = margins
        self._state = state
        self._generation = state.generation

    def _view(self, name: str, values: np.ndarray) -> np.ndarray:
        if self._state.generation != self._generation:
            raise RuntimeError(
                f"{name} of this probe report is stale: the timing state was "
                "analyzed again since (roll that probe back, or use the "
                "newer report)"
            )
        view = values.view()
        view.flags.writeable = False
        return view

    @property
    def cell_arrival(self) -> np.ndarray:
        return self._view("cell_arrival", self._state.arrival)

    @property
    def cell_slew(self) -> np.ndarray:
        return self._view("cell_slew", self._state.slew)

    def __repr__(self) -> str:
        return (
            f"ProbeReport(endpoints={self.endpoints.size}, "
            f"cells={self._state.arrival.size})"
        )


class TimingAnalyzer:
    """STA facade bound to a netlist; recompile after netlist mutations.

    Holds one compiled view of the netlist and, once analyzed, one
    :class:`~repro.timing.incremental.IncrementalState`;
    :meth:`notify_resize` patches that view in place.

    ``analyze()`` is incremental by default (see
    :mod:`repro.timing.incremental`): dirty cells accumulated from
    :meth:`notify_resize` / :meth:`notify_skew` seed a pruned
    re-propagation instead of a full sweep.  ``incremental=False`` forces
    the full engine (the oracle the incremental one is checked against);
    structural edits, clock-period changes and the first analysis always
    take the full path.  A netlist mutated without notification is caught
    by the mutation-version guard and triggers ``invalidate()`` — a stale
    read without re-analysis is impossible.

    A trial move is bracketed as a *probe*: :meth:`open_probe` before the
    move, then :meth:`commit_probe` to keep it or :meth:`rollback_probe`
    after undoing it.  ``analyze()`` inside an open probe runs the forward
    sweep only and returns a :class:`ProbeReport`; the backward seeds wait
    for the next ordinary ``analyze()``, and a rollback restores the
    probe's journal instead of re-propagating the undo.

    ``frontier_peak`` is the largest frontier (cells re-propagated) of any
    one incremental analysis this analyzer ran; a flow runs on its own
    analyzer, so it is that flow's peak.
    """

    def __init__(self, netlist: Netlist, incremental: bool = True):
        self.netlist = netlist
        #: ``False`` sends every analysis down the full engine.
        self.incremental = incremental
        self.frontier_peak = 0
        self._compiled: Optional[CompiledTiming] = None
        self._state: Optional["IncrementalState"] = None
        self._expected_version: int = netlist.mutation_version
        self._probe: Optional["Journal"] = None

    @classmethod
    def resume(
        cls, compiled: CompiledTiming, state: "IncrementalState", version: int
    ) -> "TimingAnalyzer":
        """An incremental analyzer whose cache is ``compiled`` and ``state``.

        ``version`` is the netlist ``mutation_version`` both are valid at;
        the caller vouches for that.  The next ``analyze()`` under the
        state's clock period is incremental, so a flow started from a copy
        of a begin state skips the compile and the begin full analysis.
        """
        analyzer = cls(compiled.netlist)
        analyzer._compiled = compiled
        analyzer._state = state
        analyzer._expected_version = version
        return analyzer

    def invalidate(self) -> None:
        """Drop the compiled view (call after structural mutations)."""
        self._compiled = None
        self._state = None
        self._expected_version = self.netlist.mutation_version

    def notify_resize(self, cell_index: int) -> None:
        """Incrementally update the compiled view after one resize.

        A size change touches only (a) the cell's own delay/slew
        coefficients and (b) the load capacitance of every driver feeding
        it (its input pin capacitance changed).  Topology, levels and
        endpoints are untouched, so a full recompile — a gather over every
        cell and net — is wasted work the data-path optimizer would
        otherwise pay on every probe move.  A driver's new load is its net's
        sink pin caps, re-summed into ``sink_cap``, plus the wire-cap term
        the compile stored: a resize moves no pin, so the net's wirelength
        is not recomputed.
        """
        from repro.timing import incremental as inc

        obs.incr("sta.incremental_update")
        netlist = self.netlist
        cell = netlist.cells[cell_index]
        size = cell.cell_type.sizes[cell.size_index]
        i = cell_index
        nets = netlist.nets
        drivers = [
            (net_index, nets[net_index].driver)
            for net_index in cell.fanin_nets
            if net_index is not None
        ]
        dirty = {i}
        dirty.update(driver for _net, driver in drivers)
        compiled = self._compiled
        if compiled is not None:
            buffers = compiled.buffers
            buffers["intrinsic"][i] = size.intrinsic_delay
            buffers["drive_res"][i] = size.drive_resistance
            buffers["slew_sens"][i] = size.slew_sensitivity
            buffers["slew_intr"][i] = size.slew_intrinsic
            buffers["slew_load"][i] = size.slew_load_factor
            load_cap = buffers["load_cap"]
            sink_cap = buffers["sink_cap"]
            wire_cap = buffers["wire_cap"]
            for net_index, driver in drivers:
                sink_cap[driver] = netlist.net_sink_cap(net_index)
                load_cap[driver] = sink_cap[driver] + wire_cap[driver]
            if inc.check_enabled():
                for net_index, driver in drivers:
                    expected = netlist.net_load_cap(net_index)
                    if load_cap[driver] != expected:
                        raise RuntimeError(
                            f"notify_resize({cell.name!r}): patched load_cap of "
                            f"driver {netlist.cells[driver].name!r} on net "
                            f"{nets[net_index].name!r} is {load_cap[driver]!r}, "
                            f"net_load_cap gives {expected!r}"
                        )
        # The resize is now fully reflected in the compiled view: mark the
        # touched cells timing-stale so the next analyze() re-propagates
        # them, and acknowledge the netlist mutation so the version guard
        # does not force a needless recompile.
        if self._state is not None:
            self._state.pending.update(dirty)
        self._expected_version = netlist.mutation_version

    def notify_skew(self, flop_indices: Iterable[int]) -> None:
        """Mark flops whose clock arrival moved as timing-stale.

        An eager hint for the useful-skew commit loop: the next
        ``analyze()`` seeds its frontier from these flops instead of
        discovering them via the clock-arrival diff (which still runs, so
        an *unnotified* skew edit is caught regardless — this hook is a
        fast path, not a correctness requirement).
        """
        if self._state is not None:
            self._state.pending.update(int(f) for f in flop_indices)

    def open_probe(self) -> None:
        """Open a probe: call before making a trial move.

        Until :meth:`commit_probe` or :meth:`rollback_probe`, ``analyze()``
        is forward-only (without margins; with them, and with the
        incremental engine off, it stays an ordinary analysis) and journals
        what it overwrites.
        """
        from repro.timing import incremental as inc

        if self._probe is not None:
            raise RuntimeError("a probe is already open")
        self._probe = inc.Journal(self._state if self.incremental else None)

    def commit_probe(self) -> None:
        """Keep the probed move; the next ordinary ``analyze()`` sweeps its
        deferred backward seeds."""
        self._close_probe()

    def rollback_probe(self) -> bool:
        """Drop the probed move's timing; call after undoing the move
        (``resize_cell`` back and :meth:`notify_resize`).

        Restores the journal in reverse, the pending set, the deferred
        seeds and the state's generation, so nothing re-propagates, and
        returns ``True``: the timing state is byte for byte the one the
        probe opened on.  A probe the journal does not cover (a clock or
        margin change, a full-path analysis) restores nothing and returns
        ``False``: the undo's notification re-propagates on the next
        ``analyze()``, as an ordinary undo would.
        """
        from repro.timing import incremental as inc

        journal = self._close_probe()
        if journal.exact and journal.state is self._state:
            inc.rollback(journal)
            return True
        return False

    def _close_probe(self) -> "Journal":
        journal = self._probe
        if journal is None:
            raise RuntimeError("no probe is open")
        self._probe = None
        journal.close()
        return journal

    @property
    def state(self) -> Optional["IncrementalState"]:
        """The cached incremental state (``None`` before the first analysis)."""
        return self._state

    @property
    def compiled(self) -> CompiledTiming:
        """The (cached) compiled timing graph."""
        if self._compiled is None:
            with obs.span("sta.compile"):
                self._compiled = compile_timing(self.netlist)
        return self._compiled

    def analyze(
        self,
        clock: ClockModel,
        margins: Optional[Mapping[int, float]] = None,
    ) -> TimingReport:
        """Run STA under ``clock``; see :class:`TimingReport`.

        Dispatches to the incremental engine when enabled and the cached
        :class:`~repro.timing.incremental.IncrementalState` is still valid;
        otherwise runs the full engine (and, when incremental mode is on,
        captures its state for future increments).  Inside an open probe
        an incremental analysis without margins is forward-only and
        returns a :class:`ProbeReport`.
        """
        from repro.timing import incremental as inc

        if self.netlist.mutation_version != self._expected_version:
            # The netlist mutated without notify_resize()/invalidate():
            # every cached view is untrustworthy.  Recompiling here makes a
            # stale read without re-analysis impossible.
            self.invalidate()

        compiled = self.compiled
        state = self._state

        if not self.incremental:
            with obs.span("sta.full_update"):
                obs.incr("sta.full_analyze")
                report = analyze(compiled, clock, margins)
            return report

        probe = self._probe
        if (
            state is None
            or state.compiled is not compiled
            or clock.period != state.period
        ):
            if probe is not None:
                probe.exact = False
            with obs.span("sta.full_update"):
                obs.incr("sta.full_analyze")
                report, self._state = inc.build_state(compiled, clock, margins)
            return report

        forward_only = False
        if probe is not None:
            forward_only = not margins and not state.margined
            if not forward_only:
                probe.exact = False  # margin writes are not journaled
        with obs.span("sta.incremental_analyze"):
            obs.incr("sta.incremental_analyze")
            report, frontier = inc.incremental_analyze(
                state, clock, margins, forward_only
            )
            obs.incr("sta.frontier_cells", frontier)
        if frontier > self.frontier_peak:
            self.frontier_peak = frontier
        if inc.check_enabled():
            with obs.span("sta.shadow_check"):
                obs.incr("sta.shadow_checks")
                full = analyze(compiled, clock, margins)
                inc.assert_reports_equal(report, full)
        return report


def column(objects: List, name: str) -> np.ndarray:
    """The float64 column of attribute ``name`` over ``objects``."""
    return np.fromiter(map(attrgetter(name), objects), np.float64, len(objects))


def compile_timing(netlist: Netlist) -> CompiledTiming:
    """Build the array representation of the current netlist state.

    Array work over columns gathered once per call: every cell's
    :class:`CellSize` and type, coordinates and pin nets, and every net's
    driver and sinks.  Each array holds what ``Netlist``'s scalar queries
    give, bit for bit:

    * a net's sink capacitance is one ``np.bincount`` over its sinks in
      sink order, which adds each net's terms in sequence from 0.0, the
      sum :meth:`Netlist.net_sink_cap` does;
    * its HPWL is ``np.maximum.reduceat`` and ``np.minimum.reduceat`` over
      segments of driver-then-sinks coordinates (max and min are exact);
    * wire caps and wire delays are elementwise, in the scalar formulas'
      operation order.
    """
    cells = netlist.cells
    nets = netlist.nets
    library = netlist.library
    n = len(cells)
    types = [cell.cell_type for cell in cells]
    sizes = [cell_type.sizes[cell.size_index] for cell, cell_type in zip(cells, types)]
    num_inputs = np.fromiter((t.num_inputs for t in types), np.int64, n)
    max_pins = max(int(num_inputs.max(initial=1)), 1)
    is_flop = np.fromiter((t.is_sequential for t in types), np.bool_, n)
    is_port = np.fromiter((t.is_port for t in types), np.bool_, n)
    is_inport = is_port & (num_inputs == 0)
    is_outport = is_port & (num_inputs == 1)
    x = column(cells, "x")
    y = column(cells, "y")

    # Net columns: driver, then the sinks of every net in sink order.
    m = len(nets)
    sink_lists = [net.sinks for net in nets]
    sink_counts = np.fromiter(map(len, sink_lists), np.int64, m)
    sink_cells = np.fromiter(
        (sink for sinks in sink_lists for sink, _pin in sinks),
        np.int64,
        int(sink_counts.sum()),
    )
    net_driver = np.fromiter((net.driver for net in nets), np.int64, m)
    pin_cap = np.where(is_outport, library.default_port_cap, column(sizes, "input_cap"))
    net_sink_cap = np.bincount(
        np.repeat(np.arange(m), sink_counts), weights=pin_cap[sink_cells], minlength=m
    )
    net_wire_cap = (netlist.parasitic_scale * library.wire_cap_per_um) * _net_hpwl(
        x, y, net_driver, sink_cells, sink_counts
    )

    # A driver's load: net_load_cap's two terms, the wire term kept for
    # notify_resize.
    fanout = np.fromiter(
        (-1 if cell.fanout_net is None else cell.fanout_net for cell in cells), np.int64, n
    )
    drivers = np.flatnonzero(fanout >= 0)
    sink_cap = np.zeros(n)
    wire_cap = np.zeros(n)
    load_cap = np.zeros(n)
    sink_cap[drivers] = net_sink_cap[fanout[drivers]]
    wire_cap[drivers] = net_wire_cap[fanout[drivers]]
    load_cap[drivers] = sink_cap[drivers] + wire_cap[drivers]

    # Dense fanin: the driver of every connected pin and its wire delay.
    pin_lists = [cell.fanin_nets for cell in cells]
    pin_counts = np.fromiter(map(len, pin_lists), np.int64, n)
    pin_nets = np.fromiter(
        (-1 if net is None else net for pins in pin_lists for net in pins),
        np.int64,
        int(pin_counts.sum()),
    )
    rows = np.repeat(np.arange(n), pin_counts)
    pins = np.arange(pin_nets.size) - np.repeat(np.cumsum(pin_counts) - pin_counts, pin_counts)
    slots = rows * max_pins + pins
    connected = pin_nets >= 0
    rows, slots = rows[connected], slots[connected]
    pin_drivers = net_driver[pin_nets[connected]]
    dist = np.abs(x[pin_drivers] - x[rows]) + np.abs(y[pin_drivers] - y[rows])
    wire_coeff = netlist.parasitic_scale * library.wire_res_delay_per_um
    fanin_idx = np.full(n * max_pins, _NO_DRIVER, dtype=np.int64)
    fanin_wire_delay = np.zeros(n * max_pins)
    fanin_idx[slots] = pin_drivers
    fanin_wire_delay[slots] = wire_coeff * dist

    columns = {
        "fanin_idx": fanin_idx.reshape(n, max_pins),
        "fanin_wire_delay": fanin_wire_delay.reshape(n, max_pins),
        "load_cap": load_cap,
        "sink_cap": sink_cap,
        "wire_cap": wire_cap,
        "intrinsic": column(sizes, "intrinsic_delay"),
        "drive_res": column(sizes, "drive_resistance"),
        "slew_sens": column(sizes, "slew_sensitivity"),
        "slew_intr": column(sizes, "slew_intrinsic"),
        "slew_load": column(sizes, "slew_load_factor"),
        "is_flop": is_flop,
        "is_inport": is_inport,
        "is_outport": is_outport,
        "clk_to_q": np.where(is_flop, column(types, "clk_to_q"), 0.0),
        "setup": np.where(is_flop, column(types, "setup_time"), 0.0),
    }
    return assemble_compiled(netlist, columns)


def _net_hpwl(
    x: np.ndarray,
    y: np.ndarray,
    net_driver: np.ndarray,
    sink_cells: np.ndarray,
    sink_counts: np.ndarray,
) -> np.ndarray:
    """Every net's half-perimeter wirelength, :meth:`Netlist.net_hpwl`'s
    ``(max(xs) − min(xs)) + (max(ys) − min(ys))`` over driver and sinks."""
    m = net_driver.size
    if m == 0:
        return np.zeros(0)
    starts = np.arange(m) + np.cumsum(sink_counts) - sink_counts
    members = np.empty(m + sink_cells.size, dtype=np.int64)
    is_driver = np.zeros(members.size, dtype=bool)
    is_driver[starts] = True
    members[is_driver] = net_driver
    members[~is_driver] = sink_cells
    xs, ys = x[members], y[members]
    return (np.maximum.reduceat(xs, starts) - np.minimum.reduceat(xs, starts)) + (
        np.maximum.reduceat(ys, starts) - np.minimum.reduceat(ys, starts)
    )


def assemble_compiled(netlist: Netlist, columns: Mapping[str, np.ndarray]) -> CompiledTiming:
    """The :class:`CompiledTiming` of ``netlist`` from its per-cell columns.

    ``columns`` holds the arrays :func:`compile_timing` gathers, by field
    name, ``fanin_idx`` and ``fanin_wire_delay`` shaped ``(n, max_pins)``.
    Each becomes a buffer; the fanout CSR, the levels and the endpoint
    maps are derived from them.
    """
    buffers: Dict[str, array.array] = {}
    views: Dict[str, np.ndarray] = {}
    for name, values in columns.items():
        buffers[name], views[name] = buffer_backed(values)
    fanin_idx = views["fanin_idx"]
    n = fanin_idx.shape[0]
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

    is_ep = flop_view | outport_view
    endpoint_cells = np.flatnonzero(is_ep).astype(np.int64, copy=False)
    ep_pos = np.full(n, -1, dtype=np.int64)
    ep_pos[endpoint_cells] = np.arange(endpoint_cells.size, dtype=np.int64)

    is_src = flop_view | inport_view
    derived = {
        "is_src": is_src,
        "is_comb": ~(is_src | outport_view),
        "is_ep": is_ep,
        "endpoint_cells": endpoint_cells,
        "level_of": level_of,
        "ep_pos": ep_pos,
        "fanout_indptr": fanout_indptr,
        "fanout_indices": sink_rows[order].astype(np.int64, copy=False),
        "fanout_wire_delay": views["fanin_wire_delay"][sink_rows, sink_pins][order],
    }
    for name, values in derived.items():
        buffers[name], views[name] = buffer_backed(values)
    return CompiledTiming(netlist=netlist, levels=levels, buffers=buffers, **views)


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
) -> TimingReport:
    """Forward + backward setup STA under ``clock`` (see module docstring)."""
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
    )


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
