"""Incremental STA: dirty-set–driven re-propagation inside ``analyze()``.

The full engine in :mod:`repro.timing.sta` recomputes every level on every
call even when a single cell was resized or a single flop's clock arrival
moved — and the CCD inner loops (:mod:`repro.ccd.datapath_opt` probes,
:mod:`repro.ccd.useful_skew` commit batches) call ``analyze()`` thousands of
times per flow run.  This module keeps the *last* analysis alive as an
:class:`IncrementalState` and re-propagates only what changed:

* **dirty cells** arrive from :meth:`TimingAnalyzer.notify_resize` (delay
  coefficients / load caps patched), :meth:`TimingAnalyzer.notify_skew`
  (clock arrivals moved) and — as a safety net — from diffing the clock
  model's per-flop arrivals against the cached vector whenever the
  clock's arrival dict differs from the copy the state last synced to, so
  an un-notified skew edit can never be read stale;
* the **forward pass** seeds a frontier from the dirty cells and walks the
  topological levels in order, recomputing only frontier cells and pruning
  any cell whose arrival is unchanged within :data:`PRUNE_TOL`.  A cell's
  slew depends on its own coefficients and load only, which only
  ``notify_resize`` changes, so only the dirty cells recompute a slew (up
  front); every frontier cell runs an arrival-only body;
* the **backward pass** is symmetric: endpoints whose required time or
  margin changed, cells whose slew changed and the fan-in of re-coefficiented
  cells seed a reverse frontier that walks the levels backwards with the
  same pruning rule;
* **margins stay a view**: they only reseed the margin-aware backward pass
  (``required_eff``); arrivals, slews and true required times are never
  dirtied by applying or removing them, so ``analyze()`` diffs the margin
  mapping itself and needs no notification;
* a **probe** (a trial move between :meth:`TimingAnalyzer.open_probe` and
  ``commit_probe``/``rollback_probe``) runs the forward pass only and
  returns a :class:`~repro.timing.sta.ProbeReport`; the backward pass'
  seeds wait in the state until the next ordinary analysis sweeps them in
  one pass, and a rollback restores the probe's :class:`Journal` — the
  compiled values its resizes patched and the timing values its analyses
  wrote — instead of patching and re-propagating the undo.

Every recomputation mirrors the full pass' arithmetic *expression by
expression*, so a recomputed value from unchanged inputs is bitwise equal
and prunes exactly; differences against a from-scratch run can only come
from pruned sub-:data:`PRUNE_TOL` residues.

**Two kernels per level, one arithmetic.**  The frontier is bucketed by
topological level; each level-slice runs either a Python-scalar loop (below
:func:`vector_threshold` cells — the typical smoke-scale frontier of a
handful of cells, where numpy's per-call overhead dominates) or a vectorized
NumPy kernel (one gather over the dense ``fanin_idx`` rows / the CSR fanout
slices of :class:`~repro.timing.sta.CompiledTiming`, a batched max/min
reduction, a vectorized ``|Δ| > ε`` prune and a CSR frontier expansion).
Both paths evaluate the *same* IEEE-754 expression trees — max/min
reductions over non-NaN doubles are exact and order-independent — so the
switch is bitwise invisible, which the differential fuzz suite asserts
byte-for-byte.  Scratch (the stamped seen vector, level buckets) is
preallocated in the state and a new pass only takes a new stamp, so
repeated ``analyze()`` calls allocate O(frontier), not O(n).

**One storage, two access paths.**  Every vector the scalar loop touches —
the compiled coefficients, flags and adjacency, the cached arrivals, slews,
clock arrivals and required times, the seen mask — lives in an
``array.array`` whose NumPy attribute is an ``np.frombuffer`` view of it
(:func:`~repro.timing.sta.buffer_backed`).  The scalar loop indexes the
buffers and so computes on Python floats and ints (the same IEEE-754
doubles a NumPy scalar carries, without its boxing cost); the kernels, the
full engine and report assembly use the views.  Neither path has a mirror
to keep in sync.

Fallback rules (handled by :class:`~repro.timing.sta.TimingAnalyzer`):
structural edits (``invalidate()`` or an unnotified netlist mutation caught
by the mutation-version guard), a clock-period change and the first analysis
all run the full engine and refresh the cached state.  An analyzer made by
:meth:`~repro.timing.sta.TimingAnalyzer.resume` starts with a cached state
(a copy of a flow's begin state), so its first analysis is incremental.

Shadow-check mode (``REPRO_STA_CHECK=1``) re-runs the full engine after
every incremental analysis and asserts the two reports agree within
:data:`CHECK_ATOL` (a probe report on the fields it carries), and asserts
every journaled rollback leaves the buffers byte-equal to a copy taken
when the probe opened; ``TimingAnalyzer.notify_resize`` and every
rollback assert the patched (or restored) coefficients equal the cell's
size and every driver load equals ``Netlist.net_load_cap`` — the
differential harness CI runs the fuzz suite under.
"""

from __future__ import annotations

import array
import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.timing.clock import ClockModel
from repro.timing.sta import (
    _NO_DRIVER,
    RESIZED_FIELDS,
    CompiledTiming,
    ProbeReport,
    TimingReport,
    Topology,
    _backward_required,
    analyze,
    buffer_backed,
    buffer_mismatches,
    buffer_view,
    csr_edge_indices,
)

#: A frontier cell whose recomputed arrival *and* slew both moved by no more
#: than this is pruned: its cached values are kept and its fanout is not
#: re-propagated.  The same tolerance prunes the backward pass.
PRUNE_TOL = 1e-12

#: Shadow-check agreement tolerance (absolute).  Looser than the pruning
#: tolerance because pruned residues may accumulate along deep paths.
CHECK_ATOL = 1e-9

#: Truthy value turns on differential shadow checking of every incremental
#: analysis (expensive: each one also pays a full analysis).
ENV_CHECK = "REPRO_STA_CHECK"

#: Density switch: a frontier level-slice with at least this many cells runs
#: the vectorized kernel, smaller slices the scalar loop.  ``0`` forces the
#: kernel path everywhere, a huge value forces the scalar path (both used by
#: the differential fuzz suite to pin byte-equality of the two paths).
ENV_VEC_THRESHOLD = "REPRO_STA_VEC_THRESHOLD"

#: Default frontier-size threshold for the vectorized kernels: the measured
#: per-batch crossover of the buffer-backed scalar loop against the NumPy
#: kernels at 2K and 10K cells (table in docs/timing.md).  Below it NumPy's
#: per-call overhead loses to the scalar loop.
DEFAULT_VEC_THRESHOLD = 64

_TRUTHY = ("1", "true", "yes", "on")

_check: bool = os.environ.get(ENV_CHECK, "").strip().lower() in _TRUTHY


def _env_threshold() -> int:
    raw = os.environ.get(ENV_VEC_THRESHOLD, "").strip()
    if not raw:
        return DEFAULT_VEC_THRESHOLD
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_VEC_THRESHOLD


_vec_threshold: int = _env_threshold()

_NEG_INF = float("-inf")
_POS_INF = float("inf")

#: Source of :attr:`IncrementalState.generation` values: every state and
#: every incremental analysis takes a value no other has had.
_generations = itertools.count(1)


def check_enabled() -> bool:
    """Whether shadow-check mode is on (``REPRO_STA_CHECK=1``)."""
    return _check


def set_check(value: bool) -> bool:
    """Set shadow-check mode; returns the previous value."""
    global _check
    previous = _check
    _check = bool(value)
    return previous


def vector_threshold() -> int:
    """Current frontier-size threshold for the vectorized level kernels."""
    return _vec_threshold


def set_vector_threshold(value: int) -> int:
    """Set the density-switch threshold; returns the previous value.

    ``0`` forces every level-slice down the vectorized kernel; a huge value
    forces the scalar loop.  The differential fuzz suite toggles this to
    assert both paths produce byte-identical reports.
    """
    global _vec_threshold
    previous = _vec_threshold
    _vec_threshold = max(0, int(value))
    return previous


class _Frontier:
    """Preallocated frontier scratch: a stamped seen mask + per-level buckets.

    Slot ``k < num_levels`` holds level ``k``'s frontier; one extra last
    slot holds launch points (flops, input ports), which levelization puts
    at level 0 beside the combinational cells they drive — the forward
    sweep runs the source slot before level 0, the backward sweep after it.
    Scalar pushes append plain ints to ``buckets``, vectorized pushes int64
    arrays to ``chunks``.  A cell is seen in the current pass when its
    ``seen`` entry equals ``stamp`` (``seen_buf`` for the scalar loops,
    ``seen`` for the kernels); ``reset()`` starts a new pass by bumping the
    stamp, so it costs nothing however large the last frontier was.  The
    buckets need no clearing because every sweep drains each slot it
    visits, and it visits them all.
    """

    __slots__ = ("seen_buf", "seen", "stamp", "buckets", "chunks")

    def __init__(self, num_levels: int, n: int) -> None:
        self.seen_buf, self.seen = buffer_backed(np.zeros(n, dtype=np.int64))
        self.stamp = 0
        self.buckets: List[List[int]] = [[] for _ in range(num_levels + 1)]
        self.chunks: List[List[np.ndarray]] = [[] for _ in range(num_levels + 1)]

    def reset(self) -> int:
        """Start a new pass; returns its stamp."""
        self.stamp += 1
        return self.stamp


def _batch_array(cells: List[int], chunks: List[np.ndarray]) -> np.ndarray:
    """One slot's frontier as a single int64 array (scalar pushes first)."""
    if cells:
        chunks = [np.array(cells, dtype=np.int64), *chunks]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _bucket_by_level(
    level_of: np.ndarray, cells: np.ndarray, chunks: List[List[np.ndarray]]
) -> None:
    """Append ``cells`` to their levels' chunk lists (one stable argsort)."""
    levels = level_of[cells]
    order = np.argsort(levels, kind="stable")
    cells = cells[order]
    levels = levels[order]
    uniq, starts = np.unique(levels, return_index=True)
    bounds = np.append(starts, cells.size)
    for i, lv in enumerate(uniq.tolist()):
        chunks[lv].append(cells[bounds[i] : bounds[i + 1]])


@dataclass
class IncrementalState:
    """The analyzer's cached analysis in array form.

    The cached timing vectors are the canonical state both kernel paths
    read and write in place.  Each is the view of the ``array.array`` kept
    under its name in ``buffers`` (:func:`~repro.timing.sta.buffer_backed`):
    the scalar loops index the buffer, the vector kernels and report
    assembly use the view.  Topology, levels and delay coefficients are
    *not* mirrored — both paths read the compiled buffers or views, so a
    ``notify_resize`` coefficient patch is immediately visible.  Reports are
    assembled as fresh copies, so a caller-held
    :class:`~repro.timing.sta.TimingReport` never changes retroactively.
    """

    compiled: CompiledTiming
    period: float
    num_levels: int
    # Cached analysis state (the "last report", unpacked):
    clock_arrival: np.ndarray  # cached per-cell clock arrival
    arrival: np.ndarray  # cell output arrival
    slew: np.ndarray  # cell output slew
    ep_arrival: np.ndarray  # endpoint data arrival
    ep_required: np.ndarray  # endpoint required time
    margin_vec: np.ndarray  # last applied margins per endpoint position
    required_true: np.ndarray  # true backward required
    #: Margin-aware required view; ``None`` while margins are all zero (the
    #: full engine aliases the true view then, and so do we).
    required_eff: Optional[np.ndarray]
    #: Copy of the ``clock.arrivals`` dict the cached clock vector was last
    #: synced to.  The clock diff runs only when the live dict differs from
    #: it (one dict compare, exact for any un-notified write or delete), and
    #: then only over the two dicts' keys: a flop in neither has a zero
    #: cached arrival and a zero live one.
    clock_synced: Dict[int, float] = field(default_factory=dict)
    #: Endpoint positions with a non-zero cached margin (keeps the margin
    #: diff O(#margined)).
    margined: Set[int] = field(default_factory=set)
    #: Cells dirtied by notify_* since the last analysis.
    pending: Set[int] = field(default_factory=set)
    #: Backward-pass seeds that forward-only probe analyses left for the
    #: next ordinary analysis: cells and endpoint positions.
    deferred_cells: List[int] = field(default_factory=list)
    deferred_eps: List[int] = field(default_factory=list)
    #: The open probe's undo log (``None`` outside a probe).
    journal: Optional["Journal"] = None
    #: Preallocated frontier scratch, shared by the forward and backward
    #: sweeps of one analysis (reset between passes).
    scratch: Optional[_Frontier] = None
    #: Names the cached values: a new, never used value on every analysis,
    #: the opening one again after a journaled rollback.  A
    #: :class:`~repro.timing.sta.ProbeReport` reads its views only while
    #: it is unchanged.
    generation: int = field(default_factory=lambda: next(_generations))
    #: Storage of every vector above, keyed by attribute name.
    buffers: Dict[str, array.array] = field(default_factory=dict, repr=False)

    def set_required_eff(self, values: Optional[np.ndarray]) -> None:
        """Install a buffer-backed copy of the margin-aware view, or drop it."""
        if values is None:
            self.required_eff = None
            self.buffers.pop("required_eff", None)
        else:
            self.buffers["required_eff"], self.required_eff = buffer_backed(values)

    def copy(self, compiled: CompiledTiming) -> "IncrementalState":
        """An independent copy bound to ``compiled`` (a copy of ours).

        Every buffer is copied and its view rebuilt; the sets, the synced
        clock and the deferred seeds are copied too (all empty at a begin
        state).  Neither an open probe nor the frontier scratch is shared:
        the copy builds its own scratch on its first incremental analysis.
        """
        buffers = {name: buf[:] for name, buf in self.buffers.items()}
        views = {
            name: buffer_view(buf, getattr(self, name).shape)
            for name, buf in buffers.items()
        }
        views.setdefault("required_eff", None)
        return IncrementalState(
            compiled=compiled,
            period=self.period,
            num_levels=self.num_levels,
            clock_synced=dict(self.clock_synced),
            margined=set(self.margined),
            pending=set(self.pending),
            deferred_cells=list(self.deferred_cells),
            deferred_eps=list(self.deferred_eps),
            buffers=buffers,
            **views,
        )


def build_state(
    compiled: CompiledTiming,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
) -> Tuple[TimingReport, IncrementalState]:
    """Run the full engine once and capture its state for future increments."""
    report = analyze(compiled, clock, margins)
    n = compiled.fanin_idx.shape[0]

    clock_arrival = np.zeros(n)
    for f, value in clock.arrivals.items():
        f = int(f)
        if 0 <= f < n and compiled.is_flop[f]:
            clock_arrival[f] = value

    if report.margins.any():
        # Recompute the margin-aware backward view with the exact same
        # function and inputs the full engine used, so the cached values are
        # bitwise identical to what the report's margined view was built
        # from (it is not recoverable from the report where it is +inf).
        required_eff: Optional[np.ndarray] = _backward_required(
            compiled, report.cell_slew, report.required - report.margins
        )
    else:
        required_eff = None

    # buffer_backed copies, so the state never aliases the returned report.
    buffers: Dict[str, array.array] = {}

    def keep(name: str, values: np.ndarray) -> np.ndarray:
        buffers[name], view = buffer_backed(values)
        return view

    state = IncrementalState(
        compiled=compiled,
        period=clock.period,
        num_levels=len(compiled.levels),
        clock_arrival=keep("clock_arrival", clock_arrival),
        arrival=keep("arrival", report.cell_arrival),
        slew=keep("slew", report.cell_slew),
        ep_arrival=keep("ep_arrival", report.arrival),
        ep_required=keep("ep_required", report.required),
        margin_vec=keep("margin_vec", report.margins),
        required_true=keep("required_true", report.cell_required),
        required_eff=None,
        clock_synced=dict(clock.arrivals),
        margined=set(np.nonzero(report.margins)[0].tolist()),
        buffers=buffers,
    )
    state.set_required_eff(required_eff)
    return report, state


class Journal:
    """Undo log of one open probe (:meth:`TimingAnalyzer.open_probe`).

    While it is open, :meth:`TimingAnalyzer.notify_resize` logs the compiled
    values each resize patch overwrites (:meth:`log_resize`), and each
    analysis logs the timing values it overwrites: ``(cell, old arrival)``
    from the scalar loop and two arrays per vectorized chunk in
    ``arrivals``, ``(cell, old slew)`` per re-slewed cell in ``slews``, and
    ``(position, old arrival)`` per endpoint in ``eps``.  The
    pending set, the deferred-seed list lengths and the state's generation
    at open are kept too.  Once the caller has undone the move in the
    netlist, :meth:`undo_resizes` puts the compiled values back and
    :func:`rollback` the timing state, in O(touched cells), with no second
    patch and no re-propagation.

    ``exact`` drops to ``False`` once the probe changes something the log
    does not cover: a clock or margin change, or an analysis that took
    the full path (or opened on no state).  Rolling such a probe back
    restores the compiled values only; the cells the undone resizes
    dirtied re-propagate on the next analysis instead.  Under shadow
    check, ``snapshot`` holds copies of the state's and the compiled
    view's buffers at open, for :func:`rollback` to compare.
    """

    __slots__ = (
        "state",
        "compiled",
        "resizes",
        "arrivals",
        "slews",
        "eps",
        "pending",
        "deferred",
        "generation",
        "exact",
        "snapshot",
    )

    def __init__(
        self, state: Optional[IncrementalState], compiled: Optional[CompiledTiming]
    ) -> None:
        self.state = state
        #: The compiled view the probe opened on; a resize of any other one
        #: logs its cell only (see ``TimingAnalyzer.rollback_probe``).
        self.compiled = compiled
        self.resizes: List[tuple] = []
        self.arrivals: List[tuple] = []
        self.slews: List[Tuple[int, float]] = []
        self.eps: List[Tuple[int, float]] = []
        self.exact = state is not None
        self.snapshot: Optional[Tuple[Dict[str, array.array], ...]] = None
        if state is None:
            return
        self.pending = set(state.pending)
        self.generation = state.generation
        self.deferred = (len(state.deferred_cells), len(state.deferred_eps))
        if _check:
            self.snapshot = tuple(
                {name: buf[:] for name, buf in owner.buffers.items()}
                for owner in (state, state.compiled)
            )
        state.journal = self

    def log_resize(
        self, compiled: CompiledTiming, cell: int, drivers: Sequence[Tuple[int, int]]
    ) -> None:
        """Log the values a resize patch of ``cell`` is about to overwrite in
        ``compiled``: its :data:`~repro.timing.sta.RESIZED_FIELDS` and each
        driver's ``sink_cap`` and ``load_cap`` (``drivers`` as in
        ``Topology.fanin``).  Of a view the probe did not open on, only the
        cell is logged."""
        if compiled is not self.compiled:
            self.resizes.append((cell, None, None))
            return
        cb = compiled.buffers
        sink_cap = cb["sink_cap"]
        load_cap = cb["load_cap"]
        self.resizes.append(
            (
                cell,
                [cb[name][cell] for name in RESIZED_FIELDS],
                [(d, sink_cap[d], load_cap[d]) for d, _p in drivers],
            )
        )

    def undo_resizes(self) -> Set[int]:
        """Put back every compiled value the logged resizes overwrote in the
        view the probe opened on, newest first; returns the cells those
        resizes dirtied."""
        cb = self.compiled.buffers
        fields = [cb[name] for name in RESIZED_FIELDS]
        sink_cap = cb["sink_cap"]
        load_cap = cb["load_cap"]
        dirtied: Set[int] = set()
        for cell, old, loads in reversed(self.resizes):
            for buf, value in zip(fields, old):
                buf[cell] = value
            for d, old_sink, old_load in reversed(loads):
                sink_cap[d] = old_sink
                load_cap[d] = old_load
                dirtied.add(d)
            dirtied.add(cell)
        return dirtied

    def close(self) -> None:
        """Detach from the state: later analyses log nothing."""
        if self.state is not None and self.state.journal is self:
            self.state.journal = None


def rollback(journal: Journal) -> None:
    """Undo an exact probe's analyses from its closed ``journal``.

    The caller has already undone the move (``resize_cell`` back, then
    :meth:`Journal.undo_resizes`), so restoring the logs in reverse, the
    pending set, the deferred seeds and the generation returns the state
    to the probe's opening, byte for byte, and makes the reports of that
    opening readable again.
    """
    state = journal.state
    sb = state.buffers
    arrival = sb["arrival"]
    for cells, old in reversed(journal.arrivals):
        try:
            arrival[cells] = old
        except TypeError:  # a vectorized chunk: index and value arrays
            state.arrival[cells] = old
    slew = sb["slew"]
    for cell, old in reversed(journal.slews):
        slew[cell] = old
    ep_arrival = sb["ep_arrival"]
    for pos, old in reversed(journal.eps):
        ep_arrival[pos] = old
    state.pending = journal.pending
    state.generation = journal.generation
    n_cells, n_eps = journal.deferred
    del state.deferred_cells[n_cells:]
    del state.deferred_eps[n_eps:]
    if journal.snapshot is not None:
        opened_state, opened_compiled = journal.snapshot
        drift = [f"state.{name}" for name in buffer_mismatches(sb, opened_state)]
        drift += [
            f"compiled.{name}"
            for name in buffer_mismatches(state.compiled.buffers, opened_compiled)
        ]
        if drift:
            raise RuntimeError(
                f"probe rollback drift: {', '.join(drift)} differ from the "
                "buffers at probe open — the journal missed a write"
            )


class _Counters:
    """Per-analysis kernel-dispatch tally (flushed once into obs counters)."""

    __slots__ = ("vectorized", "scalar", "frontier")

    def __init__(self) -> None:
        self.vectorized = 0
        self.scalar = 0
        self.frontier = 0


def _flush_counters(counters: _Counters) -> None:
    if counters.vectorized:
        obs.incr("sta.vectorized_levels", counters.vectorized)
    if counters.scalar:
        obs.incr("sta.scalar_levels", counters.scalar)


def incremental_analyze(
    state: IncrementalState,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
    forward_only: bool = False,
) -> Tuple[TimingReport, int]:
    """Re-propagate from the dirty set; returns ``(report, frontier_cells)``.

    The caller (:class:`~repro.timing.sta.TimingAnalyzer`) guarantees the
    compiled view is current (mutation-version guard) and the clock period
    matches the cached one; everything else — pending dirty cells, moved
    clock arrivals, changed margins — is discovered and handled here.

    ``forward_only`` (a probe analysis; the caller guarantees no margins
    are given or cached) stops after the endpoint update: the backward
    seeds join the state's deferred seeds and the result is a
    :class:`~repro.timing.sta.ProbeReport`.  An ordinary analysis sweeps
    the deferred seeds together with its own.
    """
    compiled = state.compiled
    cb = compiled.buffers
    sb = state.buffers
    is_flop = cb["is_flop"]
    is_src = cb["is_src"]
    level_of = cb["level_of"]
    ep_pos = cb["ep_pos"]
    eps = cb["endpoint_cells"]
    ca = sb["clock_arrival"]
    src_slot = state.num_levels

    if _check:
        check_topology(compiled)
    state.generation = next(_generations)
    dirty = state.pending
    state.pending = set()

    fr = state.scratch
    if fr is None:
        fr = state.scratch = _Frontier(state.num_levels, state.arrival.shape[0])
    stamp = fr.reset()
    counters = _Counters()

    # Frontier cells are bucketed by topological level (sources in their
    # own slot); the sweep touches only slots that hold work and each cell
    # is recomputed at most once.  ``dirty`` is a set: no cell twice.
    seen = fr.seen_buf
    buckets = fr.buckets
    for c in dirty:
        seen[c] = stamp
        buckets[src_slot if is_src[c] else level_of[c]].append(c)
    ep_arr_dirty: Set[int] = set()
    ep_req_dirty: List[int] = []

    # ---- clock diff: the stale-skew safety net ----------------------- #
    # notify_skew() marks moved flops eagerly, but analyze() never trusts
    # it alone — a flop whose arrival differs from the cached vector is
    # dirtied regardless of whether anyone notified.  The diff runs only
    # when the clock's arrival dict differs in content from the copy the
    # state last synced to (one dict compare, so an un-notified write,
    # delete or replaced dict is still caught).  Only flops keyed in the
    # live dict or in that copy can differ, so the diff itself is
    # O(#skewed), not O(#flops).
    arrivals = clock.arrivals
    if arrivals != state.clock_synced:
        journal = state.journal
        if journal is not None:
            journal.exact = False  # clock writes are not journaled
        for f in arrivals.keys() | state.clock_synced.keys():
            if not is_flop[f]:
                continue
            value = arrivals.get(f, 0.0)
            if value != ca[f]:
                ca[f] = value
                ep_req_dirty.append(ep_pos[f])
                if seen[f] != stamp:
                    seen[f] = stamp
                    buckets[src_slot].append(f)
        state.clock_synced = dict(arrivals)

    # ---- forward re-propagation -------------------------------------- #
    slew_cells = _forward_sweep(state, fr, counters, dirty, ep_arr_dirty)

    # ---- endpoint checks --------------------------------------------- #
    ep_required = sb["ep_required"]
    if ep_arr_dirty:
        dirty_eps = list(ep_arr_dirty)
        if state.journal is not None:
            ep_arrival = sb["ep_arrival"]
            state.journal.eps.extend([(pos, ep_arrival[pos]) for pos in dirty_eps])
        _recompute_ep_arrival(state, dirty_eps)

    ep_req_changed: List[int] = []
    period = state.period
    setup = cb["setup"]
    for pos in ep_req_dirty:
        e = eps[pos]
        if is_flop[e]:
            new_req = period + ca[e] - setup[e]
        else:
            new_req = period
        if new_req != ep_required[pos]:
            ep_req_changed.append(pos)
            ep_required[pos] = new_req

    # ---- backward seeds ---------------------------------------------- #
    # Any cell whose slew changed (its own gate-delay contribution to its
    # required time moved), the fan-in of re-coefficiented cells (their
    # gate delay as seen from upstream moved), and the fan-in of endpoints
    # whose required seed moved.
    cell_seeds = slew_cells
    if dirty:
        fanin = compiled.topology.fanin
        for c in dirty:
            for u, _p in fanin[c]:
                cell_seeds.append(u)

    if forward_only:
        # A probe reads no required time: leave the seeds for the next
        # ordinary analysis, which sweeps them all in one backward pass.
        state.deferred_cells.extend(cell_seeds)
        state.deferred_eps.extend(ep_req_changed)
        _flush_counters(counters)
        ep_arr = state.ep_arrival.copy()
        ep_req = state.ep_required.copy()
        endpoints = compiled.endpoint_cells.view()
        endpoints.flags.writeable = False
        report = ProbeReport(
            endpoints=endpoints,
            arrival=ep_arr,
            required=ep_req,
            slack=ep_req - ep_arr,
            margins=state.margin_vec.copy(),
            state=state,
        )
        return report, counters.frontier
    if state.deferred_cells or state.deferred_eps:
        cell_seeds.extend(state.deferred_cells)
        ep_req_changed.extend(state.deferred_eps)
        state.deferred_cells = []
        state.deferred_eps = []

    # ---- margins diff (a view: reseeds only the eff backward pass) ---- #
    # Only endpoints named in the mapping or carrying a cached non-zero
    # margin can differ, so this too is O(#margined) rather than O(#eps).
    margin_vec = sb["margin_vec"]
    margined = state.margined
    margin_changed: List[int] = []
    if margins:
        positions = {ep_pos[e] for e in margins if ep_pos[e] >= 0}
        positions.update(margined)
        for pos in positions:
            m = float(margins.get(eps[pos], 0.0))
            if m != margin_vec[pos]:
                margin_changed.append(pos)
                margin_vec[pos] = m
            if m != 0.0:
                margined.add(pos)
            else:
                margined.discard(pos)
        any_margin = bool(margined)
    else:
        any_margin = False
        for pos in sorted(margined):
            margin_changed.append(pos)
            margin_vec[pos] = 0.0
        margined.clear()

    # ---- backward re-propagation ------------------------------------- #
    _backward_incremental(
        state,
        fr,
        counters,
        "required_true",
        (ep_required, state.ep_required),
        cell_seeds,
        ep_req_changed,
    )

    if not any_margin:
        state.set_required_eff(None)
    else:
        ep_eff_dirty = ep_req_changed + margin_changed
        if state.required_eff is None:
            # Margins just appeared: the eff view currently equals the true
            # view (which the pass above already brought up to date), so
            # only the freshly margined endpoints need re-seeding.
            state.set_required_eff(state.required_true)
            eff_cells: List[int] = []
        else:
            eff_cells = cell_seeds
        _backward_incremental(
            state,
            fr,
            counters,
            "required_eff",
            buffer_backed(state.ep_required - state.margin_vec),
            eff_cells,
            ep_eff_dirty,
        )

    _flush_counters(counters)

    # ---- assemble the report (fresh arrays: the cache keeps mutating) - #
    arr = state.arrival.copy()
    required_true = state.required_true.copy()
    worst_true = np.where(
        np.isfinite(required_true), required_true - arr, np.inf
    )
    if state.required_eff is None:
        worst_eff = worst_true.copy()
    else:
        required_eff = state.required_eff.copy()
        worst_eff = np.where(
            np.isfinite(required_eff), required_eff - arr, np.inf
        )
    ep_arr = state.ep_arrival.copy()
    ep_req = state.ep_required.copy()
    report = TimingReport(
        endpoints=compiled.endpoint_cells.copy(),
        arrival=ep_arr,
        required=ep_req,
        slack=ep_req - ep_arr,
        margins=state.margin_vec.copy(),
        cell_arrival=arr,
        cell_slew=state.slew.copy(),
        cell_required=required_true,
        cell_worst_slack=worst_true,
        cell_worst_slack_margined=worst_eff,
    )
    return report, counters.frontier


# ---------------------------------------------------------------------- #
# Forward sweep: scalar loop + vectorized kernel per level-slice
# ---------------------------------------------------------------------- #
def _forward_sweep(
    state: IncrementalState,
    fr: _Frontier,
    counters: _Counters,
    dirty: Set[int],
    ep_arr_dirty: Set[int],
) -> List[int]:
    """Level-ordered forward re-propagation of the seeded frontier; returns
    the cells whose slew moved.

    A cell's output slew is ``slew_intr + slew_load·load_cap`` of the cell
    itself, and only :meth:`~repro.timing.sta.TimingAnalyzer.notify_resize`
    patches those coefficients, each time dirtying the cell.  So only the
    ``dirty`` cells recompute, compare and journal a slew, up front (their
    sinks, which read it, sit in later slots); every frontier cell then
    recomputes its arrival only.  A cell whose slew moved rewrites its
    arrival and pushes its fan-out even when the arrival moved by no more
    than :data:`PRUNE_TOL`, as one ``(arrival, slew)`` prune of both would.

    The source slot runs first, then levels 0, 1, ...  A slot's batch at or
    above the density threshold takes the vectorized kernels; a smaller one
    runs the scalar loop below, which reads and writes the buffers bound
    here once and pushes each moved cell's fan-out inline.
    """
    compiled = state.compiled
    cb = compiled.buffers
    sb = state.buffers
    topology = compiled.topology
    fanin = topology.fanin
    fanout = topology.fanout
    ep_sinks = topology.ep_sinks
    arrival = sb["arrival"]
    slew = sb["slew"]
    ca = sb["clock_arrival"]
    fanin_wire = cb["fanin_wire_delay"]
    intrinsic = cb["intrinsic"]
    slew_sens = cb["slew_sens"]
    drive_res = cb["drive_res"]
    load_cap = cb["load_cap"]
    slew_intr = cb["slew_intr"]
    slew_load = cb["slew_load"]
    clk_to_q = cb["clk_to_q"]
    is_flop = cb["is_flop"]
    is_outport = cb["is_outport"]
    seen = fr.seen_buf
    stamp = fr.stamp
    buckets = fr.buckets
    chunks = fr.chunks
    threshold = _vec_threshold
    tol = PRUNE_TOL
    neg_inf = _NEG_INF
    src_slot = state.num_levels
    ep_arrival = sb["ep_arrival"]
    journal = state.journal
    log = ep_log = None
    if journal is not None:
        log = journal.arrivals
        ep_log = journal.eps

    slewed: List[int] = []
    for c in dirty:
        new_slew = slew_intr[c] + slew_load[c] * load_cap[c]
        old_slew = slew[c]
        ds = new_slew - old_slew
        if ds > tol or ds < -tol:
            if journal is not None:
                journal.slews.append((c, old_slew))
            slew[c] = new_slew
            slewed.append(c)
    forced = set(slewed)

    for k in (src_slot, *range(src_slot)):
        cells = buckets[k]
        level_chunks = chunks[k]
        if not cells and not level_chunks:
            continue
        buckets[k] = []
        size = len(cells)
        if level_chunks:
            chunks[k] = []
            for chunk in level_chunks:
                size += chunk.size
        counters.frontier += size
        sources = k == src_slot
        if size >= threshold:
            counters.vectorized += 1
            batch = _batch_array(cells, level_chunks)
            if sources:
                new_arr = _forward_src_vec(state, batch)
            else:
                new_arr = _forward_comb_vec(state, batch)
            _forward_commit_vec(state, fr, batch, new_arr, forced, ep_arr_dirty)
            continue
        counters.scalar += 1
        for chunk in level_chunks:
            cells.extend(chunk.tolist())
        for c in cells:
            if sources:
                self_delay = drive_res[c] * load_cap[c]
                if is_flop[c]:
                    new_arr = ca[c] + clk_to_q[c] + self_delay
                else:
                    new_arr = self_delay
            else:
                best = neg_inf
                if is_outport[c]:
                    # Output ports consume only: no gate delay, no drive.
                    for u, p in fanin[c]:
                        v = arrival[u] + fanin_wire[p]
                        if v > best:
                            best = v
                    new_arr = best + 0.0
                else:
                    ic = intrinsic[c]
                    ss = slew_sens[c]
                    for u, p in fanin[c]:
                        v = (arrival[u] + fanin_wire[p]) + (ic + ss * slew[u])
                        if v > best:
                            best = v
                    new_arr = best + drive_res[c] * load_cap[c]
            old_arr = arrival[c]
            da = new_arr - old_arr
            if not (da > tol or da < -tol) and c not in forced:
                continue
            if log is not None:
                log.append((c, old_arr))
            arrival[c] = new_arr
            for pos, p in ep_sinks[c]:
                if p < 0:  # several pins: their max is taken after the sweep
                    ep_arr_dirty.add(pos)
                    continue
                # The endpoint's only pin: its arrival is the endpoint's.
                if log is not None:
                    ep_log.append((pos, ep_arrival[pos]))
                ep_arrival[pos] = new_arr + fanin_wire[p]
            # Flop sinks capture only (their Q arrival never depends on D),
            # so the topology leaves them out; every other sink — comb
            # cells and output ports — re-propagates.
            for s, level in fanout[c]:
                if seen[s] != stamp:
                    seen[s] = stamp
                    buckets[level].append(s)
    return slewed


def _forward_push_vec(
    state: IncrementalState,
    fr: _Frontier,
    changed: np.ndarray,
    ep_arr_dirty: Set[int],
) -> None:
    """Vectorized fanout expansion: gather CSR slices of all changed cells."""
    compiled = state.compiled
    edges = csr_edge_indices(compiled.fanout_indptr, changed)
    if edges.size == 0:
        return
    sinks = compiled.fanout_indices[edges]
    ep_sinks = sinks[compiled.is_ep[sinks]]
    if ep_sinks.size:
        ep_arr_dirty.update(compiled.ep_pos[ep_sinks].tolist())
    push = sinks[~compiled.is_flop[sinks]]
    if push.size == 0:
        return
    fresh = push[fr.seen[push] != fr.stamp]
    if fresh.size == 0:
        return
    fresh = np.unique(fresh)
    fr.seen[fresh] = fr.stamp
    _bucket_by_level(compiled.level_of, fresh, fr.chunks)


def _forward_src_vec(state: IncrementalState, srcs: np.ndarray) -> np.ndarray:
    compiled = state.compiled
    self_delay = compiled.drive_res[srcs] * compiled.load_cap[srcs]
    return np.where(
        compiled.is_flop[srcs],
        state.clock_arrival[srcs] + compiled.clk_to_q[srcs] + self_delay,
        self_delay,
    )


def _forward_comb_vec(state: IncrementalState, combs: np.ndarray) -> np.ndarray:
    compiled = state.compiled
    arrival = state.arrival
    slew = state.slew
    drivers = compiled.fanin_idx[combs]  # (m, pins)
    valid = drivers != _NO_DRIVER
    drv = np.where(valid, drivers, 0)
    wire = compiled.fanin_wire_delay[combs]
    in_arr = arrival[drv] + wire
    outport = compiled.is_outport[combs]
    gate = (
        compiled.intrinsic[combs][:, None]
        + compiled.slew_sens[combs][:, None] * slew[drv]
    )
    per_pin = np.where(
        valid, np.where(outport[:, None], in_arr, in_arr + gate), -np.inf
    )
    best = per_pin.max(axis=1)
    return best + np.where(
        outport, 0.0, compiled.drive_res[combs] * compiled.load_cap[combs]
    )


def _forward_commit_vec(
    state: IncrementalState,
    fr: _Frontier,
    cells: np.ndarray,
    new_arr: np.ndarray,
    forced: Set[int],
    ep_arr_dirty: Set[int],
) -> None:
    arrival = state.arrival
    da = new_arr - arrival[cells]
    moved = (da > PRUNE_TOL) | (da < -PRUNE_TOL)
    if forced:
        moved |= np.isin(cells, list(forced))
    if not moved.any():
        return
    changed = cells[moved]
    if state.journal is not None:
        state.journal.arrivals.append((changed, arrival[changed]))
    arrival[changed] = new_arr[moved]
    _forward_push_vec(state, fr, changed, ep_arr_dirty)


def _recompute_ep_arrival(
    state: IncrementalState, positions: Sequence[int]
) -> None:
    """Recompute endpoint data arrivals for the given positions."""
    compiled = state.compiled
    if len(positions) >= max(_vec_threshold, 1):
        eps = compiled.endpoint_cells
        pos = np.asarray(positions, dtype=np.int64)
        e = eps[pos]
        rows = compiled.fanin_idx[e]
        valid = rows != _NO_DRIVER
        drv = np.where(valid, rows, 0)
        pin_arr = np.where(
            valid, state.arrival[drv] + compiled.fanin_wire_delay[e], -np.inf
        )
        best = pin_arr.max(axis=1)
        best[~valid.any(axis=1)] = 0.0
        state.ep_arrival[pos] = best
        return
    cb = compiled.buffers
    eps = cb["endpoint_cells"]
    fanin = compiled.topology.fanin
    fanin_wire = cb["fanin_wire_delay"]
    arrival = state.buffers["arrival"]
    ep_arrival = state.buffers["ep_arrival"]
    for pos in positions:
        pins = fanin[eps[pos]]
        if not pins:  # unconnected endpoint
            ep_arrival[pos] = 0.0
            continue
        best = _NEG_INF
        for u, p in pins:
            v = arrival[u] + fanin_wire[p]
            if v > best:
                best = v
        ep_arrival[pos] = best


# ---------------------------------------------------------------------- #
# Backward sweep: scalar loop + vectorized kernel per level-slice
# ---------------------------------------------------------------------- #
def _backward_incremental(
    state: IncrementalState,
    fr: _Frontier,
    counters: _Counters,
    name: str,
    ep_seed: Tuple[array.array, np.ndarray],
    seed_cells: List[int],
    ep_dirty_pos: Iterable[int],
) -> None:
    """Pruned reverse-level sweep updating the required view ``name`` in place.

    ``ep_seed`` is the ``(buffer, view)`` pair of this view's per-endpoint
    required seed (true: ``ep_required``; margin-aware: ``ep_required −
    margins``); ``seed_cells`` are cells to recompute up front, duplicates
    fine, and ``ep_dirty_pos`` endpoint positions whose seed moved (their
    fan-in joins the frontier).
    """
    compiled = state.compiled
    cb = compiled.buffers
    required = state.buffers[name]
    required_view = getattr(state, name)
    ep_seed_buf, ep_seed_view = ep_seed
    slew = state.buffers["slew"]
    fanin = compiled.topology.fanin
    intrinsic = cb["intrinsic"]
    slew_sens = cb["slew_sens"]
    drive_res = cb["drive_res"]
    load_cap = cb["load_cap"]
    is_ep = cb["is_ep"]
    is_comb = cb["is_comb"]
    is_src = cb["is_src"]
    ep_pos = cb["ep_pos"]
    eps = cb["endpoint_cells"]
    level_of = cb["level_of"]
    indptr = cb["fanout_indptr"]
    sinks = cb["fanout_indices"]
    fanout_wire = cb["fanout_wire_delay"]
    is_src_view = compiled.is_src
    stamp = fr.reset()
    seen = fr.seen_buf
    seen_view = fr.seen
    buckets = fr.buckets
    chunks = fr.chunks
    threshold = _vec_threshold
    src_slot = state.num_levels

    # Sources (flops/inports) sit at level 0 alongside the comb cells they
    # drive, so a same-level push would arrive mid-sweep; since sources
    # never push further, they wait in the source slot, swept last (mirror
    # of the forward pass' source-first order).
    def push_chunk(cells: np.ndarray) -> None:
        fresh = cells[seen_view[cells] != stamp]
        if fresh.size == 0:
            return
        fresh = np.unique(fresh)
        seen_view[fresh] = stamp
        src_mask = is_src_view[fresh]
        if src_mask.any():
            chunks[src_slot].append(fresh[src_mask])
            fresh = fresh[~src_mask]
            if fresh.size == 0:
                return
        _bucket_by_level(compiled.level_of, fresh, chunks)

    for u in seed_cells:
        if seen[u] != stamp:
            seen[u] = stamp
            buckets[src_slot if is_src[u] else level_of[u]].append(u)
    for pos in ep_dirty_pos:
        for v, _p in fanin[eps[pos]]:
            if seen[v] == stamp:
                continue
            seen[v] = stamp
            buckets[src_slot if is_src[v] else level_of[v]].append(v)

    for k in (*range(src_slot - 1, -1, -1), src_slot):
        cells = buckets[k]
        level_chunks = chunks[k]
        if not cells and not level_chunks:
            continue
        # Pushes land strictly below level k (or in the source slot),
        # never behind the sweep — the slot can be drained as-is.
        buckets[k] = []
        size = len(cells)
        if level_chunks:
            chunks[k] = []
            for chunk in level_chunks:
                size += chunk.size
        counters.frontier += size
        # Source requireds are terminal: written unpruned, never pushed
        # (the full pass masks sources out of the reverse sweep).
        terminal = k == src_slot
        if size >= threshold:
            counters.vectorized += 1
            batch = _batch_array(cells, level_chunks)
            best = _backward_recompute_vec(state, required_view, ep_seed_view, batch)
            if terminal:
                required_view[batch] = best
            else:
                _backward_commit_vec(state, required_view, batch, best, push_chunk)
            continue
        counters.scalar += 1
        for chunk in level_chunks:
            cells.extend(chunk.tolist())
        for u in cells:
            best = _POS_INF
            su = slew[u]
            for j in range(indptr[u], indptr[u + 1]):
                s = sinks[j]
                if is_ep[s]:
                    contrib = ep_seed_buf[ep_pos[s]] - fanout_wire[j]
                else:
                    contrib = (
                        required[s]
                        - (intrinsic[s] + slew_sens[s] * su + drive_res[s] * load_cap[s])
                        - fanout_wire[j]
                    )
                if contrib < best:
                    best = contrib
            if terminal:
                required[u] = best
                continue
            old = required[u]
            if best == old:
                continue
            d = best - old
            if -PRUNE_TOL <= d <= PRUNE_TOL:
                continue
            required[u] = best
            # Only combinational cells propagate required times upstream; a
            # changed flop/port required is terminal (the full pass masks
            # them out of the reverse sweep the same way).
            if is_comb[u]:
                for v, _p in fanin[u]:
                    if seen[v] == stamp:
                        continue
                    seen[v] = stamp
                    if is_src[v]:
                        buckets[src_slot].append(v)
                    else:
                        buckets[level_of[v]].append(v)


def _backward_recompute_vec(
    state: IncrementalState,
    required: np.ndarray,
    ep_seed: np.ndarray,
    cells: np.ndarray,
) -> np.ndarray:
    """Batched min-over-fanout recompute (CSR gather + segment reduction)."""
    compiled = state.compiled
    indptr = compiled.fanout_indptr
    counts = indptr[cells + 1] - indptr[cells]
    best = np.full(cells.size, np.inf)
    edges = csr_edge_indices(indptr, cells)
    if edges.size == 0:
        return best
    sinks = compiled.fanout_indices[edges]
    wire = compiled.fanout_wire_delay[edges]
    su = np.repeat(state.slew[cells], counts)
    ep_mask = compiled.is_ep[sinks]
    gate = (
        compiled.intrinsic[sinks]
        + compiled.slew_sens[sinks] * su
        + compiled.drive_res[sinks] * compiled.load_cap[sinks]
    )
    # required[s] of a non-endpoint sink is always finite (every comb cell
    # reaches an endpoint in a validated netlist), so no inf−inf here; the
    # endpoint branch is selected before it could matter anyway.
    normal = required[sinks] - gate - wire
    ep_contrib = ep_seed[np.where(ep_mask, compiled.ep_pos[sinks], 0)] - wire
    contrib = np.where(ep_mask, ep_contrib, normal)
    nz = counts > 0
    seg_starts = np.cumsum(counts) - counts
    best[nz] = np.minimum.reduceat(contrib, seg_starts[nz])
    return best


def _backward_commit_vec(
    state: IncrementalState,
    required: np.ndarray,
    cells: np.ndarray,
    best: np.ndarray,
    push_chunk,
) -> None:
    compiled = state.compiled
    old = required[cells]
    # Equality first (mirrors the scalar prune order): both-infinite
    # entries compare equal and never reach the subtraction, so no
    # inf − inf NaN can arise in the delta.
    neq_idx = np.nonzero(best != old)[0]
    if neq_idx.size == 0:
        return
    d = best[neq_idx] - old[neq_idx]
    keep = (d > PRUNE_TOL) | (d < -PRUNE_TOL)
    if not keep.any():
        return
    changed = cells[neq_idx[keep]]
    required[changed] = best[neq_idx[keep]]
    comb_changed = changed[compiled.is_comb[changed]]
    if comb_changed.size == 0:
        return
    rows = compiled.fanin_idx[comb_changed]
    drivers = rows[rows != _NO_DRIVER]
    if drivers.size:
        push_chunk(drivers)


# ---------------------------------------------------------------------- #
# Differential shadow check (REPRO_STA_CHECK=1)
# ---------------------------------------------------------------------- #
#: Topology field -> the compiled buffers it is derived from.
_TOPOLOGY_SOURCES = {
    "fanin": "fanin_idx",
    "fanout": "fanout_indptr/fanout_indices, is_flop, level_of",
    "ep_sinks": "fanout_indptr/fanout_indices/fanout_pins, fanin_idx, is_ep, ep_pos",
}


def check_topology(compiled: CompiledTiming) -> None:
    """Raise ``RuntimeError`` naming the first cell and field where
    ``compiled.topology`` differs from one derived afresh from its buffers."""
    ours = compiled.topology
    fresh = Topology().fill(compiled)
    for name, source in _TOPOLOGY_SOURCES.items():
        held = getattr(ours, name)
        derived = getattr(fresh, name)
        if held == derived:
            continue
        cell = next(
            (c for c, (a, b) in enumerate(zip(held, derived)) if a != b),
            min(len(held), len(derived)),
        )
        label = (
            repr(compiled.netlist.cells[cell].name)
            if compiled.netlist is not None and cell < compiled.netlist.num_cells
            else str(cell)
        )
        raise RuntimeError(
            f"topology drift at cell {label} (index {cell}): its {name} "
            f"differs from the compiled {source} — the shared topology "
            "outlived its compile, or a buffer was patched after it"
        )


_COMPARED_FIELDS = (
    "arrival",
    "required",
    "slack",
    "margins",
    "cell_arrival",
    "cell_slew",
    "cell_required",
    "cell_worst_slack",
    "cell_worst_slack_margined",
)

_PROBE_FIELDS = tuple(f for f in _COMPARED_FIELDS if f in ProbeReport.FIELDS)


def assert_reports_equal(
    incremental: TimingReport,
    full: TimingReport,
    atol: float = CHECK_ATOL,
) -> None:
    """Raise ``RuntimeError`` if the two reports disagree beyond ``atol``.

    A :class:`~repro.timing.sta.ProbeReport` is compared on the fields it
    carries.
    """
    if not np.array_equal(incremental.endpoints, full.endpoints):
        raise RuntimeError(
            "incremental STA drift: endpoint ordering differs from the "
            "full engine's canonical order"
        )
    mismatches: List[str] = []
    compared = (
        _PROBE_FIELDS if isinstance(incremental, ProbeReport) else _COMPARED_FIELDS
    )
    for name in compared:
        a = getattr(incremental, name)
        b = getattr(full, name)
        if not np.allclose(a, b, rtol=0.0, atol=atol):
            finite = np.isfinite(a) & np.isfinite(b)
            worst = float(np.abs(a[finite] - b[finite]).max()) if finite.any() else np.inf
            if np.any(np.isfinite(a) != np.isfinite(b)):
                worst = np.inf
            mismatches.append(f"{name} (max |Δ|={worst:.3e})")
    if mismatches:
        raise RuntimeError(
            "incremental STA drift beyond "
            f"{atol:g} in: {', '.join(mismatches)} — a dirty-set "
            "notification is missing or the pruning rule is unsound"
        )


__all__ = [
    "CHECK_ATOL",
    "DEFAULT_VEC_THRESHOLD",
    "ENV_CHECK",
    "ENV_VEC_THRESHOLD",
    "PRUNE_TOL",
    "IncrementalState",
    "Journal",
    "assert_reports_equal",
    "build_state",
    "check_enabled",
    "check_topology",
    "incremental_analyze",
    "rollback",
    "set_check",
    "set_vector_threshold",
    "vector_threshold",
]
