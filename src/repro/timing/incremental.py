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
  model's per-flop arrivals against the cached vector, so an un-notified
  skew edit can never be read stale;
* the **forward pass** seeds a frontier from the dirty cells and walks the
  topological levels in order, recomputing only frontier cells and pruning
  any cell whose ``(arrival, slew)`` pair is unchanged within
  :data:`PRUNE_TOL`;
* the **backward pass** is symmetric: endpoints whose required time or
  margin changed, cells whose slew changed and the fan-in of re-coefficiented
  cells seed a reverse frontier that walks the levels backwards with the
  same pruning rule;
* **margins stay a view**: they only reseed the margin-aware backward pass
  (``required_eff``); arrivals, slews and true required times are never
  dirtied by applying or removing them (that is why
  :meth:`TimingAnalyzer.notify_margins` is a documented no-op).

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
byte-for-byte.  Scratch (the seen mask, level buckets) is preallocated in
the state and reset in O(frontier), so repeated ``analyze()`` calls allocate
O(frontier), not O(n).

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
by the mutation-version guard), a clock-period change, the first analysis of
a corner, and ``include_hold=True`` all run the full engine and refresh the
cached state.

Shadow-check mode (``REPRO_STA_CHECK=1``) re-runs the full engine after
every incremental analysis and asserts the two reports agree within
:data:`CHECK_ATOL` — the differential harness CI runs the fuzz suite under.
"""

from __future__ import annotations

import array
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.timing.clock import ClockModel
from repro.timing.sta import (
    _NO_DRIVER,
    CompiledTiming,
    TimingReport,
    _backward_required,
    analyze,
    buffer_backed,
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
DEFAULT_VEC_THRESHOLD = 48

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
    """Preallocated frontier scratch: seen mask + per-level buckets.

    Slot ``k < num_levels`` holds level ``k``'s frontier; one extra last
    slot holds launch points (flops, input ports), which levelization puts
    at level 0 beside the combinational cells they drive — the forward
    sweep runs the source slot before level 0, the backward sweep after it.
    Scalar pushes append plain ints to ``buckets``, vectorized pushes int64
    arrays to ``chunks``.  The seen mask is one buffer-backed vector:
    ``seen_buf`` for the scalar loops, ``seen`` for the kernels.
    ``reset()`` clears only what was touched, so the per-analysis cost is
    O(frontier) even though the mask is O(n); the buckets need no clearing
    because every sweep drains each slot it visits, and it visits them all.
    """

    __slots__ = ("seen_buf", "seen", "buckets", "chunks", "touched", "touched_chunks")

    def __init__(self, num_levels: int, n: int) -> None:
        self.seen_buf, self.seen = buffer_backed(np.zeros(n, dtype=bool))
        self.buckets: List[List[int]] = [[] for _ in range(num_levels + 1)]
        self.chunks: List[List[np.ndarray]] = [[] for _ in range(num_levels + 1)]
        self.touched: List[int] = []
        self.touched_chunks: List[np.ndarray] = []

    def reset(self) -> None:
        seen_buf = self.seen_buf
        for c in self.touched:
            seen_buf[c] = 0
        self.touched.clear()
        if self.touched_chunks:
            seen = self.seen
            for chunk in self.touched_chunks:
                seen[chunk] = False
            self.touched_chunks.clear()


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
    """One corner's cached analysis in array form.

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
    #: Flops with a non-zero cached clock arrival (keeps the clock diff
    #: O(#skewed) instead of O(#flops)).
    skewed_flops: Set[int] = field(default_factory=set)
    #: Endpoint positions with a non-zero cached margin (keeps the margin
    #: diff O(#margined)).
    margined: Set[int] = field(default_factory=set)
    #: Cells dirtied by notify_* since the last analysis of this corner.
    pending: Set[int] = field(default_factory=set)
    #: Preallocated frontier scratch, shared by the forward and backward
    #: sweeps of one analysis (reset between passes).
    scratch: Optional[_Frontier] = None
    #: Storage of every vector above, keyed by attribute name.
    buffers: Dict[str, array.array] = field(default_factory=dict, repr=False)

    def set_required_eff(self, values: Optional[np.ndarray]) -> None:
        """Install a buffer-backed copy of the margin-aware view, or drop it."""
        if values is None:
            self.required_eff = None
            self.buffers.pop("required_eff", None)
        else:
            self.buffers["required_eff"], self.required_eff = buffer_backed(values)


def build_state(
    compiled: CompiledTiming,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
    include_hold: bool = False,
) -> Tuple[TimingReport, IncrementalState]:
    """Run the full engine once and capture its state for future increments."""
    report = analyze(compiled, clock, margins, include_hold=include_hold)
    n = compiled.fanin_idx.shape[0]

    clock_arrival = np.zeros(n)
    skewed: Set[int] = set()
    for f, value in clock.arrivals.items():
        f = int(f)
        if 0 <= f < n and compiled.is_flop[f]:
            clock_arrival[f] = value
            if value != 0.0:
                skewed.add(f)

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
        skewed_flops=skewed,
        margined=set(np.nonzero(report.margins)[0].tolist()),
        buffers=buffers,
    )
    state.set_required_eff(required_eff)
    return report, state


class _Counters:
    """Per-analysis kernel-dispatch tally (flushed once into obs counters)."""

    __slots__ = ("vectorized", "scalar", "frontier")

    def __init__(self) -> None:
        self.vectorized = 0
        self.scalar = 0
        self.frontier = 0


def incremental_analyze(
    state: IncrementalState,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
) -> Tuple[TimingReport, int]:
    """Re-propagate from the dirty set; returns ``(report, frontier_cells)``.

    The caller (:class:`~repro.timing.sta.TimingAnalyzer`) guarantees the
    compiled view is current (mutation-version guard) and the clock period
    matches the cached one; everything else — pending dirty cells, moved
    clock arrivals, changed margins — is discovered and handled here.
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

    dirty = state.pending
    state.pending = set()

    fr = state.scratch
    if fr is None:
        fr = state.scratch = _Frontier(state.num_levels, state.arrival.shape[0])
    else:
        fr.reset()  # clear the previous analysis' backward-pass residue
    counters = _Counters()

    # Frontier cells are bucketed by topological level (sources in their
    # own slot); the sweep touches only slots that hold work and each cell
    # is recomputed at most once.
    seen = fr.seen_buf
    buckets = fr.buckets
    touched = fr.touched
    for c in dirty:
        if not seen[c]:
            seen[c] = 1
            touched.append(c)
            buckets[src_slot if is_src[c] else level_of[c]].append(c)
    ep_arr_dirty: Set[int] = set()
    ep_req_dirty: List[int] = []

    # ---- clock diff: the stale-skew safety net ----------------------- #
    # notify_skew() marks moved flops eagerly, but analyze() never trusts
    # it alone — a flop whose arrival differs from the cached vector is
    # dirtied regardless of whether anyone notified.  Only flops present in
    # the clock's (sparse) arrival dict or with a non-zero cached value can
    # differ, so the diff is O(#skewed), not O(#flops).
    skewed = state.skewed_flops
    candidates = set(clock.arrivals)
    candidates.update(skewed)
    for f in candidates:
        if not is_flop[f]:
            continue
        value = clock.arrivals.get(f, 0.0)
        if value != ca[f]:
            ca[f] = value
            ep_req_dirty.append(ep_pos[f])
            if not seen[f]:
                seen[f] = 1
                touched.append(f)
                buckets[src_slot].append(f)
        if value != 0.0:
            skewed.add(f)
        else:
            skewed.discard(f)

    # ---- forward re-propagation -------------------------------------- #
    slew_cells: List[int] = []
    slew_chunks: List[np.ndarray] = []
    _forward_sweep(state, fr, counters, slew_cells, slew_chunks, ep_arr_dirty)

    # ---- endpoint checks --------------------------------------------- #
    ep_required = sb["ep_required"]
    if ep_arr_dirty:
        _recompute_ep_arrival(state, sorted(ep_arr_dirty))

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
    # Seeds: any cell whose slew changed (its own gate-delay contribution
    # to its required time moved), the fan-in of re-coefficiented cells
    # (their gate delay as seen from upstream moved), and the fan-in of
    # endpoints whose required seed moved.
    cell_seeds = slew_cells
    if dirty:
        fanin = cb["fanin_idx"]
        max_pins = compiled.fanin_idx.shape[1]
        for c in dirty:
            row = c * max_pins
            for u in fanin[row : row + max_pins]:
                if u >= 0:
                    cell_seeds.append(u)

    _backward_incremental(
        state,
        fr,
        counters,
        "required_true",
        (ep_required, state.ep_required),
        cell_seeds,
        slew_chunks,
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
            eff_chunks: List[np.ndarray] = []
        else:
            eff_cells, eff_chunks = cell_seeds, slew_chunks
        _backward_incremental(
            state,
            fr,
            counters,
            "required_eff",
            buffer_backed(state.ep_required - state.margin_vec),
            eff_cells,
            eff_chunks,
            ep_eff_dirty,
        )

    if counters.vectorized:
        obs.incr("sta.vectorized_levels", counters.vectorized)
    if counters.scalar:
        obs.incr("sta.scalar_levels", counters.scalar)

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
    slew_cells: List[int],
    slew_chunks: List[np.ndarray],
    ep_arr_dirty: Set[int],
) -> None:
    """Level-ordered forward re-propagation of the seeded frontier.

    The source slot runs first, then levels 0, 1, ...  A slot's batch at or
    above the density threshold takes the vectorized kernels; a smaller one
    runs the scalar loop below, which reads and writes the buffers bound
    here once and pushes each moved cell's fan-out inline.
    """
    compiled = state.compiled
    cb = compiled.buffers
    sb = state.buffers
    arrival = sb["arrival"]
    slew = sb["slew"]
    ca = sb["clock_arrival"]
    fanin = cb["fanin_idx"]
    fanin_wire = cb["fanin_wire_delay"]
    max_pins = compiled.fanin_idx.shape[1]
    intrinsic = cb["intrinsic"]
    slew_sens = cb["slew_sens"]
    drive_res = cb["drive_res"]
    load_cap = cb["load_cap"]
    slew_intr = cb["slew_intr"]
    slew_load = cb["slew_load"]
    clk_to_q = cb["clk_to_q"]
    is_flop = cb["is_flop"]
    is_outport = cb["is_outport"]
    is_ep = cb["is_ep"]
    ep_pos = cb["ep_pos"]
    level_of = cb["level_of"]
    indptr = cb["fanout_indptr"]
    sinks = cb["fanout_indices"]
    seen = fr.seen_buf
    buckets = fr.buckets
    chunks = fr.chunks
    touched = fr.touched
    threshold = _vec_threshold
    src_slot = state.num_levels
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
                new_arr, new_slew = _forward_src_vec(state, batch)
            else:
                new_arr, new_slew = _forward_comb_vec(state, batch)
            _forward_commit_vec(
                state, fr, batch, new_arr, new_slew, slew_chunks, ep_arr_dirty
            )
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
                best = _NEG_INF
                row = c * max_pins
                if is_outport[c]:
                    # Output ports consume only: no gate delay, no drive.
                    for p in range(row, row + max_pins):
                        u = fanin[p]
                        if u < 0:  # _NO_DRIVER pads unconnected pins
                            continue
                        v = arrival[u] + fanin_wire[p]
                        if v > best:
                            best = v
                    new_arr = best + 0.0
                else:
                    ic = intrinsic[c]
                    ss = slew_sens[c]
                    for p in range(row, row + max_pins):
                        u = fanin[p]
                        if u < 0:
                            continue
                        v = (arrival[u] + fanin_wire[p]) + (ic + ss * slew[u])
                        if v > best:
                            best = v
                    new_arr = best + drive_res[c] * load_cap[c]
            new_slew = slew_intr[c] + slew_load[c] * load_cap[c]
            da = new_arr - arrival[c]
            ds = new_slew - slew[c]
            slew_moved = ds > PRUNE_TOL or ds < -PRUNE_TOL
            if not (slew_moved or da > PRUNE_TOL or da < -PRUNE_TOL):
                continue
            arrival[c] = new_arr
            slew[c] = new_slew
            if slew_moved:
                slew_cells.append(c)
            for s in sinks[indptr[c] : indptr[c + 1]]:
                if is_ep[s]:
                    ep_arr_dirty.add(ep_pos[s])
                # Flop sinks capture only (their Q arrival never depends
                # on D); every other sink — comb cells and output ports —
                # re-propagates.
                if not is_flop[s] and not seen[s]:
                    seen[s] = 1
                    touched.append(s)
                    buckets[level_of[s]].append(s)


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
    fresh = push[~fr.seen[push]]
    if fresh.size == 0:
        return
    fresh = np.unique(fresh)
    fr.seen[fresh] = True
    fr.touched_chunks.append(fresh)
    _bucket_by_level(compiled.level_of, fresh, fr.chunks)


def _forward_src_vec(
    state: IncrementalState, srcs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    compiled = state.compiled
    self_delay = compiled.drive_res[srcs] * compiled.load_cap[srcs]
    new_arr = np.where(
        compiled.is_flop[srcs],
        state.clock_arrival[srcs] + compiled.clk_to_q[srcs] + self_delay,
        self_delay,
    )
    new_slew = (
        compiled.slew_intr[srcs] + compiled.slew_load[srcs] * compiled.load_cap[srcs]
    )
    return new_arr, new_slew


def _forward_comb_vec(
    state: IncrementalState, combs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
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
    new_arr = best + np.where(
        outport, 0.0, compiled.drive_res[combs] * compiled.load_cap[combs]
    )
    new_slew = (
        compiled.slew_intr[combs]
        + compiled.slew_load[combs] * compiled.load_cap[combs]
    )
    return new_arr, new_slew


def _forward_commit_vec(
    state: IncrementalState,
    fr: _Frontier,
    cells: np.ndarray,
    new_arr: np.ndarray,
    new_slew: np.ndarray,
    slew_chunks: List[np.ndarray],
    ep_arr_dirty: Set[int],
) -> None:
    arrival = state.arrival
    slew = state.slew
    da = new_arr - arrival[cells]
    ds = new_slew - slew[cells]
    arr_moved = (da > PRUNE_TOL) | (da < -PRUNE_TOL)
    slew_moved = (ds > PRUNE_TOL) | (ds < -PRUNE_TOL)
    moved = arr_moved | slew_moved
    if not moved.any():
        return
    changed = cells[moved]
    arrival[changed] = new_arr[moved]
    slew[changed] = new_slew[moved]
    slewed = cells[slew_moved]
    if slewed.size:
        slew_chunks.append(slewed)
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
    fanin = cb["fanin_idx"]
    fanin_wire = cb["fanin_wire_delay"]
    arrival = state.buffers["arrival"]
    ep_arrival = state.buffers["ep_arrival"]
    max_pins = compiled.fanin_idx.shape[1]
    for pos in positions:
        row = eps[pos] * max_pins
        best = _NEG_INF
        hit = False
        for p in range(row, row + max_pins):
            u = fanin[p]
            if u < 0:
                continue
            hit = True
            v = arrival[u] + fanin_wire[p]
            if v > best:
                best = v
        ep_arrival[pos] = best if hit else 0.0


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
    seed_chunks: List[np.ndarray],
    ep_dirty_pos: Iterable[int],
) -> None:
    """Pruned reverse-level sweep updating the required view ``name`` in place.

    ``ep_seed`` is the ``(buffer, view)`` pair of this view's per-endpoint
    required seed (true: ``ep_required``; margin-aware: ``ep_required −
    margins``); ``seed_cells`` (ints) and ``seed_chunks`` (int64 arrays)
    are cells to recompute up front, duplicates fine, and ``ep_dirty_pos``
    endpoint positions whose seed moved (their fan-in joins the frontier).
    """
    compiled = state.compiled
    cb = compiled.buffers
    required = state.buffers[name]
    required_view = getattr(state, name)
    ep_seed_buf, ep_seed_view = ep_seed
    slew = state.buffers["slew"]
    fanin = cb["fanin_idx"]
    max_pins = compiled.fanin_idx.shape[1]
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
    fr.reset()
    seen = fr.seen_buf
    seen_view = fr.seen
    buckets = fr.buckets
    chunks = fr.chunks
    touched = fr.touched
    threshold = _vec_threshold
    src_slot = state.num_levels

    # Sources (flops/inports) sit at level 0 alongside the comb cells they
    # drive, so a same-level push would arrive mid-sweep; since sources
    # never push further, they wait in the source slot, swept last (mirror
    # of the forward pass' source-first order).
    def push_chunk(cells: np.ndarray) -> None:
        fresh = cells[~seen_view[cells]]
        if fresh.size == 0:
            return
        fresh = np.unique(fresh)
        seen_view[fresh] = True
        fr.touched_chunks.append(fresh)
        src_mask = is_src_view[fresh]
        if src_mask.any():
            chunks[src_slot].append(fresh[src_mask])
            fresh = fresh[~src_mask]
            if fresh.size == 0:
                return
        _bucket_by_level(compiled.level_of, fresh, chunks)

    for u in seed_cells:
        if not seen[u]:
            seen[u] = 1
            touched.append(u)
            buckets[src_slot if is_src[u] else level_of[u]].append(u)
    for chunk in seed_chunks:
        push_chunk(chunk)
    for pos in ep_dirty_pos:
        row = eps[pos] * max_pins
        for v in fanin[row : row + max_pins]:
            if v < 0 or seen[v]:
                continue
            seen[v] = 1
            touched.append(v)
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
                row = u * max_pins
                for v in fanin[row : row + max_pins]:
                    if v < 0 or seen[v]:
                        continue
                    seen[v] = 1
                    touched.append(v)
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


def assert_reports_equal(
    incremental: TimingReport,
    full: TimingReport,
    atol: float = CHECK_ATOL,
) -> None:
    """Raise ``RuntimeError`` if the two reports disagree beyond ``atol``."""
    if not np.array_equal(incremental.endpoints, full.endpoints):
        raise RuntimeError(
            "incremental STA drift: endpoint ordering differs from the "
            "full engine's canonical order"
        )
    mismatches: List[str] = []
    for name in _COMPARED_FIELDS:
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
    "assert_reports_equal",
    "build_state",
    "check_enabled",
    "incremental_analyze",
    "set_check",
    "set_vector_threshold",
    "vector_threshold",
]
