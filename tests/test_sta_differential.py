"""Differential fuzz harness for the incremental STA engine.

Each fuzz case builds a seeded random design, then applies a randomized
sequence of the mutations the CCD engines actually perform — cell resizes,
buffer insertions, useful-skew commits, margin apply/change/remove — and
after every mutation asserts that the incrementally maintained report
matches a from-scratch full analysis to 1e-9 across slacks, arrivals,
required times and per-cell worst slacks.

Run under ``REPRO_STA_CHECK=1`` (the ``sta-differential`` CI job does)
every incremental analysis is *additionally* shadow-verified inside
``analyze()`` itself; the assertions here stay on so the suite is also
meaningful without the env var.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccd.flow import FlowConfig, run_flow
from repro.netlist.generator import quick_design
from repro.placement import PlacementConfig, place_design
from repro.timing import incremental as incr
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer

ATOL = 1e-9

#: Report fields the differential harness compares (ISSUE acceptance set
#: plus everything else cheap to check).
FIELDS = (
    "arrival",
    "required",
    "slack",
    "cell_arrival",
    "cell_slew",
    "cell_required",
    "cell_worst_slack",
    "cell_worst_slack_margined",
)


def _build(seed: int, n_cells: int = 160):
    netlist = quick_design(name=f"fuzz{seed}", n_cells=n_cells, seed=seed)
    place_design(netlist, PlacementConfig(seed=seed + 1))
    nominal = netlist.library.default_clock_period
    scratch = TimingAnalyzer(netlist, incremental=False)
    report = scratch.analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, 0.35)
    return netlist, ClockModel.for_netlist(netlist, period)


def _assert_matches_full(netlist, analyzer, clock, margins, context: str):
    incremental = analyzer.analyze(clock, margins)
    full = TimingAnalyzer(netlist, incremental=False).analyze(clock, margins)
    assert np.array_equal(incremental.endpoints, full.endpoints), context
    for name in FIELDS:
        a = getattr(incremental, name)
        b = getattr(full, name)
        assert np.allclose(a, b, rtol=0.0, atol=ATOL), (
            f"{context}: field {name} drifted beyond {ATOL} "
            f"(max |Δ|={np.nanmax(np.abs(np.where(np.isfinite(a - b), a - b, 0.0))):.3e})"
        )


def _random_mutation(rng, netlist, analyzer, clock, margins):
    """Apply one randomly chosen CCD-style mutation; returns new margins."""
    kind = rng.choice(["resize", "buffer", "skew", "margins"], p=[0.45, 0.1, 0.3, 0.15])

    if kind == "resize":
        comb = [
            c.index
            for c in netlist.cells
            if not c.cell_type.is_port and not c.is_sequential
        ]
        cell = netlist.cells[int(rng.choice(comb))]
        netlist.resize_cell(
            cell.index, int(rng.integers(0, cell.cell_type.max_size_index + 1))
        )
        analyzer.notify_resize(cell.index)

    elif kind == "buffer":
        candidates = [net for net in netlist.nets if net.fanout >= 2]
        if candidates:
            net = candidates[int(rng.integers(0, len(candidates)))]
            keep = int(rng.integers(1, net.fanout))
            netlist.insert_buffer(net.index, net.sinks[:keep])
            analyzer.invalidate()  # structural edit: full-recompute fallback

    elif kind == "skew":
        flops = netlist.sequential_cells()
        flop = int(rng.choice(flops))
        room = clock.bound(flop) - clock.arrival(flop)
        if room > 1e-9:
            clock.adjust_arrival(flop, float(rng.uniform(0.0, room)))
            if rng.random() < 0.8:
                analyzer.notify_skew((flop,))
            # else: un-notified — the clock-diff safety net must catch it

    else:
        endpoints = netlist.endpoints()
        if margins or rng.random() < 0.5:
            margins = {}  # remove
        else:
            chosen = rng.choice(endpoints, size=min(4, len(endpoints)), replace=False)
            margins = {int(e): float(rng.uniform(0.01, 0.3)) for e in chosen}
    return margins


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_incremental_matches_full(seed):
    netlist, clock = _build(seed)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    margins = {}
    rng = np.random.default_rng(seed)

    _assert_matches_full(netlist, analyzer, clock, margins, f"seed {seed} initial")
    for step in range(12):
        margins = _random_mutation(rng, netlist, analyzer, clock, margins)
        _assert_matches_full(
            netlist, analyzer, clock, margins, f"seed {seed} step {step}"
        )


def test_unnotified_resize_cannot_be_read_stale():
    """Regression: notify_resize patches load_cap[driver] — and the analyzer
    must treat the patched cells as timing-stale.  A resize that skips the
    hook entirely must be caught by the mutation-version guard: either way
    a stale read is impossible."""
    netlist, clock = _build(seed=99)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    analyzer.analyze(clock)

    target = next(
        c
        for c in netlist.cells
        if not c.cell_type.is_port and not c.is_sequential and c.sizing_headroom > 0
    )

    # Notified path: the driver whose load cap moved must be re-propagated.
    netlist.resize_cell(target.index, target.size_index + target.sizing_headroom)
    analyzer.notify_resize(target.index)
    _assert_matches_full(netlist, analyzer, clock, None, "notified resize")

    # Un-notified path: the version guard must force a recompile.
    netlist.resize_cell(target.index, 0)
    _assert_matches_full(netlist, analyzer, clock, None, "un-notified resize")


def _mutation_trace(seed: int, threshold: int, steps: int = 12):
    """Run the fuzz mutation sequence at one vector threshold; returns the
    per-step report field arrays (copies) for cross-threshold comparison."""
    netlist, clock = _build(seed)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    margins = {}
    rng = np.random.default_rng(seed)
    prev = incr.set_vector_threshold(threshold)
    try:
        reports = [analyzer.analyze(clock, margins)]
        for step in range(steps):
            margins = _random_mutation(rng, netlist, analyzer, clock, margins)
            if step == steps // 2:
                # Forced fallback mid-sequence: the full-recompute path must
                # rebuild state the kernels then extend, at any threshold.
                analyzer.invalidate()
            reports.append(analyzer.analyze(clock, margins))
    finally:
        incr.set_vector_threshold(prev)
    return [
        {name: np.array(getattr(r, name), copy=True) for name in FIELDS}
        for r in reports
    ]


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_vectorized_byte_identical_to_scalar(seed):
    """The density switch must be invisible: forcing every frontier batch
    through the vectorized kernels (threshold 0) and forcing every batch
    through the scalar path (huge threshold) must produce *byte-identical*
    reports at every step of the mutation sequence."""
    scalar = _mutation_trace(seed, threshold=1 << 30)
    vector = _mutation_trace(seed, threshold=0)
    assert len(scalar) == len(vector)
    for step, (s, v) in enumerate(zip(scalar, vector)):
        for name in FIELDS:
            assert np.array_equal(s[name], v[name], equal_nan=True), (
                f"seed {seed} step {step}: field {name} differs between "
                "scalar and vectorized frontier kernels"
            )


@pytest.mark.parametrize("threshold", (0, 1, 2, 4, incr.DEFAULT_VEC_THRESHOLD))
def test_density_threshold_boundaries_match_full(threshold):
    """Mixed scalar/vector batches around the density-switch boundary (tiny
    thresholds make single-cell batches flip between paths) stay equal to
    the from-scratch engine."""
    netlist, clock = _build(seed=7)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    margins = {}
    rng = np.random.default_rng(7)
    prev = incr.set_vector_threshold(threshold)
    try:
        _assert_matches_full(
            netlist, analyzer, clock, margins, f"threshold {threshold} initial"
        )
        for step in range(8):
            margins = _random_mutation(rng, netlist, analyzer, clock, margins)
            _assert_matches_full(
                netlist, analyzer, clock, margins, f"threshold {threshold} step {step}"
            )
    finally:
        incr.set_vector_threshold(prev)


def test_vectorized_byte_identical_at_10k_cells():
    """Scale-path equivalence: at 10K cells (fast generator, always above
    the density threshold) a resize+skew mutation burst yields byte-equal
    reports from the scalar and vectorized kernels."""
    from repro.benchsuite.scale import fast_design
    from repro.netlist.generator import GeneratorConfig

    def run(threshold: int):
        netlist = fast_design(
            GeneratorConfig(
                name="scale10k", n_cells=10_000, seed=42, n_inputs=256, n_outputs=128
            )
        )
        nominal = netlist.library.default_clock_period
        clock = ClockModel.for_netlist(netlist, nominal)
        analyzer = TimingAnalyzer(netlist, incremental=True)
        rng = np.random.default_rng(42)
        prev = incr.set_vector_threshold(threshold)
        try:
            analyzer.analyze(clock)
            comb = np.array(
                [
                    c.index
                    for c in netlist.cells
                    if not c.cell_type.is_port and not c.is_sequential
                ]
            )
            flops = np.asarray(netlist.sequential_cells())
            for _ in range(3):
                for i in rng.choice(comb, size=48, replace=False):
                    cell = netlist.cells[int(i)]
                    netlist.resize_cell(
                        cell.index,
                        int(rng.integers(0, cell.cell_type.max_size_index + 1)),
                    )
                    analyzer.notify_resize(cell.index)
                moved = rng.choice(flops, size=64, replace=False)
                for f in moved:
                    f = int(f)
                    room = clock.bound(f) - clock.arrival(f)
                    if room > 1e-9:
                        clock.adjust_arrival(f, float(rng.uniform(0.0, room)))
                analyzer.notify_skew(int(f) for f in moved)
                report = analyzer.analyze(clock)
            return {
                name: np.array(getattr(report, name), copy=True) for name in FIELDS
            }
        finally:
            incr.set_vector_threshold(prev)

    scalar = run(1 << 30)
    vector = run(0)
    for name in FIELDS:
        assert np.array_equal(scalar[name], vector[name], equal_nan=True), (
            f"10K-cell field {name} differs between scalar and vectorized paths"
        )


@pytest.mark.parametrize("seed", (3, 11))
def test_flow_results_identical_incremental_on_vs_off(seed):
    """End-to-end equivalence: the whole CCD flow — skew, margins, datapath
    probes with rollbacks, final cleanup — produces *byte-identical* results
    whichever STA engine serves it."""

    def run(incremental: bool):
        netlist = quick_design(name=f"flow{seed}", n_cells=220, seed=seed)
        place_design(netlist, PlacementConfig(seed=seed))
        nominal = netlist.library.default_clock_period
        scratch = TimingAnalyzer(netlist, incremental=False)
        report = scratch.analyze(ClockModel.for_netlist(netlist, nominal))
        period = choose_clock_period(report, nominal, 0.35)
        prioritized = netlist.endpoints()[:4]
        return run_flow(
            netlist,
            FlowConfig(clock_period=period, incremental_sta=incremental),
            prioritized_endpoints=prioritized,
        )

    on = run(True)
    off = run(False)
    assert on.final == off.final  # TNS/WNS/NVE summary, bit-for-bit
    assert on.begin == off.begin
    assert on.clock.adjustments() == off.clock.adjustments()  # skew schedule
    assert on.skew_result.commits == off.skew_result.commits
    assert on.datapath_result.total_moves == off.datapath_result.total_moves


def _assert_storage_coherent(owner) -> None:
    """Every buffer-backed vector of ``owner`` is one storage: its NumPy
    attribute is a view of the buffer and reads the same values."""
    assert owner.buffers
    for name, buf in owner.buffers.items():
        view = getattr(owner, name)
        flat = np.frombuffer(buf, dtype=view.dtype)
        assert np.shares_memory(view, flat), name
        assert np.array_equal(flat, view.ravel(), equal_nan=True), name


def test_notify_resize_patches_one_storage():
    """A coefficient/load patch through the views is the buffer's value too,
    and a forced-scalar incremental analysis (which reads only the buffers)
    re-propagates it."""
    netlist, clock = _build(seed=5)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    before = analyzer.analyze(clock)
    compiled = analyzer.compiled
    target = next(
        c
        for c in netlist.cells
        if not c.cell_type.is_port
        and not c.is_sequential
        and c.sizing_headroom > 0
        and netlist.fanin_cells(c.index)
    )
    netlist.resize_cell(target.index, target.size_index + target.sizing_headroom)
    analyzer.notify_resize(target.index)

    buffers = compiled.buffers
    size = target.size
    assert buffers["drive_res"][target.index] == size.drive_resistance
    assert buffers["intrinsic"][target.index] == size.intrinsic_delay
    for driver in netlist.fanin_cells(target.index):
        expected = netlist.net_load_cap(netlist.cells[driver].fanout_net)
        assert buffers["load_cap"][driver] == expected
        assert compiled.load_cap[driver] == expected
    _assert_storage_coherent(compiled)

    prev = incr.set_vector_threshold(1 << 30)
    try:
        report = analyzer.analyze(clock)
    finally:
        incr.set_vector_threshold(prev)
    _assert_storage_coherent(analyzer._state)
    assert not np.array_equal(report.cell_arrival, before.cell_arrival)
    full = TimingAnalyzer(netlist, incremental=False).analyze(clock)
    for name in FIELDS:
        assert np.allclose(getattr(report, name), getattr(full, name), rtol=0.0, atol=ATOL), name


def test_caller_held_report_survives_probe_cycles():
    """Reports are copies: 50 datapath-style probe/rollback cycles (with
    margins on, so the margin-aware view is live too) leave a caller-held
    incremental report byte-identical, and no report array shares memory
    with a timing buffer."""
    netlist, clock = _build(seed=8)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    margins = {int(e): 0.05 for e in netlist.endpoints()[:3]}
    analyzer.analyze(clock, margins)
    comb = [
        c.index
        for c in netlist.cells
        if not c.cell_type.is_port and not c.is_sequential and c.sizing_headroom > 0
    ]
    first = comb[0]
    previous = netlist.resize_cell(first, netlist.cells[first].size_index + 1)
    analyzer.notify_resize(first)
    held = analyzer.analyze(clock, margins)  # an incremental report
    names = ("endpoints", "margins") + FIELDS
    frozen = {name: getattr(held, name).tobytes() for name in names}

    rng = np.random.default_rng(8)
    for step in range(50):
        cell = int(rng.choice(comb))
        if netlist.cells[cell].sizing_headroom <= 0:
            continue
        old = netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
        analyzer.notify_resize(cell)
        analyzer.analyze(clock, margins if step % 2 else None)
        netlist.resize_cell(cell, old)
        analyzer.notify_resize(cell)
        analyzer.analyze(clock, margins)
    netlist.resize_cell(first, previous)

    for name in names:
        assert getattr(held, name).tobytes() == frozen[name], name
    state = analyzer._state
    views = [getattr(state, n) for n in state.buffers]
    views += [getattr(analyzer.compiled, n) for n in analyzer.compiled.buffers]
    views.append(state.scratch.seen)
    for name in names:
        for view in views:
            assert not np.shares_memory(getattr(held, name), view), name


@pytest.mark.parametrize("n_cells", (320, 2000))
def test_flow_identical_forced_scalar_vs_forced_vector(n_cells):
    """Whole-flow identity: a prioritized CCD flow (margins, skew, datapath
    probes with rollbacks and buffer splits, final cleanup) gives the same
    results with every frontier batch on the scalar loop as with every
    batch on the vectorized kernels."""

    def run(threshold: int):
        netlist = quick_design(name=f"thr{n_cells}", n_cells=n_cells, seed=5)
        place_design(netlist, PlacementConfig(seed=5))
        nominal = netlist.library.default_clock_period
        scratch = TimingAnalyzer(netlist, incremental=False)
        report = scratch.analyze(ClockModel.for_netlist(netlist, nominal))
        period = choose_clock_period(report, nominal, 0.35)
        prev = incr.set_vector_threshold(threshold)
        try:
            return run_flow(
                netlist,
                FlowConfig(clock_period=period, incremental_sta=True),
                prioritized_endpoints=netlist.endpoints()[:6],
            )
        finally:
            incr.set_vector_threshold(prev)

    scalar = run(1 << 30)
    vector = run(0)
    assert np.array_equal(scalar.report.slack, vector.report.slack)
    assert np.array_equal(scalar.report.cell_worst_slack, vector.report.cell_worst_slack)
    assert scalar.final == vector.final
    assert scalar.datapath_result == vector.datapath_result
    assert scalar.datapath_result.total_moves > 0
