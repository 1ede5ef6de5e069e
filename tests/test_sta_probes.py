"""Probes: forward-only trial analyses, journaled rollback, deferred seeds.

A data-path sizing move is bracketed by ``open_probe`` and
``commit_probe``/``rollback_probe``.  The probe's analysis runs the
forward sweep only and leaves its backward seeds for the next ordinary
analysis; a rejected probe is undone from its journal.  These tests pin:

* a rejected probe leaves every buffer byte-equal to its opening, with
  ``pending`` and the deferred seeds as they were;
* ``run_flow`` is byte-equal to a run whose probes are today's ordinary
  incremental analyses (the probe entry points patched to no-ops);
* the clock diff, which runs only when the clock's arrival dict changed,
  still catches every un-notified edit of it;
* a probe report refuses its required-side fields, and the shadow check
  catches a rollback that does not restore the buffers;
* ``trace_critical_path`` walks the same path as a plain reference walk.

Run under ``REPRO_STA_CHECK=1`` (the ``sta-differential`` CI job does),
every analysis here is also shadow-checked against the full engine.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.netlist.generator import GeneratorConfig, generate_design, quick_design
from repro.placement import PlacementConfig, place_design
from repro.timing import incremental as inc
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.paths import trace_critical_path
from repro.timing.sta import (
    _NO_DRIVER,
    ProbeReport,
    TimingAnalyzer,
    TimingReport,
    buffer_mismatches,
)

ATOL = 1e-9

REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(TimingReport))


def _design(cells: int, seed: int):
    netlist = generate_design(
        GeneratorConfig(
            name=f"probe{cells}",
            library="tech7",
            n_cells=cells,
            n_inputs=max(8, cells // 40),
            n_outputs=max(6, cells // 60),
            seed=seed,
        )
    )
    place_design(netlist, PlacementConfig(seed=seed))
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    return netlist, choose_clock_period(report, nominal, 0.4)


@pytest.fixture
def design():
    netlist = quick_design(name="probes", n_cells=300, seed=4)
    place_design(netlist, PlacementConfig(seed=4))
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, 0.35)
    return netlist, ClockModel.for_netlist(netlist, period)


@pytest.fixture(params=[1 << 30, 0], ids=["scalar", "vector"])
def threshold(request):
    previous = inc.set_vector_threshold(request.param)
    yield request.param
    inc.set_vector_threshold(previous)


def _sizable(netlist):
    return [
        c.index
        for c in netlist.cells
        if not c.cell_type.is_port and not c.is_sequential and c.sizing_headroom > 0
    ]


def _assert_matches_full(netlist, report, clock):
    full = TimingAnalyzer(netlist, incremental=False).analyze(clock)
    names = ProbeReport.FIELDS if isinstance(report, ProbeReport) else REPORT_FIELDS
    for name in names:
        assert np.allclose(getattr(report, name), getattr(full, name), rtol=0.0, atol=ATOL), name


def _copy_buffers(owner):
    return {name: buf[:] for name, buf in owner.buffers.items()}


def _probe(netlist, analyzer, clock, cell):
    """Open a probe, upsize ``cell`` and analyze; returns the undo size."""
    analyzer.open_probe()
    previous = netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
    analyzer.notify_resize(cell)
    report = analyzer.analyze(clock)
    assert isinstance(report, ProbeReport)
    _assert_matches_full(netlist, report, clock)
    return previous


def _reject(netlist, analyzer, cell, previous):
    """Undo the move in the netlist; the rollback restores the rest."""
    netlist.resize_cell(cell, previous)
    analyzer.rollback_probe()


# ---------------------------------------------------------------------- #
# (a) a rejected probe restores everything it touched
# ---------------------------------------------------------------------- #
def test_rejected_probe_restores_state_byte_for_byte(design, threshold):
    netlist, clock = design
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cells = _sizable(netlist)
    rng = np.random.default_rng(4)

    # A committed probe first, so deferred seeds are pending when the
    # rejected ones open.
    _probe(netlist, analyzer, clock, cells[0])
    analyzer.commit_probe()
    state = analyzer.state
    assert state.deferred_cells

    moved = 0
    for cell in rng.choice(cells[1:], size=12, replace=False).tolist():
        state_before = _copy_buffers(state)
        compiled_before = _copy_buffers(analyzer.compiled)
        deferred = (list(state.deferred_cells), list(state.deferred_eps))
        previous = _probe(netlist, analyzer, clock, cell)
        moved += buffer_mismatches(state.buffers, state_before) != []
        _reject(netlist, analyzer, cell, previous)

        assert analyzer.state is state
        assert buffer_mismatches(state.buffers, state_before) == []
        assert buffer_mismatches(analyzer.compiled.buffers, compiled_before) == []
        assert state.pending == set()
        assert state.journal is None
        assert deferred == (list(state.deferred_cells), list(state.deferred_eps))

    assert moved > 0
    # The next ordinary analysis sweeps the committed probe's seeds.
    report = analyzer.analyze(clock)
    assert not isinstance(report, ProbeReport)
    _assert_matches_full(netlist, report, clock)
    assert not (state.deferred_cells or state.deferred_eps)


def test_undo_restores_the_compiled_view_with_the_shadow_check_off(design):
    """A rejected probe right after a kept one, on a cell whose input net
    has several sinks, one an output port (its pin cap is the library's
    ``default_port_cap``): the rollback puts back the cell's coefficients
    and pin cap and its drivers' sink and load caps from the journal,
    byte for byte, with no shadow snapshot to compare against."""
    netlist, clock = design
    cells = netlist.cells

    def feeds_a_port(cell):
        return any(
            len(netlist.nets[n].sinks) >= 2
            and any(cells[s].is_output_port for s, _pin in netlist.nets[n].sinks)
            for n in cells[cell].fanin_nets
            if n is not None
        )

    previous_check = inc.set_check(False)
    try:
        analyzer = TimingAnalyzer(netlist)
        analyzer.analyze(clock)
        sizable = _sizable(netlist)
        target = next(c for c in sizable if feeds_a_port(c))
        kept = next(c for c in sizable if c != target)
        _probe(netlist, analyzer, clock, kept)
        analyzer.commit_probe()
        state = analyzer.state
        state_before = _copy_buffers(state)
        compiled_before = _copy_buffers(analyzer.compiled)

        previous = _probe(netlist, analyzer, clock, target)
        moved = buffer_mismatches(analyzer.compiled.buffers, compiled_before)
        assert {"pin_cap", "sink_cap", "load_cap", "drive_res"} <= set(moved)
        _reject(netlist, analyzer, target, previous)
        assert buffer_mismatches(analyzer.compiled.buffers, compiled_before) == []
        assert buffer_mismatches(state.buffers, state_before) == []
    finally:
        inc.set_check(previous_check)


def test_rollback_keeps_notifications_made_before_the_probe(design):
    """Cells pending when a probe opens are pending again after its
    rollback, so the notification is not lost with the journal."""
    netlist, clock = design
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    kept, probed = _sizable(netlist)[:2]
    netlist.resize_cell(kept, netlist.cells[kept].size_index + 1)
    analyzer.notify_resize(kept)
    pending = set(analyzer.state.pending)

    previous = _probe(netlist, analyzer, clock, probed)
    _reject(netlist, analyzer, probed, previous)
    assert analyzer.state.pending == pending
    _assert_matches_full(netlist, analyzer.analyze(clock), clock)


def test_probe_outside_the_journal_falls_back_to_repropagation(design):
    """A clock write, margins or a full-path analysis inside a probe are
    not journaled: its rollback restores nothing and the undo's
    notification re-propagates, so the next analysis is still exact."""
    netlist, clock = design
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cell = _sizable(netlist)[3]
    flop = next(f for f, bound in clock.bounds.items() if bound > 1e-6)
    margins = {int(netlist.endpoints()[0]): 0.05}

    def clock_write():
        clock.set_arrival(flop, clock.bound(flop) / 2)

    def full_path():
        analyzer.invalidate()

    for edit, analyze_margins in ((clock_write, None), (None, margins), (full_path, None)):
        analyzer.open_probe()
        previous = netlist.resize_cell(cell, netlist.cells[cell].size_index + 1)
        analyzer.notify_resize(cell)
        if edit is not None:
            edit()
        report = analyzer.analyze(clock, analyze_margins)
        assert isinstance(report, ProbeReport) == (edit is clock_write)
        _reject(netlist, analyzer, cell, previous)
        assert analyzer.state.pending  # the undo re-propagates
        _assert_matches_full(netlist, analyzer.analyze(clock), clock)


def test_probe_analyses_are_counted_and_forward_only(design):
    netlist, clock = design
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cell = _sizable(netlist)[0]
    previous = _probe(netlist, analyzer, clock, cell)
    _reject(netlist, analyzer, cell, previous)
    with pytest.raises(RuntimeError, match="no probe is open"):
        analyzer.rollback_probe()
    analyzer.open_probe()
    with pytest.raises(RuntimeError, match="already open"):
        analyzer.open_probe()
    analyzer.commit_probe()


# ---------------------------------------------------------------------- #
# probe reports and the shadow check
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "name", ("cell_required", "cell_worst_slack", "cell_worst_slack_margined")
)
def test_probe_report_refuses_required_side_fields(design, name):
    netlist, clock = design
    analyzer = TimingAnalyzer(netlist)
    ordinary = analyzer.analyze(clock)
    cell = _sizable(netlist)[0]
    previous = _probe(netlist, analyzer, clock, cell)
    probe = analyzer.analyze(clock)  # a second analysis inside the probe
    _reject(netlist, analyzer, cell, previous)
    assert isinstance(probe, ProbeReport)
    with pytest.raises(RuntimeError, match="not computed by a probe analysis"):
        getattr(probe, name)
    assert np.isfinite(getattr(ordinary, name)).any()
    assert np.array_equal(probe.slack_with_margins, probe.slack)


def test_shadow_check_names_buffers_a_rollback_missed(design):
    netlist, clock = design
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cell = _sizable(netlist)[0]
    previous_check = inc.set_check(True)
    try:
        previous = _probe(netlist, analyzer, clock, cell)
        journal = analyzer.state.journal
        assert journal.arrivals
        del journal.arrivals[0]  # lose one logged write
        with pytest.raises(RuntimeError, match="probe rollback drift: state.arrival"):
            _reject(netlist, analyzer, cell, previous)
    finally:
        inc.set_check(previous_check)


def test_shadow_check_compares_probe_reports_on_their_fields(design):
    netlist, clock = design
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    cell = _sizable(netlist)[0]
    previous_check = inc.set_check(True)
    try:
        _probe(netlist, analyzer, clock, cell)
        analyzer.commit_probe()
        # Corrupt the cache; a probe with nothing pending reads it as is.
        analyzer.state.arrival[cell] += 1.0
        analyzer.open_probe()
        with pytest.raises(RuntimeError, match="cell_arrival"):
            analyzer.analyze(clock)
        analyzer.commit_probe()
    finally:
        inc.set_check(previous_check)


# ---------------------------------------------------------------------- #
# (b) run_flow is byte-equal to a flow whose probes are ordinary analyses
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("cells", (320, 1000))
def test_flow_byte_equal_to_ordinary_probe_analyses(cells, monkeypatch):
    netlist, period = _design(cells, seed=3)
    endpoints = netlist.endpoints()
    rng = np.random.default_rng(cells)
    selections = [[]] + [
        [int(e) for e in rng.choice(endpoints, size=k, replace=False)] for k in (2, 5, 9)
    ]
    config = FlowConfig(clock_period=period)
    snapshot = snapshot_netlist_state(netlist)

    def run_all():
        results = []
        for selection in selections:
            restore_netlist_state(netlist, snapshot)
            results.append(run_flow(netlist, config, prioritized_endpoints=selection))
        restore_netlist_state(netlist, snapshot)
        return results

    probes = run_all()
    with monkeypatch.context() as patch:
        # No journal: a rejected move's undo is notified as an ordinary
        # resize of every cell resized since the last commit or undo.
        resized = []
        notify = TimingAnalyzer.notify_resize

        def notify_and_note(self, cell):
            resized.append(cell)
            notify(self, cell)

        def ordinary_undo(self):
            for cell in resized:
                notify(self, cell)
            resized.clear()

        patch.setattr(TimingAnalyzer, "notify_resize", notify_and_note)
        patch.setattr(TimingAnalyzer, "open_probe", lambda self: resized.clear())
        patch.setattr(TimingAnalyzer, "commit_probe", lambda self: resized.clear())
        patch.setattr(TimingAnalyzer, "rollback_probe", ordinary_undo)
        ordinary = run_all()

    assert sum(r.datapath_result.rolled_back for r in probes) > 0
    for ours, theirs in zip(probes, ordinary):
        for name in REPORT_FIELDS:
            ours_bytes = getattr(ours.report, name).tobytes()
            assert ours_bytes == getattr(theirs.report, name).tobytes(), name
        assert ours.clock.adjustments() == theirs.clock.adjustments()
        assert ours.skew_result == theirs.skew_result
        assert ours.datapath_result == theirs.datapath_result
        assert ours.final == theirs.final


# ---------------------------------------------------------------------- #
# (c) the clock diff catches every un-notified edit of the arrival dict
# ---------------------------------------------------------------------- #
def _edits():
    def assign(clock, flops):
        clock.arrivals[flops[0]] = clock.bound(flops[0]) / 2

    def delete(clock, flops):
        del clock.arrivals[flops[1]]

    def pop(clock, flops):
        clock.arrivals.pop(flops[1])

    def update(clock, flops):
        clock.arrivals.update({f: -clock.bound(f) / 3 for f in flops[:2]})

    def clear(clock, flops):
        clock.arrivals.clear()

    def replace(clock, flops):
        clock.arrivals = {flops[0]: clock.bound(flops[0]) / 4}

    return (assign, delete, pop, update, clear, replace)


@pytest.mark.parametrize("edit", _edits(), ids=lambda f: f.__name__)
def test_unnotified_clock_edit_is_caught(design, edit):
    netlist, clock = design
    flops = [f for f, bound in sorted(clock.bounds.items()) if bound > 1e-6][:2]
    assert len(flops) == 2
    for f in flops:
        clock.set_arrival(f, clock.bound(f) / 5)
    analyzer = TimingAnalyzer(netlist)
    analyzer.analyze(clock)
    # An incremental analysis syncs the state to the edited dict first, so
    # the edit under test must differ from that sync, not only from the
    # build's.
    clock.arrivals[flops[0]] = clock.bound(flops[0]) / 6
    before = analyzer.analyze(clock)
    # An unchanged dict skips the diff and changes nothing.
    again = analyzer.analyze(clock)
    assert again.slack.tobytes() == before.slack.tobytes()

    edit(clock, flops)
    report = analyzer.analyze(clock)
    _assert_matches_full(netlist, report, clock)
    assert report.slack.tobytes() != before.slack.tobytes()
    assert analyzer.state.clock_synced == clock.arrivals


# ---------------------------------------------------------------------- #
# trace_critical_path against a plain reference walk
# ---------------------------------------------------------------------- #
def _reference_walk(compiled, report, endpoint):
    chain = [endpoint]
    current = endpoint
    while True:
        best_driver, best_time = _NO_DRIVER, -np.inf
        for pin, driver in enumerate(compiled.fanin_idx[current]):
            if driver == _NO_DRIVER:
                continue
            t = report.cell_arrival[driver] + compiled.fanin_wire_delay[current, pin]
            if t > best_time:
                best_driver, best_time = int(driver), t
        if best_driver == _NO_DRIVER:
            break
        chain.append(best_driver)
        if compiled.is_flop[best_driver] or compiled.is_inport[best_driver]:
            break
        current = best_driver
    return chain[::-1]


def test_trace_critical_path_matches_reference_walk(design):
    netlist, clock = design
    analyzer = TimingAnalyzer(netlist)
    report = analyzer.analyze(clock)
    # Flat arrivals over zero wire delays make every multi-pin cell a tie:
    # the first pin must win, as in the reference walk.
    flat = analyzer.compiled.copy()
    flat.fanin_wire_delay[:] = 0.0
    tied = dataclasses.replace(report, cell_arrival=np.zeros_like(report.cell_arrival))
    for compiled, candidate in ((analyzer.compiled, report), (flat, tied)):
        for k, endpoint in enumerate(report.endpoints.tolist()):
            path = trace_critical_path(compiled, candidate, endpoint)
            assert path.cells == _reference_walk(compiled, candidate, endpoint)
            assert path.slack == float(candidate.slack[k])
            assert path.arrival == float(candidate.arrival[k])
    with pytest.raises(KeyError):
        trace_critical_path(analyzer.compiled, report, _sizable(netlist)[0])
