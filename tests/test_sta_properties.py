"""Property-style invariants of the (incremental) STA engine.

These hold for *any* analysis regardless of which engine served it; each
test exercises them through an incremental analyzer mid-mutation-sequence
so a violation implicates the dirty-set bookkeeping, and re-checks against
the full engine where the property is about engine agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccd.margins import remove_margins
from repro.netlist.generator import quick_design
from repro.placement import PlacementConfig, place_design
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer


@pytest.fixture(scope="module")
def design():
    netlist = quick_design(name="sta_props", n_cells=200, seed=17)
    place_design(netlist, PlacementConfig(seed=2))
    nominal = netlist.library.default_clock_period
    scratch = TimingAnalyzer(netlist, incremental=False)
    report = scratch.analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, 0.35)
    return netlist, period


def _margins_for(netlist, report):
    endpoints = netlist.endpoints()
    return {int(e): 0.05 * (1 + i % 3) for i, e in enumerate(endpoints[:6])}


def _shake(netlist, analyzer, clock, rng):
    """A few CCD-style mutations so the cached state is genuinely dirty."""
    comb = [
        c.index
        for c in netlist.cells
        if not c.cell_type.is_port and not c.is_sequential
    ]
    for _ in range(5):
        cell = netlist.cells[int(rng.choice(comb))]
        netlist.resize_cell(
            cell.index, int(rng.integers(0, cell.cell_type.max_size_index + 1))
        )
        analyzer.notify_resize(cell.index)
    flop = int(rng.choice(netlist.sequential_cells()))
    room = clock.bound(flop) - clock.arrival(flop)
    if room > 1e-9:
        clock.adjust_arrival(flop, 0.5 * room)
        analyzer.notify_skew((flop,))


def test_slack_with_margins_is_slack_minus_margins(design):
    netlist, period = design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    rng = np.random.default_rng(0)

    report = analyzer.analyze(clock)
    margins = _margins_for(netlist, report)
    for _ in range(3):
        _shake(netlist, analyzer, clock, rng)
        report = analyzer.analyze(clock, margins)
        np.testing.assert_allclose(
            report.slack_with_margins,
            report.slack - report.margins,
            rtol=0.0,
            atol=0.0,
        )


def test_margins_never_change_cell_arrival(design):
    netlist, period = design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    rng = np.random.default_rng(1)

    baseline = analyzer.analyze(clock)
    margins = _margins_for(netlist, baseline)
    margined = analyzer.analyze(clock, margins)
    assert np.array_equal(margined.cell_arrival, baseline.cell_arrival)
    assert np.array_equal(margined.cell_slew, baseline.cell_slew)
    assert np.array_equal(margined.cell_required, baseline.cell_required)

    # Still true when the margin flip rides along with real timing changes.
    _shake(netlist, analyzer, clock, rng)
    with_margins = analyzer.analyze(clock, margins)
    without = analyzer.analyze(clock)
    assert np.array_equal(with_margins.cell_arrival, without.cell_arrival)


def test_endpoint_ordering_canonical_and_stable(design):
    netlist, period = design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    rng = np.random.default_rng(2)

    canonical = TimingAnalyzer(netlist, incremental=False).analyze(clock).endpoints
    assert np.array_equal(canonical, np.sort(canonical))  # index order
    for _ in range(3):
        _shake(netlist, analyzer, clock, rng)
        assert np.array_equal(analyzer.analyze(clock).endpoints, canonical)


def test_remove_margins_round_trip_under_incremental(design):
    netlist, period = design
    clock = ClockModel.for_netlist(netlist, period)
    analyzer = TimingAnalyzer(netlist, incremental=True)
    rng = np.random.default_rng(3)

    before = analyzer.analyze(clock)
    margins = _margins_for(netlist, before)
    analyzer.analyze(clock, margins)

    removed = remove_margins(margins)
    assert removed == {}
    after = analyzer.analyze(clock, removed)
    for name in ("slack", "arrival", "required", "cell_worst_slack"):
        assert np.array_equal(getattr(after, name), getattr(before, name)), name
    assert not after.margins.any()
    # The margined view collapses back onto the true view.
    assert np.array_equal(after.cell_worst_slack_margined, after.cell_worst_slack)

    # Apply → mutate → remove must also land exactly on the full engine.
    analyzer.analyze(clock, margins)
    _shake(netlist, analyzer, clock, rng)
    incremental = analyzer.analyze(clock)
    full = TimingAnalyzer(netlist, incremental=False).analyze(clock)
    for name in ("slack", "arrival", "required", "cell_worst_slack"):
        assert np.allclose(
            getattr(incremental, name), getattr(full, name), rtol=0.0, atol=1e-9
        ), name
