"""Array set-up against its per-cell loops, byte for byte.

``compile_timing`` and ``FeatureExtractor.extract`` gather columns once
and do array work.  The loops they replaced live here as oracles: a
Python pass over every cell (and, for the features, every sink of every
net) through the netlist's scalar queries.  Every compile buffer and every
feature column must match the oracle's bytes on:

* perfbench's smoke design and a 2K design;
* the fan-in cones of :class:`ConeIndex`, row by row against
  :func:`fanin_cone`'s breadth-first walk;
* a netlist a flow left unrestored: resized cells, buffers inserted by
  the datapath optimizer's net splits, and output-port sinks;
* a parasitic scale other than 1;
* features without the clock-flexibility column;
* a margined report.
"""

from __future__ import annotations

import array

import numpy as np
import pytest

from repro.agent.env import EndpointSelectionEnv
from repro.ccd import datapath_opt
from repro.ccd.flow import FlowConfig, run_flow
from repro.features.cones import ConeIndex, fanin_cone
from repro.features.table1 import FEATURE_NAMES, FeatureExtractor
from repro.netlist.generator import GeneratorConfig, generate_design
from repro.placement.global_place import PlacementConfig, place_design
from repro.power.models import cell_internal_power, cell_leakage_power, net_switching_power
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import (
    _NO_DRIVER,
    TimingAnalyzer,
    assemble_compiled,
    buffer_mismatches,
    buffer_view,
    compile_timing,
)


# ---------------------------------------------------------------------- #
# The loop oracles
# ---------------------------------------------------------------------- #
#: The per-cell columns besides the dense fanin pair.
FLOAT_COLUMNS = (
    "load_cap", "sink_cap", "wire_cap", "pin_cap", "intrinsic", "drive_res", "slew_sens",
    "slew_intr", "slew_load", "clk_to_q", "setup",
)
SIZE_COLUMNS = {
    "size_drive_res": "drive_resistance",
    "size_intrinsic": "intrinsic_delay",
    "size_input_cap": "input_cap",
    "size_slew_sens": "slew_sensitivity",
}
FLAG_COLUMNS = ("is_flop", "is_inport", "is_outport")


def loop_compile(netlist):
    """The per-cell compile loop: every column filled cell by cell."""
    n = netlist.num_cells
    max_pins = max((c.cell_type.num_inputs for c in netlist.cells), default=1)
    max_pins = max(max_pins, 1)

    def cells_buffer(typecode):
        return array.array(typecode, [0]) * n

    fanin = array.array("q", [_NO_DRIVER]) * (n * max_pins)
    fanin_wire = array.array("d", [0.0]) * (n * max_pins)
    buffers = {"fanin_idx": fanin, "fanin_wire_delay": fanin_wire}
    for name in FLOAT_COLUMNS:
        buffers[name] = cells_buffer("d")
    for name in FLAG_COLUMNS:
        buffers[name] = cells_buffer("b")
    buffers["size_base"] = cells_buffer("q")
    buffers["size_last"] = array.array("q")
    load_sinks = array.array("q")
    ladders = {}  # id of a cell type -> its first size row, in first-seen order
    for name in SIZE_COLUMNS:
        buffers[name] = array.array("d")

    wire_coeff = netlist.parasitic_scale * netlist.library.wire_res_delay_per_um
    cells = netlist.cells
    nets = netlist.nets
    for cell in cells:
        i = cell.index
        size = cell.size
        buffers["intrinsic"][i] = size.intrinsic_delay
        buffers["drive_res"][i] = size.drive_resistance
        buffers["slew_sens"][i] = size.slew_sensitivity
        buffers["slew_intr"][i] = size.slew_intrinsic
        buffers["slew_load"][i] = size.slew_load_factor
        buffers["is_flop"][i] = cell.is_sequential
        buffers["is_inport"][i] = cell.is_input_port
        buffers["is_outport"][i] = cell.is_output_port
        if cell.is_output_port:
            buffers["pin_cap"][i] = netlist.library.default_port_cap
        else:
            buffers["pin_cap"][i] = size.input_cap
        cell_type = cell.cell_type
        if id(cell_type) not in ladders:
            ladders[id(cell_type)] = first = len(buffers["size_drive_res"])
            for name, attribute in SIZE_COLUMNS.items():
                buffers[name].extend(getattr(s, attribute) for s in cell_type.sizes)
            last = -1 if cell_type.is_port else first + cell_type.max_size_index
            buffers["size_last"].extend([last] * len(cell_type.sizes))
        buffers["size_base"][i] = ladders[id(cell_type)]
        if cell.is_sequential:
            buffers["clk_to_q"][i] = cell.cell_type.clk_to_q
            buffers["setup"][i] = cell.cell_type.setup_time
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
            buffers["wire_cap"][i] = netlist.net_wire_cap(cell.fanout_net)
            buffers["sink_cap"][i] = netlist.net_sink_cap(cell.fanout_net)
            buffers["load_cap"][i] = buffers["sink_cap"][i] + buffers["wire_cap"][i]
            load_sinks.extend(sink for sink, _pin in nets[cell.fanout_net].sinks)
    buffers["load_sinks"] = load_sinks

    columns = {name: buffer_view(buf) for name, buf in buffers.items()}
    for name in ("fanin_idx", "fanin_wire_delay"):
        columns[name] = columns[name].reshape(n, max_pins)
    return assemble_compiled(netlist, columns)


def loop_features(extractor, report, clock, masked_or_selected=()):
    """The per-cell, per-net feature loop."""
    netlist = extractor.netlist
    n = netlist.num_cells
    features = np.zeros((n, len(FEATURE_NAMES)))
    frequency = 1.0 / clock.period
    cap_scale = 0.1
    time_scale = 1.0 / clock.period
    power_scale = 10.0

    flagged = set(masked_or_selected)
    for cell in netlist.cells:
        i = cell.index
        features[i, 0] = 1.0 if i in flagged else 0.0
        features[i, 1] = cell.x / extractor.die_side
        features[i, 2] = cell.y / extractor.die_side
        if cell.fanout_net is not None:
            net_index = cell.fanout_net
            features[i, 3] = netlist.net_load_cap(net_index) * cap_scale
            pin_cap = 0.0
            for sink_cell, _pin in netlist.nets[net_index].sinks:
                sink = netlist.cells[sink_cell]
                if sink.is_output_port:
                    pin_cap += netlist.library.default_port_cap
                else:
                    pin_cap += sink.size.input_cap
            features[i, 4] = pin_cap * cap_scale
            features[i, 8] = net_switching_power(netlist, net_index, frequency) * power_scale
        features[i, 5] = cell.size.input_cap * cell.cell_type.num_inputs * cap_scale
        features[i, 6] = cell_internal_power(netlist, i) * power_scale
        features[i, 7] = cell_leakage_power(netlist, i) * power_scale
        features[i, 9] = cell.toggle_rate
        features[i, 11] = report.cell_slew[i] * time_scale
        worst_in = 0.0
        for driver in netlist.fanin_cells(i):
            worst_in = max(worst_in, report.cell_slew[driver])
        features[i, 12] = worst_in * time_scale

    wst = np.clip(report.cell_worst_slack, -10.0 / time_scale, 1.0 / time_scale)
    features[:, 10] = wst * time_scale
    apparent = report.slack_with_margins
    for k, e in enumerate(report.endpoints):
        features[e, 10] = float(np.clip(apparent[k] * time_scale, -10.0, 1.0))
    for flop, bound in netlist.skew_bounds.items():
        features[flop, 13] = bound * time_scale
    return features


# ---------------------------------------------------------------------- #
# Designs and comparisons
# ---------------------------------------------------------------------- #
def _design(cells, seed=0):
    """perfbench's generated designs: its smoke (320) and 2K (2000) configs."""
    netlist = generate_design(
        GeneratorConfig(
            name=f"array_setup_{cells}",
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


@pytest.fixture(scope="module")
def smoke():
    return _design(320)


@pytest.fixture(scope="module")
def design_2k():
    return _design(2000)


def _flowed_design():
    """A design one flow left unrestored: resized cells and buffers from
    net splits (a fan-out threshold of 1 lets the optimizer split)."""
    netlist, period = _design(320, seed=1)
    report = _context(netlist, period)[2]
    selection = report.endpoints[np.argsort(report.slack)[:8]].tolist()
    nets_before = netlist.num_nets
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datapath_opt, "BUFFER_FANOUT_THRESHOLD", 1)
        result = run_flow(netlist, FlowConfig(clock_period=period, datapath_effort=8.0), selection)
    assert result.datapath_result.sizing_moves > 0
    assert result.datapath_result.buffer_moves > 0
    assert netlist.num_nets > nets_before
    # Output ports sink some nets.
    outports = {c.index for c in netlist.cells if c.is_output_port}
    assert any(
        sink in outports for net in netlist.nets for sink, _pin in net.sinks
    )
    return netlist, period


def assert_compile_matches_loop(netlist):
    ours = compile_timing(netlist)
    oracle = loop_compile(netlist)
    assert {"fanin_idx", "fanin_wire_delay", *FLOAT_COLUMNS, *FLAG_COLUMNS} <= set(ours.buffers)
    assert buffer_mismatches(ours.buffers, oracle.buffers) == []
    assert len(ours.levels) == len(oracle.levels)
    for mine, theirs in zip(ours.levels, oracle.levels):
        assert np.array_equal(mine, theirs)
    # The endpoint order is the netlist's.
    assert ours.endpoint_cells.tolist() == netlist.endpoints()


def assert_features_match_loop(extractor, report, clock, compiled=None, flagged=()):
    ours = extractor.extract(report, clock, masked_or_selected=flagged, compiled=compiled)
    oracle = loop_features(extractor, report, clock, flagged)
    differing = [
        name
        for k, name in enumerate(FEATURE_NAMES)
        if ours[:, k].tobytes() != oracle[:, k].tobytes()
    ]
    assert differing == []
    assert ours.tobytes() == oracle.tobytes()


def _context(netlist, period, margins=None):
    analyzer = TimingAnalyzer(netlist)
    clock = ClockModel.for_netlist(netlist, period)
    report = analyzer.analyze(clock, margins)
    return analyzer, clock, report


# ---------------------------------------------------------------------- #
class TestCompileOracle:
    def test_smoke_design(self, smoke):
        assert_compile_matches_loop(smoke[0])

    def test_2k_design(self, design_2k):
        assert_compile_matches_loop(design_2k[0])

    def test_after_an_unrestored_flow(self):
        netlist, _period = _flowed_design()
        assert_compile_matches_loop(netlist)

    def test_parasitic_scale(self, smoke):
        netlist, _ = smoke
        netlist.parasitic_scale = 1.37
        try:
            assert_compile_matches_loop(netlist)
        finally:
            netlist.parasitic_scale = 1.0

    def test_resize_patch_keeps_the_sink_term(self, smoke):
        netlist, period = smoke
        analyzer, clock, _ = _context(netlist, period)
        cell = next(
            c for c in netlist.cells
            if c.sizing_headroom > 0 and any(n is not None for n in c.fanin_nets)
        )
        previous = netlist.resize_cell(cell.index, cell.size_index + 1)
        try:
            analyzer.notify_resize(cell.index)
            assert buffer_mismatches(
                analyzer.compiled.buffers, loop_compile(netlist).buffers
            ) == []
        finally:
            netlist.resize_cell(cell.index, previous)


class TestFeatureOracle:
    @pytest.mark.parametrize("fixture", ["smoke", "design_2k"])
    def test_designs(self, fixture, request):
        netlist, period = request.getfixturevalue(fixture)
        analyzer, clock, report = _context(netlist, period)
        extractor = FeatureExtractor(netlist)
        flagged = report.endpoints[:5].tolist()
        assert_features_match_loop(extractor, report, clock, analyzer.compiled, flagged)
        # Without a compile the extractor compiles the netlist itself.
        assert_features_match_loop(extractor, report, clock)

    def test_after_an_unrestored_flow(self):
        netlist, period = _flowed_design()
        analyzer, clock, report = _context(netlist, period)
        extractor = FeatureExtractor(netlist)
        assert_features_match_loop(extractor, report, clock, analyzer.compiled)

    def test_parasitic_scale(self, smoke):
        netlist, period = smoke
        netlist.parasitic_scale = 0.8
        try:
            analyzer, clock, report = _context(netlist, period)
            extractor = FeatureExtractor(netlist)
            assert_features_match_loop(extractor, report, clock, analyzer.compiled)
        finally:
            netlist.parasitic_scale = 1.0

    def test_margined_report(self, smoke):
        netlist, period = smoke
        eps = netlist.endpoints()
        margins = {eps[0]: 0.1, eps[3]: 0.25, eps[-1]: 0.05}
        analyzer, clock, report = _context(netlist, period, margins)
        assert report.margins.any()
        extractor = FeatureExtractor(netlist)
        assert_features_match_loop(extractor, report, clock, analyzer.compiled)

    def test_env_base_features(self, smoke):
        netlist, period = smoke
        env = EndpointSelectionEnv(netlist, period)
        env.reset()
        oracle = loop_features(env.extractor, env.begin_report, env._clock)
        assert env.features().tobytes() == oracle.tobytes()


class TestConeOracle:
    """Every ``ConeIndex`` row, read from a compile, is :func:`fanin_cone`
    in ascending cell order, and the transpose lists the same pairs."""

    @pytest.mark.parametrize("fixture", ["smoke", "design_2k"])
    def test_designs(self, fixture, request):
        netlist, _period = request.getfixturevalue(fixture)
        assert_cones_match_walk(netlist)

    def test_after_an_unrestored_flow(self):
        netlist, _period = _flowed_design()
        assert_cones_match_walk(netlist)


def assert_cones_match_walk(netlist):
    endpoints = netlist.endpoints()
    cones = ConeIndex(compile_timing(netlist), endpoints[::-1])
    assert cones.netlist is netlist
    pairs = set()
    indptr, cell_indptr = cones.cone_indptr, cones.cell_indptr
    for position, endpoint in enumerate(endpoints[::-1]):
        row = cones.cone_members[indptr[position] : indptr[position + 1]].tolist()
        assert row == sorted(fanin_cone(netlist, endpoint)), endpoint
        pairs.update((position, cell) for cell in row)
    assert pairs
    transpose = {
        (position, cell)
        for cell in range(netlist.num_cells)
        for position in cones.cell_cones[cell_indptr[cell] : cell_indptr[cell + 1]].tolist()
    }
    assert transpose == pairs
