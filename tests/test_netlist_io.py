"""Tests for netlist JSON serialization."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlist.generator import quick_design
from repro.netlist.io import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_netlist,
    netlist_from_dict,
    netlist_to_dict,
    save_netlist,
)
from repro.placement.global_place import PlacementConfig, place_design
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer


@pytest.fixture
def placed():
    nl = quick_design(name="io_test", n_cells=250, seed=61)
    place_design(nl, PlacementConfig(seed=1))
    return nl


class TestRoundTrip:
    def test_structure_preserved(self, placed):
        data = netlist_to_dict(placed)
        restored = netlist_from_dict(data)
        assert restored.num_cells == placed.num_cells
        assert restored.num_nets == placed.num_nets
        assert restored.name == placed.name
        assert restored.library.name == placed.library.name
        for a, b in zip(placed.cells, restored.cells):
            assert a.name == b.name
            assert a.cell_type.name == b.cell_type.name
            assert a.size_index == b.size_index
            assert a.x == b.x and a.y == b.y
            assert a.toggle_rate == b.toggle_rate
            assert a.cluster == b.cluster

    def test_skew_bounds_preserved(self, placed):
        restored = netlist_from_dict(netlist_to_dict(placed))
        assert restored.skew_bounds == placed.skew_bounds

    def test_connectivity_preserved(self, placed):
        restored = netlist_from_dict(netlist_to_dict(placed))
        for a, b in zip(placed.nets, restored.nets):
            assert a.driver == b.driver
            assert a.sinks == b.sinks

    def test_timing_identical_after_roundtrip(self, placed):
        restored = netlist_from_dict(netlist_to_dict(placed))
        period = placed.library.default_clock_period
        rep_a = TimingAnalyzer(placed).analyze(ClockModel.for_netlist(placed, period))
        rep_b = TimingAnalyzer(restored).analyze(
            ClockModel.for_netlist(restored, period)
        )
        np.testing.assert_allclose(rep_a.slack, rep_b.slack)

    def test_parasitic_scale_preserved(self, placed):
        placed.parasitic_scale = 1.3
        restored = netlist_from_dict(netlist_to_dict(placed))
        assert restored.parasitic_scale == 1.3
        placed.parasitic_scale = 1.0

    def test_file_roundtrip(self, placed, tmp_path):
        path = str(tmp_path / "designs" / "d.json")
        save_netlist(placed, path)
        restored = load_netlist(path)
        assert restored.num_cells == placed.num_cells

    def test_json_is_plain_data(self, placed):
        text = json.dumps(netlist_to_dict(placed))
        assert FORMAT_NAME in text


class TestValidationOnLoad:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a repro-netlist"):
            netlist_from_dict({"format": "verilog", "version": 1})

    def test_wrong_version_rejected(self, placed):
        data = netlist_to_dict(placed)
        data["version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported"):
            netlist_from_dict(data)

    def test_unknown_library_rejected(self, placed):
        data = netlist_to_dict(placed)
        data["library"] = "tech3000"
        with pytest.raises(ValueError, match="field 'library'.*tech3000"):
            netlist_from_dict(data)

    def test_negative_skew_bound_rejected(self, placed):
        data = netlist_to_dict(placed)
        for entry in data["cells"]:
            if "skew_bound" in entry:
                entry["skew_bound"] = -0.5
                break
        with pytest.raises(ValueError, match="negative skew bound"):
            netlist_from_dict(data)

    def test_structurally_invalid_rejected(self, placed):
        data = netlist_to_dict(placed)
        # Drop all nets: every connected input pin disappears -> invalid.
        data["nets"] = []
        with pytest.raises(Exception):
            netlist_from_dict(data)


class TestMalformedFields:
    """Each malformed field raises ``ValueError`` naming its owner and field."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("x", float("nan")),
            ("y", float("inf")),
            ("toggle", float("inf")),
            ("toggle", -1.0),
            ("toggle", "0.2"),
            ("size", 99),
            ("size", -1),
            ("size", 1.5),
            ("type", "NOT_A_CELL"),
        ],
    )
    def test_bad_cell_field(self, placed, field, value):
        data = netlist_to_dict(placed)
        cell = data["cells"][3]
        cell[field] = value
        with pytest.raises(ValueError, match=f"cell {cell['name']!r}.*'{field}'"):
            netlist_from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_parasitic_scale(self, placed, value):
        data = netlist_to_dict(placed)
        data["parasitic_scale"] = value
        with pytest.raises(ValueError, match="design: field 'parasitic_scale'"):
            netlist_from_dict(data)

    def test_nan_skew_bound(self, placed):
        data = netlist_to_dict(placed)
        cell = next(e for e in data["cells"] if "skew_bound" in e)
        cell["skew_bound"] = float("nan")
        with pytest.raises(ValueError, match="'skew_bound'"):
            netlist_from_dict(data)

    @pytest.mark.parametrize("field", ["name", "library", "cells", "nets"])
    def test_missing_design_field(self, placed, field):
        data = netlist_to_dict(placed)
        del data[field]
        with pytest.raises(ValueError, match=f"design: missing field '{field}'"):
            netlist_from_dict(data)

    def test_missing_cell_name(self, placed):
        data = netlist_to_dict(placed)
        del data["cells"][5]["name"]
        with pytest.raises(ValueError, match="cell #5: missing field 'name'"):
            netlist_from_dict(data)

    def test_unknown_net_sink(self, placed):
        data = netlist_to_dict(placed)
        net = data["nets"][2]
        net["sinks"][0][0] = "ghost"
        with pytest.raises(
            ValueError, match=f"net {net['name']!r}: field 'sinks'.*'ghost'"
        ):
            netlist_from_dict(data)

    def test_unknown_net_driver(self, placed):
        data = netlist_to_dict(placed)
        net = data["nets"][1]
        net["driver"] = "ghost"
        with pytest.raises(ValueError, match=f"net {net['name']!r}: field 'driver'"):
            netlist_from_dict(data)

    def test_pin_out_of_range(self, placed):
        data = netlist_to_dict(placed)
        data["nets"][0]["sinks"][0][1] = 7
        with pytest.raises(ValueError, match="no input pin 7"):
            netlist_from_dict(data)


# One small design shared by the property tests (read-only: each example
# mutates a deep copy of its document).
_DOC = netlist_to_dict(quick_design(name="io_fuzz", n_cells=60, seed=3))
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_WRONG_TYPE = st.one_of(
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def _mutation(kind, draw_index, value):
    """Apply one always-invalid mutation to a copy of ``_DOC``."""
    data = copy.deepcopy(_DOC)
    cell = data["cells"][draw_index % len(data["cells"])]
    net = data["nets"][draw_index % len(data["nets"])]
    if kind == "cell_number":
        cell[["x", "y", "toggle"][draw_index % 3]] = value
    elif kind == "scale":
        data["parasitic_scale"] = value
    elif kind == "negative_toggle":
        cell["toggle"] = -abs(value) - 1e-9
    elif kind == "drop_design_key":
        del data[["name", "library", "cells", "nets"][draw_index % 4]]
    elif kind == "drop_cell_key":
        del cell[["name", "type"][draw_index % 2]]
    elif kind == "drop_net_key":
        del net[["name", "driver", "sinks"][draw_index % 3]]
    elif kind == "unknown_type":
        cell["type"] = "NO_SUCH_TYPE"
    elif kind == "size_out_of_range":
        cell["size"] = 64 + draw_index if draw_index % 2 else -1 - draw_index
    elif kind == "unknown_reference":
        if draw_index % 2:
            net["driver"] = "no_such_cell"
        else:
            net["sinks"][0][0] = "no_such_cell"
    elif kind == "pin_out_of_range":
        net["sinks"][0][1] = 16 + draw_index if draw_index % 2 else -1
    elif kind == "wrong_type":
        target = [
            (cell, "x"), (cell, "size"), (cell, "name"), (cell, "type"),
            (net, "driver"), (net, "sinks"), (data, "name"), (data, "cells"),
        ][draw_index % 8]
        target[0][target[1]] = value
    return data


_KINDS = [
    "cell_number", "scale", "negative_toggle", "drop_design_key",
    "drop_cell_key", "drop_net_key", "unknown_type", "size_out_of_range",
    "unknown_reference", "pin_out_of_range", "wrong_type",
]


class TestLoaderFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kind=st.sampled_from(_KINDS),
        index=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_every_invalid_mutation_raises_value_error(self, kind, index, data):
        if kind in ("cell_number", "scale"):
            value = data.draw(_NON_FINITE)
        elif kind == "wrong_type":
            value = data.draw(_WRONG_TYPE)
        else:
            value = data.draw(st.floats(min_value=0.0, max_value=10.0))
        document = _mutation(kind, index, value)
        with pytest.raises(ValueError):
            netlist_from_dict(document)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        index=st.integers(min_value=0, max_value=10_000),
        field=st.sampled_from(["x", "y", "toggle", "size", "cluster", "type"]),
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(min_value=-3, max_value=5),
            st.text(max_size=4),
            st.none(),
        ),
    )
    def test_any_cell_field_value_loads_finite_or_raises(self, index, field, value):
        """Whatever one cell field holds, the loader either rejects the
        document with ``ValueError`` or yields a design whose timing report
        is entirely finite."""
        document = copy.deepcopy(_DOC)
        document["cells"][index % len(document["cells"])][field] = value
        try:
            netlist = netlist_from_dict(document)
        except ValueError:
            return
        report = TimingAnalyzer(netlist).analyze(
            ClockModel.for_netlist(netlist, netlist.library.default_clock_period)
        )
        assert np.all(np.isfinite(report.slack))
