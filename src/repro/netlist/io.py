"""Netlist (de)serialization to a JSON interchange format.

Lets users persist generated designs (with placement, skew bounds and
toggle rates), share reproducible benchmark inputs, and load designs
produced outside the generator.  The format is deliberately simple and
versioned:

.. code-block:: json

    {
      "format": "repro-netlist",
      "version": 1,
      "name": "block5",
      "library": "tech5",
      "parasitic_scale": 1.0,
      "cells": [
        {"name": "ff0", "type": "DFF", "size": 1, "x": 1.0, "y": 2.0,
         "toggle": 0.12, "cluster": 0, "skew_bound": 0.08},
        ...
      ],
      "nets": [
        {"name": "n0", "driver": "ff0", "sinks": [["u1_inv", 0]]},
        ...
      ]
    }

Cells are referenced by name (stable across round trips); the library is
referenced by name and must exist in :data:`repro.netlist.library.LIBRARIES`
at load time — cell geometry/electrical data are library-owned, not
serialized.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List

from repro.netlist.core import Cell, Netlist
from repro.netlist.library import get_library
from repro.netlist.validate import validate_netlist

FORMAT_NAME = "repro-netlist"
FORMAT_VERSION = 1


def netlist_to_dict(netlist: Netlist) -> Dict[str, Any]:
    """Serialize ``netlist`` to a JSON-ready dictionary."""
    cells = []
    for cell in netlist.cells:
        entry: Dict[str, Any] = {
            "name": cell.name,
            "type": cell.cell_type.name,
            "size": cell.size_index,
            "x": cell.x,
            "y": cell.y,
            "toggle": cell.toggle_rate,
            "cluster": cell.cluster,
        }
        if cell.index in netlist.skew_bounds:
            entry["skew_bound"] = netlist.skew_bounds[cell.index]
        cells.append(entry)
    nets = [
        {
            "name": net.name,
            "driver": netlist.cells[net.driver].name,
            "sinks": [
                [netlist.cells[cell_index].name, pin]
                for cell_index, pin in net.sinks
            ],
        }
        for net in netlist.nets
    ]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": netlist.name,
        "library": netlist.library.name,
        "parasitic_scale": netlist.parasitic_scale,
        "cells": cells,
        "nets": nets,
    }


def netlist_from_dict(data: Dict[str, Any]) -> Netlist:
    """Reconstruct a netlist from :func:`netlist_to_dict` output.

    Never trusts external input: every malformed document raises
    ``ValueError`` naming the cell or net and the field at fault (a missing
    key, a non-finite or out-of-range number, an unknown library, cell type
    or cell reference, a size or pin index out of range), and the result is
    re-validated structurally.
    """
    if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
        found = data.get("format") if isinstance(data, dict) else data
        raise ValueError(f"not a {FORMAT_NAME} document (format={found!r})")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported {FORMAT_NAME} version {version!r} "
            f"(supported: {FORMAT_VERSION})"
        )
    name = _string(data, "name", "design")
    try:
        library = get_library(_string(data, "library", "design"))
    except KeyError as exc:
        raise ValueError(f"design: field 'library': {exc.args[0]}") from None
    netlist = Netlist(name, library)
    netlist.parasitic_scale = _number(data, "parasitic_scale", "design", 1.0)
    if netlist.parasitic_scale <= 0:
        raise ValueError(
            f"design: field 'parasitic_scale' must be > 0, "
            f"got {netlist.parasitic_scale}"
        )

    for position, entry in enumerate(_objects(data, "cells")):
        cell_name = _string(entry, "name", f"cell #{position}")
        where = f"cell {cell_name!r}"
        type_name = _string(entry, "type", where)
        if type_name not in library.cell_types:
            raise ValueError(
                f"{where}: field 'type': unknown cell type {type_name!r} in "
                f"library {library.name!r}"
            )
        cell_type = library.cell_types[type_name]
        size = _integer(entry.get("size", 0), where, "size")
        if not 0 <= size <= cell_type.max_size_index:
            raise ValueError(
                f"{where}: field 'size' {size} out of range for {type_name} "
                f"(0..{cell_type.max_size_index})"
            )
        cell = netlist.add_cell(cell_name, cell_type, size)
        cell.x = _number(entry, "x", where, 0.0)
        cell.y = _number(entry, "y", where, 0.0)
        cell.toggle_rate = _number(entry, "toggle", where, 0.1)
        if cell.toggle_rate < 0:
            raise ValueError(
                f"{where}: field 'toggle' must be >= 0, got {cell.toggle_rate}"
            )
        cell.cluster = _integer(entry.get("cluster", 0), where, "cluster")
        if "skew_bound" in entry:
            bound = _number(entry, "skew_bound", where, 0.0)
            if bound < 0:
                raise ValueError(f"{where} has negative skew bound {bound}")
            netlist.skew_bounds[cell.index] = bound

    for position, entry in enumerate(_objects(data, "nets")):
        where = f"net {_string(entry, 'name', f'net #{position}')!r}"
        driver = _cell_ref(netlist, _field(entry, "driver", where), where, "driver")
        net = netlist.add_net(entry["name"], driver.index)
        sinks = _field(entry, "sinks", where)
        if not isinstance(sinks, list):
            raise ValueError(f"{where}: field 'sinks' must be a list")
        for sink in sinks:
            if not isinstance(sink, list) or len(sink) != 2:
                raise ValueError(
                    f"{where}: field 'sinks' entries must be [cell, pin], "
                    f"got {sink!r}"
                )
            cell = _cell_ref(netlist, sink[0], where, "sinks")
            pin = _integer(sink[1], where, "sinks")
            netlist.connect(net.index, cell.index, pin)

    validate_netlist(netlist)
    return netlist


def _field(entry: Dict[str, Any], field: str, where: str) -> Any:
    if field not in entry:
        raise ValueError(f"{where}: missing field {field!r}")
    return entry[field]


def _string(entry: Dict[str, Any], field: str, where: str) -> str:
    value = _field(entry, field, where)
    if not isinstance(value, str):
        raise ValueError(f"{where}: field {field!r} must be a string, got {value!r}")
    return value


def _number(entry: Dict[str, Any], field: str, where: str, default: float) -> float:
    """``entry[field]`` as a finite float (``default`` when absent)."""
    value = entry.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: field {field!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{where}: field {field!r} must be finite, got {value}")
    return number


def _integer(value: Any, where: str, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: field {field!r} must be an integer, got {value!r}")
    return value


def _objects(data: Dict[str, Any], field: str) -> List[Dict[str, Any]]:
    entries = _field(data, field, "design")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"design: field {field!r} must be a list of objects")
    return entries


def _cell_ref(netlist: Netlist, name: Any, where: str, field: str) -> Cell:
    try:
        return netlist.cell_by_name(name)
    except (KeyError, TypeError):
        raise ValueError(
            f"{where}: field {field!r} names unknown cell {name!r}"
        ) from None


def save_netlist(netlist: Netlist, path: str, indent: int = 1) -> None:
    """Write ``netlist`` as JSON to ``path`` (parent dirs created)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(netlist_to_dict(netlist), handle, indent=indent)


def load_netlist(path: str) -> Netlist:
    """Load a netlist previously written by :func:`save_netlist`."""
    with open(path) as handle:
        return netlist_from_dict(json.load(handle))
