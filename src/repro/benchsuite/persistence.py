"""Persist benchmark results to JSON and compare runs.

Lets users archive a Table-II sweep (`save_rows`), reload it later
(`load_rows`, returning plain dictionaries — the heavyweight flow objects
are summarized, not pickled), and diff two runs for regressions
(`compare_runs`) — the workflow a team tracking optimizer quality over
code changes actually needs.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence

from repro.benchsuite.table2 import Table2Row

RESULTS_FORMAT = "repro-table2-results"
RESULTS_VERSION = 1


def row_to_dict(row: Table2Row) -> Dict[str, Any]:
    """Flatten one Table-II row to JSON-ready primitives."""
    return {
        "design": row.design,
        "num_cells": row.num_cells,
        "begin": {
            "wns": row.begin.wns,
            "tns": row.begin.tns,
            "nve": row.begin.nve,
            "power": row.begin_power.total,
        },
        "default": {
            "wns": row.default.final.wns,
            "tns": row.default.final.tns,
            "nve": row.default.final.nve,
            "power": row.default_power.total,
            "runtime_s": row.default_runtime,
        },
        "rlccd": {
            "wns": row.rlccd.final.wns,
            "tns": row.rlccd.final.tns,
            "nve": row.rlccd.final.nve,
            "power": row.rlccd_power.total,
            "runtime_s": row.rlccd_runtime,
            "selected": row.rlccd_selected,
            "episodes": row.training.episodes_run,
        },
        "tns_improvement_pct": row.tns_improvement_pct,
        "nve_improvement_pct": row.nve_improvement_pct,
        "power_change_pct": row.power_change_pct,
    }


def save_rows(rows: Sequence[Table2Row], path: str) -> None:
    """Write a sweep's rows to ``path`` (parent dirs created)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload = {
        "format": RESULTS_FORMAT,
        "version": RESULTS_VERSION,
        "rows": [row_to_dict(r) for r in rows],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)


def load_rows(path: str) -> List[Dict[str, Any]]:
    """Load a results file written by :func:`save_rows`."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != RESULTS_FORMAT:
        raise ValueError(f"not a {RESULTS_FORMAT} file: {path!r}")
    if payload.get("version") != RESULTS_VERSION:
        raise ValueError(f"unsupported results version {payload.get('version')!r}")
    return payload["rows"]


def compare_runs(
    baseline: List[Dict[str, Any]],
    candidate: List[Dict[str, Any]],
    tolerance_pct: float = 1.0,
) -> Dict[str, Any]:
    """Diff two result sets on the headline metric (RL-CCD final TNS).

    Returns per-design deltas and the lists of regressed/improved designs
    (beyond ``tolerance_pct`` relative change).
    """
    if tolerance_pct < 0:
        raise ValueError("tolerance_pct must be non-negative")
    base_by_design = {r["design"]: r for r in baseline}
    deltas: Dict[str, float] = {}
    regressed: List[str] = []
    improved: List[str] = []
    for row in candidate:
        name = row["design"]
        if name not in base_by_design:
            continue
        base_tns = base_by_design[name]["rlccd"]["tns"]
        cand_tns = row["rlccd"]["tns"]
        deltas[name] = cand_tns - base_tns
        scale = max(abs(base_tns), 1e-9)
        change_pct = 100.0 * (cand_tns - base_tns) / scale
        if change_pct < -tolerance_pct:
            regressed.append(name)
        elif change_pct > tolerance_pct:
            improved.append(name)
    return {
        "common_designs": len(deltas),
        "deltas": deltas,
        "regressed": sorted(regressed),
        "improved": sorted(improved),
    }
