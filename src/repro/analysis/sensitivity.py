"""Endpoint sensitivity analysis: clock-fixable vs data-fixable.

The paper's core observation (§I, §IV-C) is that violating endpoints react
differently to the two optimization strategies: "some are easier fixed from
clock-path, while others, datapath".  This module makes that diagnosis
explicit and inspectable — useful both as a design-analysis tool and as a
transparent, non-learning selection heuristic to position the RL agent
against.

For each violating endpoint we compute:

* **clock fixability** — how much of the deficit useful skew could cover:
  ``min(deficit, capture-flop bound, launch-side surplus) / deficit``
  (0 for output ports, which have no capture clock);
* **data fixability** — the mean remaining sizing headroom over the
  endpoint's fan-in cone, normalized by the maximum ladder length (a proxy
  for how much the data-path optimizer can still do there);
* a **classification** into four quadrants: ``clock``, ``data``, ``both``,
  ``stuck``.

:func:`select_clock_sensitive` turns the analysis into a selection: the
endpoints the RL agent *should* discover — clock-fixable but data-stuck —
ordered by deficit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.features.cones import ConeIndex
from repro.netlist.core import Netlist
from repro.timing.clock import ClockModel
from repro.timing.metrics import violating_endpoints
from repro.timing.sta import TimingAnalyzer, TimingReport


@dataclass(frozen=True)
class EndpointSensitivity:
    """One violating endpoint's strategy profile."""

    endpoint: int
    slack: float
    deficit: float  # −slack
    clock_fixability: float  # [0, 1] fraction of deficit skew could cover
    data_fixability: float  # [0, 1] mean normalized cone sizing headroom
    cone_size: int
    classification: str  # "clock" | "data" | "both" | "stuck"


@dataclass
class SensitivityReport:
    """All violating endpoints, worst slack first."""

    design: str
    entries: List[EndpointSensitivity]

    def by_class(self) -> Dict[str, List[EndpointSensitivity]]:
        out: Dict[str, List[EndpointSensitivity]] = {
            "clock": [], "data": [], "both": [], "stuck": []
        }
        for e in self.entries:
            out[e.classification].append(e)
        return out

    def counts(self) -> Dict[str, int]:
        return {k: len(v) for k, v in self.by_class().items()}

    def __str__(self) -> str:
        counts = self.counts()
        lines = [
            f"sensitivity report for {self.design}: "
            f"{len(self.entries)} violating endpoints "
            f"(clock {counts['clock']}, data {counts['data']}, "
            f"both {counts['both']}, stuck {counts['stuck']})",
            f"{'endpoint':>9} {'slack':>8} {'clockfix':>9} {'datafix':>8} "
            f"{'cone':>5} {'class':>6}",
        ]
        for e in self.entries:
            lines.append(
                f"{e.endpoint:>9} {e.slack:>8.3f} {e.clock_fixability:>9.2f} "
                f"{e.data_fixability:>8.2f} {e.cone_size:>5} "
                f"{e.classification:>6}"
            )
        return "\n".join(lines)


def analyze_sensitivity(
    netlist: Netlist,
    clock_period: float,
    fix_threshold: float = 0.5,
    report: Optional[TimingReport] = None,
) -> SensitivityReport:
    """Classify every violating endpoint by strategy sensitivity.

    ``fix_threshold`` is the fixability level above which a strategy counts
    as viable for the quadrant classification.
    """
    if not 0.0 < fix_threshold <= 1.0:
        raise ValueError(f"fix_threshold must be in (0, 1], got {fix_threshold}")
    analyzer = TimingAnalyzer(netlist)
    clock = ClockModel.for_netlist(netlist, clock_period)
    if report is None:
        report = analyzer.analyze(clock)
    violating = [int(e) for e in violating_endpoints(report)]
    cones = ConeIndex(analyzer.compiled, violating)

    entries: List[EndpointSensitivity] = []
    for position, endpoint in enumerate(violating):
        slack = report.endpoint_slack(endpoint)
        deficit = -slack
        cell = netlist.cells[endpoint]

        # Clock side: bound and launch surplus of the capture flop.
        if cell.is_sequential:
            bound = clock.bound(endpoint)
            launch = float(report.cell_worst_slack[endpoint])
            surplus = max(0.0, launch) if np.isfinite(launch) else np.inf
            coverable = min(deficit, bound, surplus)
            clock_fix = float(coverable / deficit) if deficit > 0 else 1.0
        else:
            clock_fix = 0.0  # output ports have no capture clock to move

        # Data side: normalized mean sizing headroom across the cone, in
        # ascending cell order.
        cone = cones.cone_members[cones.cone_indptr[position] : cones.cone_indptr[position + 1]]
        if cone.size:
            ratios = []
            for c in cone:
                cone_cell = netlist.cells[c]
                ladder = cone_cell.cell_type.max_size_index
                if ladder > 0:
                    ratios.append(cone_cell.sizing_headroom / ladder)
            data_fix = float(np.mean(ratios)) if ratios else 0.0
        else:
            data_fix = 0.0

        clock_ok = clock_fix >= fix_threshold
        data_ok = data_fix >= fix_threshold
        if clock_ok and data_ok:
            classification = "both"
        elif clock_ok:
            classification = "clock"
        elif data_ok:
            classification = "data"
        else:
            classification = "stuck"
        entries.append(
            EndpointSensitivity(
                endpoint=endpoint,
                slack=slack,
                deficit=deficit,
                clock_fixability=clock_fix,
                data_fixability=data_fix,
                cone_size=len(cone),
                classification=classification,
            )
        )
    return SensitivityReport(design=netlist.name, entries=entries)


def select_clock_sensitive(
    netlist: Netlist,
    clock_period: float,
    max_count: Optional[int] = None,
    fix_threshold: float = 0.5,
) -> List[int]:
    """Heuristic selection: clock-fixable endpoints, data-stuck ones first.

    The transparent version of what RL-CCD learns: prioritize endpoints the
    skew engine can fix that the data-path optimizer cannot, then
    clock-fixable ones generally, worst deficit first.
    """
    report = analyze_sensitivity(netlist, clock_period, fix_threshold)
    pure_clock = [e for e in report.entries if e.classification == "clock"]
    both = [e for e in report.entries if e.classification == "both"]
    ranked = sorted(pure_clock, key=lambda e: -e.deficit) + sorted(
        both, key=lambda e: -e.deficit
    )
    selection = [e.endpoint for e in ranked]
    if max_count is not None:
        selection = selection[:max_count]
    return selection
