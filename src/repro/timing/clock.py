"""Clock model with per-flop useful-skew adjustments.

Useful skew moves the clock arrival time of individual capture/launch flops
within physical bounds (set by the generator / user per flop, representing
how much slack the local clock-tree branch can absorb).  A positive arrival
offset on a flop *helps* paths captured by it (later capture edge) and
*hurts* paths launched from it (later launch) — the fundamental trade the
useful-skew engine balances and the reason "over-fixing" one endpoint can
steal slack from its neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

from repro.netlist.core import Netlist
from repro.utils.validation import check_positive


@dataclass
class ClockModel:
    """Clock period plus per-flop arrival offsets and their bounds.

    ``arrivals[f]`` is flop *f*'s clock-arrival offset relative to the
    nominal tree (ns, positive = later edge).  Offsets are clamped to
    ``±bounds[f]``; flops absent from ``bounds`` are immovable.
    """

    period: float
    bounds: Dict[int, float] = field(default_factory=dict)
    arrivals: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("period", self.period)
        for flop, bound in self.bounds.items():
            if bound < 0:
                raise ValueError(f"skew bound of flop {flop} is negative: {bound}")
        for flop, value in self.arrivals.items():
            self._check_within(flop, value)

    @classmethod
    def for_netlist(cls, netlist: Netlist, period: float) -> "ClockModel":
        """Nominal clock (zero skew) with the netlist's per-flop bounds."""
        return cls(period=period, bounds=dict(netlist.skew_bounds))

    # ------------------------------------------------------------------ #
    def bound(self, flop: int) -> float:
        return self.bounds.get(flop, 0.0)

    def arrival(self, flop: int) -> float:
        return self.arrivals.get(flop, 0.0)

    def _check_within(self, flop: int, value: float) -> None:
        bound = self.bound(flop)
        if abs(value) > bound + 1e-12:
            raise ValueError(
                f"clock arrival {value:+.4f} of flop {flop} exceeds "
                f"bound ±{bound:.4f}"
            )

    def set_arrival(self, flop: int, value: float) -> None:
        """Set flop ``flop``'s arrival offset, enforcing its bound."""
        self._check_within(flop, value)
        self.arrivals[flop] = float(value)

    def adjust_arrival(self, flop: int, delta: float) -> float:
        """Add ``delta``, clamped to the bound; returns the applied delta."""
        bound = self.bound(flop)
        current = self.arrival(flop)
        new = float(np.clip(current + delta, -bound, bound))
        self.arrivals[flop] = new
        return new - current

    def copy(self) -> "ClockModel":
        return ClockModel(
            period=self.period, bounds=dict(self.bounds), arrivals=dict(self.arrivals)
        )

    def total_adjustment(self) -> float:
        """Sum of absolute skew applied (a clock-network-perturbation proxy)."""
        return float(sum(abs(v) for v in self.arrivals.values()))

    def adjustments(self) -> Mapping[int, float]:
        """Non-zero arrival offsets (flop → ns), e.g. for Fig.-5 histograms."""
        return {f: v for f, v in self.arrivals.items() if v != 0.0}
