"""Endpoint-selection environment (the MDP of paper §III-A).

Wraps one placed design in the state the RL agent interacts with:

* **state** — the Table-I feature matrix over all cells, whose "RL masked"
  column reflects the current selected/masked endpoint sets, encoded by
  EP-GNN at every time step (the state ``s_t``);
* **action** — picking one still-valid violating endpoint (``a_t``);
* **transition** — the picked endpoint becomes *selected*; endpoints whose
  fan-in cones overlap it beyond ρ become *masked* (Fig. 3 / Algorithm 1
  line 11); the episode ends when no endpoint remains valid;
* **reward** — zero for intermediate steps; the final TNS after the full
  placement-optimization flow for the terminal step (provided by the
  trainer, not the environment).

The environment owns the canonical violating-endpoint ordering (worst slack
first) shared by the cone index, the policy's probability vector, and the
trainer's bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.features.cones import ConeIndex
from repro.features.table1 import FeatureExtractor
from repro.netlist.core import Netlist
from repro.netlist.transform import MessagePassingGraph, to_message_passing_graph
from repro.timing.clock import ClockModel
from repro.timing.metrics import violating_endpoints
from repro.timing.sta import TimingAnalyzer
from repro.utils.validation import check_probability


@dataclass
class SelectionState:
    """Mutable per-episode selection status over the canonical EP order."""

    valid: np.ndarray  # True = selectable (not selected, not masked)
    selected: List[int]  # positions, in selection order
    masked: Set[int]  # positions masked by overlap

    @property
    def done(self) -> bool:
        return not bool(self.valid.any())


class EndpointSelectionEnv:
    """One design's selection MDP; reusable across episodes via :meth:`reset`."""

    def __init__(
        self,
        netlist: Netlist,
        clock_period: float,
        rho: float = 0.3,
        masking=None,
    ):
        """``masking`` (optional) is a
        :class:`repro.features.adaptive_masking.MaskingStrategy`; when given
        it supersedes the fixed-``rho`` rule (the future-work extension)."""
        check_probability("rho", rho)
        self.netlist = netlist
        self.clock_period = float(clock_period)
        self.rho = rho
        self.masking = masking

        self._analyzer = TimingAnalyzer(netlist)
        self._clock = ClockModel.for_netlist(netlist, self.clock_period)
        self.begin_report = self._analyzer.analyze(self._clock)
        # EP = violating endpoints at the begin state, worst first — the
        # action set of Algorithm 1.
        self.endpoints: List[int] = [
            int(e) for e in violating_endpoints(self.begin_report)
        ]
        if not self.endpoints:
            raise ValueError(
                f"design {netlist.name!r} has no violating endpoints at period "
                f"{clock_period}; nothing for RL-CCD to prioritize"
            )
        self.cones = ConeIndex(self._analyzer.compiled, self.endpoints)
        self.graph: MessagePassingGraph = to_message_passing_graph(netlist)
        self.extractor = FeatureExtractor(netlist)
        # Static feature columns never change during selection; only the
        # "RL masked" column is per-step.  The net columns come from the
        # begin STA's compile.
        self._base_features = self.extractor.extract(
            self.begin_report, self._clock, compiled=self._analyzer.compiled
        )
        self.state: Optional[SelectionState] = None

    # ------------------------------------------------------------------ #
    @property
    def num_endpoints(self) -> int:
        return len(self.endpoints)

    def reset(self) -> SelectionState:
        """Start a fresh episode: everything valid, nothing selected."""
        self.state = SelectionState(
            valid=np.ones(self.num_endpoints, dtype=bool),
            selected=[],
            masked=set(),
        )
        return self.state

    def features(self) -> np.ndarray:
        """Current feature matrix (column 0 = selected ∪ masked cells).

        Returns a **copy** of the env-owned base matrix: steps of one
        episode must not alias each other's arrays, because each step's
        feature matrix stays referenced by that step's autograd tape until
        the REINFORCE update (mutating a shared array in place would make
        every step's backward read the *final* mask column).
        """
        if self.state is None:
            raise RuntimeError("call reset() before features()")
        flagged = [
            self.endpoints[p]
            for p in list(self.state.masked) + self.state.selected
        ]
        return np.array(
            self.extractor.update_mask_column(self._base_features, flagged),
            copy=True,
        )

    def step(self, position: int) -> SelectionState:
        """Select endpoint at canonical ``position``; apply overlap masking."""
        state = self.state
        if state is None:
            raise RuntimeError("call reset() before step()")
        if not 0 <= position < self.num_endpoints:
            raise IndexError(f"endpoint position {position} out of range")
        if not state.valid[position]:
            raise ValueError(f"endpoint position {position} is not valid")
        endpoint = self.endpoints[position]
        state.valid[position] = False
        state.selected.append(position)
        if self.masking is not None:
            to_mask = self.masking.mask_after_selection(
                self.cones, endpoint, state.valid, len(state.selected) - 1
            )
        else:
            to_mask = self.cones.mask_after_selection(
                endpoint, state.valid, self.rho
            )
        for p in np.nonzero(to_mask)[0]:
            state.valid[p] = False
            state.masked.add(int(p))
        return state

    def selected_cells(self) -> List[int]:
        """Selected endpoints as netlist cell indices (selection order)."""
        if self.state is None:
            return []
        return [self.endpoints[p] for p in self.state.selected]
