"""Table-II harness: default tool flow vs. RL-CCD on each block.

For one block this runs, from the identical post-global-placement state:

1. the **begin** analysis (left-most Table-II columns: WNS/TNS/#vio/power);
2. the **default tool flow** (middle columns) — the CCD placement flow with
   no endpoint prioritization;
3. **RL-CCD training** (Algorithm 1) and the flow under the best selection
   found (right columns), reporting the TNS improvement percentage the
   paper quotes in parentheses, plus runtime normalized to the default flow.

The default flow's runtime is the median of :data:`DEFAULT_FLOW_REPLAYS`
replays from the snapshot: its first run also compiles the begin state, and
one sample of a flow tens of milliseconds long swings the ratio far between
identical runs.

All three share the same seed and the same optimization recipe, matching
the paper's apples-to-apples protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainConfig, TrainingResult, train_rlccd
from repro.benchsuite.designs import DesignSpec, PreparedDesign, build_design
from repro.ccd.flow import (
    FlowConfig,
    FlowResult,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.features.table1 import NUM_FEATURES
from repro.power.models import PowerReport, report_power
from repro.timing.clock import ClockModel
from repro.timing.metrics import TimingSummary
from repro.utils.validation import check_positive

#: Timed replays of the default flow behind ``Table2Row.default_runtime``.
DEFAULT_FLOW_REPLAYS = 5

#: Rollouts per REINFORCE update in every harness run.
EPISODES_PER_UPDATE = 2

#: Datapath-fixing effort of the harnesses' flows.
DATAPATH_EFFORT = 1.5


@dataclass(frozen=True)
class Table2Config:
    """Harness knobs: how long to train per block, and the training seed.

    The rest of the recipe is fixed: ρ = 0.3 (the env's default), the
    trainer's learning rate and plateau patience, and the module constants
    :data:`EPISODES_PER_UPDATE` and :data:`DATAPATH_EFFORT`.

    Every harness keeps a deployment guard: if no trained selection beat
    the default flow, it ships the empty prioritization (which IS the
    native flow — "note that V' is an empty set in the native
    implementation", §III).  The paper's integration would equally never
    apply a selection its own training showed to be harmful.  Rows that
    fall back report 0% improvement.
    """

    max_episodes: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("max_episodes", self.max_episodes)

    def flow_config(self, clock_period: float) -> FlowConfig:
        return FlowConfig(clock_period=clock_period, datapath_effort=DATAPATH_EFFORT)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            max_episodes=self.max_episodes,
            episodes_per_update=EPISODES_PER_UPDATE,
            seed=self.seed,
        )


@dataclass
class Table2Row:
    """One design's row: begin / default / RL-CCD column groups.

    Each power report is :func:`report_power` on that netlist state: the
    begin state, and each flow's final state before the restore.
    """

    design: str
    num_cells: int
    begin: TimingSummary
    begin_power: PowerReport
    default: FlowResult
    default_power: PowerReport
    rlccd: FlowResult
    rlccd_power: PowerReport
    rlccd_selected: int
    training: TrainingResult
    default_runtime: float  # median of the default flow's replays, wall seconds
    rlccd_runtime: float  # training + final flow, wall seconds

    @property
    def tns_improvement_pct(self) -> float:
        """Paper's parenthesized metric: TNS reduction vs default flow (%)."""
        if self.default.final.tns == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.rlccd.final.tns / self.default.final.tns)

    @property
    def nve_improvement_pct(self) -> float:
        if self.default.final.nve == 0:
            return 0.0
        return 100.0 * (1.0 - self.rlccd.final.nve / self.default.final.nve)

    @property
    def power_change_pct(self) -> float:
        base = self.default_power.total
        if base == 0.0:
            return 0.0
        return 100.0 * (self.rlccd_power.total / base - 1.0)

    @property
    def runtime_ratio(self) -> float:
        """RL-CCD wall time normalized by the default flow (paper: 7–47×)."""
        if self.default_runtime <= 0:
            return float("inf")
        return self.rlccd_runtime / self.default_runtime


def run_table2_row(
    spec: DesignSpec,
    config: Table2Config = Table2Config(),
    prepared: Optional[PreparedDesign] = None,
) -> Table2Row:
    """Produce one Table-II row for ``spec`` (deterministic per config)."""
    design = prepared if prepared is not None else build_design(spec)
    netlist = design.netlist
    flow_config = config.flow_config(design.clock_period)

    env = EndpointSelectionEnv(netlist, design.clock_period)
    snapshot = snapshot_netlist_state(
        netlist, verify_clock_period=design.clock_period
    )

    begin_power = report_power(netlist, ClockModel.for_netlist(netlist, design.clock_period))

    # Default tool flow: the row's result and power come from the first
    # run, its runtime from the replays.
    default_result = run_flow(netlist, flow_config)
    default_power = report_power(netlist, default_result.clock)
    restore_netlist_state(netlist, snapshot)
    replay_seconds = []
    for _ in range(DEFAULT_FLOW_REPLAYS):
        t0 = time.perf_counter()
        replay = run_flow(netlist, flow_config)
        replay_seconds.append(time.perf_counter() - t0)
        restore_netlist_state(netlist, snapshot)
        if replay.final != default_result.final:
            raise RuntimeError(
                f"{spec.name}: default flow replay gave {replay.final}, "
                f"the first run {default_result.final}"
            )
    default_runtime = float(np.median(replay_seconds))

    # RL-CCD: train, then report the flow under the best selection found.
    policy = RLCCDPolicy(NUM_FEATURES, rng=config.seed)
    t0 = time.perf_counter()
    training = train_rlccd(policy, env, flow_config, config.train_config())
    rlccd_runtime = time.perf_counter() - t0

    selection = training.best_selection
    if training.best_tns < default_result.final.tns:
        selection = []  # the native flow's (empty) prioritization

    restore_netlist_state(netlist, snapshot)
    rlccd_result = run_flow(netlist, flow_config, prioritized_endpoints=selection)
    rlccd_power = report_power(netlist, rlccd_result.clock)
    restore_netlist_state(netlist, snapshot)

    return Table2Row(
        design=spec.name,
        num_cells=netlist.num_cells,
        begin=default_result.begin,
        begin_power=begin_power,
        default=default_result,
        default_power=default_power,
        rlccd=rlccd_result,
        rlccd_power=rlccd_power,
        rlccd_selected=len(selection),
        training=training,
        default_runtime=default_runtime,
        rlccd_runtime=rlccd_runtime,
    )


def summarize_improvements(rows: List[Table2Row]) -> dict:
    """Suite-level averages the paper quotes (avg −24% TNS, −19% NVE, ~0.2% power)."""
    tns = np.array([r.tns_improvement_pct for r in rows])
    nve = np.array([r.nve_improvement_pct for r in rows])
    power = np.array([r.power_change_pct for r in rows])
    return {
        "avg_tns_improvement_pct": float(tns.mean()),
        "max_tns_improvement_pct": float(tns.max()),
        "avg_nve_improvement_pct": float(nve.mean()),
        "max_nve_improvement_pct": float(nve.max()),
        "avg_power_change_pct": float(power.mean()),
        "designs_improved": int((tns > 0).sum()),
        "num_designs": len(rows),
    }
