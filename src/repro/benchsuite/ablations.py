"""Ablation harnesses for the paper's design choices.

* **A1 — over-fix vs under-fix** (§III-A: "we empirically observe that the
  proposed method (useful skew over-fix) works significantly better"):
  compare margining the selected endpoints to WNS (over-fix) against giving
  them a negative margin (under-fix: their apparent slack improves, so the
  skew engine de-prioritizes them and the data-path engine must carry them).
* **A2 — overlap threshold ρ** (§III-C / §IV-C): sweep ρ and report the
  selection sizes and achieved TNS; ρ = 1.0 disables masking entirely.
* **A3 — selection baselines** (§IV-A context): RL-CCD against no
  selection, worst-slack top-K, random-K, and greedy-overlap selection.
* **A4 — masking strategies with PPA quantification** (§V future work):
  fixed-ρ vs size-adaptive vs decaying masking, reporting timing, power
  *and area* of the resulting flows.
* **A5 — full-flow optimization** (§V future work): native multi-stage
  flow vs per-stage re-prioritization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


from repro.agent.baselines import (
    select_greedy_overlap,
    select_random,
    select_worst_slack,
)
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import train_rlccd
from repro.benchsuite.designs import DesignSpec, build_design, get_block
from repro.benchsuite.table2 import Table2Config
from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.features.table1 import NUM_FEATURES
from repro.power.models import report_power


@dataclass
class AblationPoint:
    """One configuration's outcome."""

    label: str
    tns: float
    wns: float
    nve: int
    num_selected: int


def overfix_vs_underfix(
    spec: Optional[DesignSpec] = None,
    config: Table2Config = Table2Config(),
    underfix_margin: float = -0.05,
) -> List[AblationPoint]:
    """A1: same RL-trained selection, opposite margin directions.

    Defaults to block17, a design with a strong prioritization response,
    so the over-fix/under-fix contrast is visible above training noise.
    """
    spec = spec if spec is not None else get_block("block17")
    design = build_design(spec)
    netlist = design.netlist
    env = EndpointSelectionEnv(netlist, design.clock_period)
    snapshot = snapshot_netlist_state(netlist)

    policy = RLCCDPolicy(NUM_FEATURES, rng=config.seed)
    base_flow = config.flow_config(design.clock_period)
    training = train_rlccd(policy, env, base_flow, config.train_config())
    selection = training.best_selection

    points: List[AblationPoint] = []
    for label, margin_mode in (
        ("default (no selection)", None),
        ("over-fix (margin to WNS)", "wns"),
        (f"under-fix (margin {underfix_margin})", underfix_margin),
    ):
        restore_netlist_state(netlist, snapshot)
        flow_cfg = FlowConfig(
            clock_period=design.clock_period,
            datapath_effort=base_flow.datapath_effort,
            margin_mode=margin_mode if margin_mode is not None else "wns",
        )
        selected = [] if margin_mode is None else selection
        result = run_flow(netlist, flow_cfg, prioritized_endpoints=selected)
        points.append(
            AblationPoint(
                label=label,
                tns=result.final.tns,
                wns=result.final.wns,
                nve=result.final.nve,
                num_selected=len(selected),
            )
        )
    restore_netlist_state(netlist, snapshot)
    return points


def rho_sweep(
    spec: Optional[DesignSpec] = None,
    rhos: Sequence[float] = (0.1, 0.3, 0.6, 0.9, 1.0),
    config: Table2Config = Table2Config(),
) -> List[AblationPoint]:
    """A2: how the overlap threshold shapes selection size and quality.

    Uses the greedy-overlap selector (the agent's loop with a worst-first
    policy) so the sweep isolates the masking mechanism from RL noise.
    """
    spec = spec if spec is not None else get_block("block5")
    design = build_design(spec)
    netlist = design.netlist
    snapshot = snapshot_netlist_state(netlist)
    flow_cfg = config.flow_config(design.clock_period)

    points: List[AblationPoint] = []
    for rho in rhos:
        env = EndpointSelectionEnv(netlist, design.clock_period, rho=rho)
        selection = select_greedy_overlap(env)
        restore_netlist_state(netlist, snapshot)
        result = run_flow(netlist, flow_cfg, prioritized_endpoints=selection)
        points.append(
            AblationPoint(
                label=f"rho={rho}",
                tns=result.final.tns,
                wns=result.final.wns,
                nve=result.final.nve,
                num_selected=len(selection),
            )
        )
        restore_netlist_state(netlist, snapshot)
    return points


def selection_baselines(
    spec: Optional[DesignSpec] = None,
    config: Table2Config = Table2Config(),
) -> List[AblationPoint]:
    """A3: RL-CCD vs the non-learning selection heuristics."""
    spec = spec if spec is not None else get_block("block5")
    design = build_design(spec)
    netlist = design.netlist
    env = EndpointSelectionEnv(netlist, design.clock_period)
    snapshot = snapshot_netlist_state(netlist)
    flow_cfg = config.flow_config(design.clock_period)

    policy = RLCCDPolicy(NUM_FEATURES, rng=config.seed)
    training = train_rlccd(policy, env, flow_cfg, config.train_config())
    restore_netlist_state(netlist, snapshot)

    # Same deployment guard as the Table-II harness: if training found no
    # selection beating the native flow, RL-CCD ships the empty selection.
    default_tns = run_flow(netlist, flow_cfg).final.tns
    restore_netlist_state(netlist, snapshot)
    rl_selection = training.best_selection
    if training.best_tns < default_tns:
        rl_selection = []

    k = max(1, len(training.best_selection))
    selections = {
        "default (none)": [],
        f"worst-slack top-{k}": select_worst_slack(env, k),
        f"random-{k}": select_random(env, k, rng=config.seed),
        "greedy-overlap": select_greedy_overlap(env),
        "RL-CCD": rl_selection,
    }
    points: List[AblationPoint] = []
    for label, selection in selections.items():
        restore_netlist_state(netlist, snapshot)
        result = run_flow(netlist, flow_cfg, prioritized_endpoints=selection)
        points.append(
            AblationPoint(
                label=label,
                tns=result.final.tns,
                wns=result.final.wns,
                nve=result.final.nve,
                num_selected=len(selection),
            )
        )
    restore_netlist_state(netlist, snapshot)
    return points


@dataclass
class PpaPoint:
    """One configuration's full PPA outcome (A4/A5)."""

    label: str
    tns: float
    wns: float
    nve: int
    num_selected: int
    power: float
    area: float


def masking_strategies(
    spec: Optional[DesignSpec] = None,
    config: Table2Config = Table2Config(),
) -> List[PpaPoint]:
    """A4: quantify the PPA impact of overlap-masking variants.

    Uses the greedy-overlap selector under each strategy so differences are
    attributable to the masking rule, not to RL noise.  The paper's fixed
    ρ = 0.3 is the reference; size-adaptive and decaying thresholds are the
    future-work variants from :mod:`repro.features.adaptive_masking`.
    """
    from repro.features.adaptive_masking import DecayingRho, FixedRho, SizeAdaptiveRho

    spec = spec if spec is not None else get_block("block5")
    design = build_design(spec)
    netlist = design.netlist
    snapshot = snapshot_netlist_state(netlist)
    flow_cfg = config.flow_config(design.clock_period)

    strategies = (
        FixedRho(),
        SizeAdaptiveRho(),
        DecayingRho(),
    )
    points: List[PpaPoint] = []
    for strategy in strategies:
        env = EndpointSelectionEnv(
            netlist, design.clock_period, masking=strategy
        )
        selection = select_greedy_overlap(env)
        restore_netlist_state(netlist, snapshot)
        result = run_flow(netlist, flow_cfg, prioritized_endpoints=selection)
        points.append(
            PpaPoint(
                label=strategy.describe(),
                tns=result.final.tns,
                wns=result.final.wns,
                nve=result.final.nve,
                num_selected=len(selection),
                power=report_power(netlist, result.clock).total,
                area=netlist.total_cell_area(),
            )
        )
        restore_netlist_state(netlist, snapshot)
    return points


def full_flow_comparison(
    spec: Optional[DesignSpec] = None,
    config: Table2Config = Table2Config(),
) -> List[PpaPoint]:
    """A5: native multi-stage flow vs per-stage re-prioritization."""
    from repro.agent.baselines import select_worst_slack
    from repro.ccd.fullflow import default_stages, run_full_flow

    spec = spec if spec is not None else get_block("block5")
    design = build_design(spec)
    netlist = design.netlist
    snapshot = snapshot_netlist_state(netlist)
    stages = default_stages(design.clock_period)

    selectors = {
        "native full flow": None,
        "worst-slack each stage": lambda env: select_worst_slack(env, 8),
        "greedy-overlap each stage": select_greedy_overlap,
    }
    points: List[PpaPoint] = []
    for label, selector in selectors.items():
        result = run_full_flow(netlist, stages, selector)
        final_clock = result.stage_results[-1].clock
        power = report_power(netlist, final_clock)
        points.append(
            PpaPoint(
                label=label,
                tns=result.final.tns,
                wns=result.final.wns,
                nve=result.final.nve,
                num_selected=sum(result.selection_counts()),
                power=power.total,
                area=netlist.total_cell_area(),
            )
        )
        restore_netlist_state(netlist, snapshot)
    return points
