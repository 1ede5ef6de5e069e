"""Figure harnesses: Fig. 5 (arrival-adjustment histogram) and Fig. 6
(transfer-learning convergence).

Fig. 5 — on block11, compare the distribution of per-flop clock arrival
adjustments produced by the default flow against the RL-enhanced flow,
bucketed into the same bins for both ("each pair of juxtaposed color bars
has the same range of arrival values"), alongside the number of endpoints
RL-CCD prioritized.

Fig. 6 — on block19, train RL-CCD from scratch vs. with a pre-trained
EP-GNN (transferred from the other same-technology blocks) and record the
best-so-far TNS per training iteration, demonstrating faster convergence
under transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainingResult, train_rlccd
from repro.agent.transfer import pretrain_on_designs, transfer_epgnn
from repro.benchsuite.designs import BLOCKS, DesignSpec, build_design, get_block
from repro.benchsuite.table2 import Table2Config
from repro.ccd.flow import restore_netlist_state, run_flow, snapshot_netlist_state
from repro.features.table1 import NUM_FEATURES


@dataclass
class Fig5Result:
    """Histogram data for the Fig.-5 comparison."""

    design: str
    bin_edges: np.ndarray  # shared bins (ns)
    default_counts: np.ndarray
    rlccd_counts: np.ndarray
    num_prioritized: int
    default_total_skew: float
    rlccd_total_skew: float


def fig5_arrival_histogram(
    spec: Optional[DesignSpec] = None,
    config: Table2Config = Table2Config(),
    num_bins: int = 12,
) -> Fig5Result:
    """Regenerate Fig. 5 (default spec: block11, as in the paper)."""
    spec = spec if spec is not None else get_block("block11")
    design = build_design(spec)
    netlist = design.netlist
    flow_config = config.flow_config(design.clock_period)
    env = EndpointSelectionEnv(netlist, design.clock_period)
    snapshot = snapshot_netlist_state(netlist)

    default_result = run_flow(netlist, flow_config)
    restore_netlist_state(netlist, snapshot)

    policy = RLCCDPolicy(NUM_FEATURES, rng=config.seed)
    training = train_rlccd(policy, env, flow_config, config.train_config())
    restore_netlist_state(netlist, snapshot)
    rlccd_result = run_flow(
        netlist, flow_config, prioritized_endpoints=training.best_selection
    )
    restore_netlist_state(netlist, snapshot)

    default_adj = np.array(list(default_result.clock.adjustments().values()))
    rlccd_adj = np.array(list(rlccd_result.clock.adjustments().values()))
    all_adj = np.concatenate([default_adj, rlccd_adj]) if (default_adj.size or rlccd_adj.size) else np.zeros(1)
    lo, hi = float(all_adj.min()), float(all_adj.max())
    if lo == hi:
        lo, hi = lo - 1e-3, hi + 1e-3
    edges = np.linspace(lo, hi, num_bins + 1)
    return Fig5Result(
        design=spec.name,
        bin_edges=edges,
        default_counts=np.histogram(default_adj, bins=edges)[0],
        rlccd_counts=np.histogram(rlccd_adj, bins=edges)[0],
        num_prioritized=len(training.best_selection),
        default_total_skew=float(np.abs(default_adj).sum()) if default_adj.size else 0.0,
        rlccd_total_skew=float(np.abs(rlccd_adj).sum()) if rlccd_adj.size else 0.0,
    )


@dataclass
class Fig6Result:
    """Convergence curves for the Fig.-6 comparison."""

    design: str
    scratch_curve: np.ndarray  # best-so-far TNS per episode
    transfer_curve: np.ndarray
    scratch_episodes_to_best: int
    transfer_episodes_to_best: int
    pretrain_designs: List[str]

    @property
    def scratch_final_best(self) -> float:
        return float(self.scratch_curve[-1]) if self.scratch_curve.size else -np.inf

    def episodes_to_reach(self, target_tns: float) -> Tuple[int, int]:
        """Episodes each curve needs to reach ``target_tns`` (0 = never).

        The paper's Fig.-6 claim is exactly this with the scratch agent's
        final quality as the target: the transferred agent converges "to
        comparable optimization results ... in a much faster convergence
        rate".
        """

        def first_at(curve: np.ndarray) -> int:
            hits = np.nonzero(curve >= target_tns - 1e-9)[0]
            return int(hits[0]) + 1 if hits.size else 0

        return first_at(self.scratch_curve), first_at(self.transfer_curve)


def fig6_transfer(
    target: Optional[DesignSpec] = None,
    pretrain_specs: Optional[List[DesignSpec]] = None,
    config: Table2Config = Table2Config(),
) -> Fig6Result:
    """Regenerate Fig. 6 (default: block19, pre-trained on other tech12 blocks).

    The pre-training stage reuses one EP-GNN across the source designs (each
    with a fresh encoder/decoder), then the transferred agent and a
    from-scratch agent train on the unseen target under identical seeds.
    """
    target = target if target is not None else get_block("block19")
    if pretrain_specs is None:
        pretrain_specs = [
            s for s in BLOCKS if s.library == target.library and s.name != target.name
        ][:2]
    if not pretrain_specs:
        raise ValueError("fig6_transfer needs at least one pre-training design")

    # --- pre-train a shared EP-GNN on the source designs --------------- #
    tasks = []
    for spec in pretrain_specs:
        design = build_design(spec)
        env = EndpointSelectionEnv(design.netlist, design.clock_period)
        tasks.append((env, config.flow_config(design.clock_period)))
    pretrained, _ = pretrain_on_designs(
        tasks, NUM_FEATURES, config.train_config(), rng=config.seed
    )

    # --- target design: scratch vs transfer ---------------------------- #
    design = build_design(target)
    flow_config = config.flow_config(design.clock_period)

    env = EndpointSelectionEnv(design.netlist, design.clock_period)
    scratch_policy = RLCCDPolicy(NUM_FEATURES, rng=config.seed)
    scratch = train_rlccd(scratch_policy, env, flow_config, config.train_config())

    transfer_policy = RLCCDPolicy(NUM_FEATURES, rng=config.seed)
    transfer_epgnn(pretrained, transfer_policy)
    transfer = train_rlccd(transfer_policy, env, flow_config, config.train_config())

    return Fig6Result(
        design=target.name,
        scratch_curve=scratch.best_so_far_curve,
        transfer_curve=transfer.best_so_far_curve,
        scratch_episodes_to_best=_episodes_to_best(scratch),
        transfer_episodes_to_best=_episodes_to_best(transfer),
        pretrain_designs=[s.name for s in pretrain_specs],
    )


def _episodes_to_best(result: TrainingResult) -> int:
    """First episode index (1-based) at which the best TNS was reached."""
    curve = result.tns_curve
    if curve.size == 0:
        return 0
    return int(np.argmax(curve >= result.best_tns - 1e-12)) + 1
