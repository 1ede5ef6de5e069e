"""RL-CCD: Concurrent Clock and Data Optimization using Attention-Based
Self-Supervised Reinforcement Learning (Lu et al., DAC 2023) — reproduction.

The package is organized as the paper's system plus every substrate it
depends on:

===================  ========================================================
subpackage           role
===================  ========================================================
``repro.nn``         from-scratch numpy autograd + NN stack (no torch)
``repro.netlist``    cell libraries, netlist model, synthetic design generator
``repro.placement``  synthetic global placement
``repro.timing``     vectorized STA (arrival/required/slack, TNS/WNS/NVE)
``repro.power``      first-order power models
``repro.ccd``        CCD engine: useful skew + data-path opt + placement flow
``repro.features``   Table-I features, fan-in cones, overlap masking
``repro.gnn``        EP-GNN endpoint encoder (Eq. 2–3)
``repro.agent``      selection env, policy (Fig. 4), REINFORCE (Algorithm 1)
``repro.benchsuite`` the 19 blocks + Table-II / Fig-5 / Fig-6 / ablations
===================  ========================================================

Quickstart::

    from repro import (
        quick_design, place_design, EndpointSelectionEnv, RLCCDPolicy,
        FlowConfig, TrainConfig, train_rlccd, run_flow, NUM_FEATURES,
    )

    netlist = quick_design(n_cells=600, seed=7)
    place_design(netlist)
    env = EndpointSelectionEnv(netlist, clock_period=0.4)
    policy = RLCCDPolicy(NUM_FEATURES, rng=0)
    result = train_rlccd(policy, env, FlowConfig(clock_period=0.4))
    print(result.best_tns, result.best_selection)
"""

from repro.agent import (
    EndpointSelectionEnv,
    RLCCDPolicy,
    TrainConfig,
    TrainingResult,
    Trajectory,
    select_greedy_overlap,
    select_none,
    select_random,
    select_worst_slack,
    train_rlccd,
)
from repro.ccd import (
    FlowConfig,
    FlowResult,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.features import NUM_FEATURES, ConeIndex, FeatureExtractor, fanin_cone
from repro.gnn import EPGNN
from repro.netlist import (
    GeneratorConfig,
    Netlist,
    NetlistBuilder,
    generate_design,
    get_library,
    quick_design,
)
from repro.placement import PlacementConfig, place_design
from repro.power import report_power
from repro.timing import (
    ClockModel,
    TimingAnalyzer,
    choose_clock_period,
    summarize,
    violating_endpoints,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # netlist
    "Netlist",
    "NetlistBuilder",
    "GeneratorConfig",
    "generate_design",
    "quick_design",
    "get_library",
    # placement / timing / power
    "PlacementConfig",
    "place_design",
    "ClockModel",
    "TimingAnalyzer",
    "summarize",
    "violating_endpoints",
    "choose_clock_period",
    "report_power",
    # ccd
    "FlowConfig",
    "FlowResult",
    "run_flow",
    "snapshot_netlist_state",
    "restore_netlist_state",
    # features / gnn
    "NUM_FEATURES",
    "FeatureExtractor",
    "ConeIndex",
    "fanin_cone",
    "EPGNN",
    # agent
    "EndpointSelectionEnv",
    "RLCCDPolicy",
    "Trajectory",
    "TrainConfig",
    "TrainingResult",
    "train_rlccd",
    "select_none",
    "select_worst_slack",
    "select_random",
    "select_greedy_overlap",
]
