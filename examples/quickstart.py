#!/usr/bin/env python
"""Quickstart: train RL-CCD on one synthetic design and beat the default flow.

Walks the full paper pipeline on a small design (runs in ~1 minute):

1. generate a synthetic register-bound design and globally place it;
2. pick a clock period that leaves ~35% of endpoints violating
   (the post-global-placement state Table II starts from);
3. run the *default tool flow* (useful skew + data-path optimization,
   no endpoint prioritization);
4. train the RL-CCD agent (EP-GNN + LSTM + pointer attention, REINFORCE)
   to select endpoints for useful-skew prioritization;
5. compare final WNS / TNS / NVE and power.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ClockModel,
    EndpointSelectionEnv,
    FlowConfig,
    NUM_FEATURES,
    PlacementConfig,
    RLCCDPolicy,
    TimingAnalyzer,
    TrainConfig,
    choose_clock_period,
    place_design,
    quick_design,
    report_power,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
    summarize,
    train_rlccd,
)


def main() -> None:
    # --- 1. design + placement ---------------------------------------- #
    netlist = quick_design(name="quickstart", n_cells=700, seed=11)
    place_design(netlist, PlacementConfig(seed=1))
    print(f"design: {netlist}")

    # --- 2. clock constraint ------------------------------------------ #
    analyzer = TimingAnalyzer(netlist)
    nominal = netlist.library.default_clock_period
    report = analyzer.analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, violating_fraction=0.35)
    begin = summarize(analyzer.analyze(ClockModel.for_netlist(netlist, period)))
    print(f"clock period: {period:.3f} ns")
    print(f"begin (post global place): {begin}")

    # --- 3. default tool flow ------------------------------------------ #
    snapshot = snapshot_netlist_state(netlist)
    flow_config = FlowConfig(clock_period=period)
    default = run_flow(netlist, flow_config)
    default_power = report_power(netlist, default.clock)
    restore_netlist_state(netlist, snapshot)
    print(f"default tool flow:         {default.final}")

    # --- 4. RL-CCD training --------------------------------------------- #
    env = EndpointSelectionEnv(netlist, period, rho=0.3)
    print(f"violating endpoints available to the agent: {env.num_endpoints}")
    policy = RLCCDPolicy(NUM_FEATURES, rng=0)
    result = train_rlccd(
        policy,
        env,
        flow_config,
        TrainConfig(max_episodes=16, plateau_patience=3, seed=1),
        progress=lambda r: print(
            f"  episode {r.episode + 1:>2}: TNS {r.tns:8.3f} "
            f"({r.num_selected} endpoints selected)"
        ),
    )

    # --- 5. comparison --------------------------------------------------- #
    restore_netlist_state(netlist, snapshot)
    rlccd = run_flow(netlist, flow_config, prioritized_endpoints=result.best_selection)
    rlccd_power = report_power(netlist, rlccd.clock)
    restore_netlist_state(netlist, snapshot)
    print(f"RL-CCD enhanced flow:      {rlccd.final}")
    if default.final.tns != 0:
        gain = 100.0 * (1.0 - rlccd.final.tns / default.final.tns)
        print(f"TNS improvement vs default flow: {gain:+.1f}%")
    print(
        f"power: default {default_power.total:.2f} mW, "
        f"RL-CCD {rlccd_power.total:.2f} mW"
    )
    print(f"prioritized endpoints: {result.best_selection}")

    # --- visual summary ---------------------------------------------------- #
    from repro.viz import slack_profile, sparkline

    print(f"\nepisode TNS trend: {sparkline(result.tns_curve)}")
    print("\nfinal endpoint slack profile (RL-CCD flow):")
    print(slack_profile(rlccd.report.slack, width=56, height=9))


if __name__ == "__main__":
    main()
