"""Micro-benchmarks for the substrate engines.

Not paper artifacts — these track the throughput of the pieces the RL loop
hammers (STA, EP-GNN forward+backward, cone indexing, flow replay) so
regressions in the hot path are visible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.ccd.flow import (
    FlowConfig,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.features.cones import ConeIndex
from repro.features.table1 import NUM_FEATURES, FeatureExtractor
from repro.gnn.epgnn import EPGNN
from repro.netlist.generator import quick_design
from repro.netlist.transform import to_message_passing_graph
from repro.placement.global_place import PlacementConfig, place_design
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer, compile_timing


@pytest.fixture(scope="module")
def design_1k():
    netlist = quick_design(name="bench1k", n_cells=1000, seed=3)
    place_design(netlist, PlacementConfig(seed=1))
    analyzer = TimingAnalyzer(netlist)
    nominal = netlist.library.default_clock_period
    report = analyzer.analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, 0.35)
    return netlist, period


def test_sta_full_analysis(benchmark, design_1k):
    netlist, period = design_1k
    analyzer = TimingAnalyzer(netlist)
    clock = ClockModel.for_netlist(netlist, period)
    analyzer.analyze(clock)  # warm compile
    benchmark(lambda: analyzer.analyze(clock))


def test_sta_recompile_after_mutation(benchmark, design_1k):
    netlist, period = design_1k
    analyzer = TimingAnalyzer(netlist)
    clock = ClockModel.for_netlist(netlist, period)

    def recompile_and_analyze():
        analyzer.invalidate()
        return analyzer.analyze(clock)

    benchmark(recompile_and_analyze)


def test_cone_index_build(benchmark, design_1k):
    netlist, _ = design_1k
    compiled = compile_timing(netlist)
    endpoints = netlist.endpoints()
    benchmark(lambda: ConeIndex(compiled, endpoints))


def test_feature_extraction(benchmark, design_1k):
    netlist, period = design_1k
    analyzer = TimingAnalyzer(netlist)
    clock = ClockModel.for_netlist(netlist, period)
    report = analyzer.analyze(clock)
    extractor = FeatureExtractor(netlist)
    benchmark(lambda: extractor.extract(report, clock))


def test_epgnn_forward(benchmark, design_1k):
    netlist, period = design_1k
    analyzer = TimingAnalyzer(netlist)
    clock = ClockModel.for_netlist(netlist, period)
    report = analyzer.analyze(clock)
    graph = to_message_passing_graph(netlist)
    cones = ConeIndex(analyzer.compiled, netlist.endpoints())
    features = FeatureExtractor(netlist).extract(report, clock)
    gnn = EPGNN(NUM_FEATURES, rng=0)
    benchmark(lambda: gnn(features, graph, cones))


def test_policy_rollout(benchmark, design_1k):
    netlist, period = design_1k
    env = EndpointSelectionEnv(netlist, period)
    policy = RLCCDPolicy(NUM_FEATURES, rng=0)
    rng = np.random.default_rng(0)
    benchmark.pedantic(
        lambda: policy.rollout(env, rng=rng), rounds=3, iterations=1
    )


def test_default_flow_replay(benchmark, design_1k):
    netlist, period = design_1k
    snapshot = snapshot_netlist_state(netlist)
    config = FlowConfig(clock_period=period)

    def replay():
        restore_netlist_state(netlist, snapshot)
        return run_flow(netlist, config)

    benchmark.pedantic(replay, rounds=3, iterations=1)
    restore_netlist_state(netlist, snapshot)
