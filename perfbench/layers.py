"""The layers a traced run attributes time to, and their metrics.

:func:`install` wraps each layer's functions where callers look them up;
the table in ``README.md`` says which end-to-end metric and workload each
layer should move.  A change that speeds up one layer should show its
saving in that layer's self time and in the named end-to-end metric, and
predict no change on the workloads that bypass the layer.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracer import LayerTracer

#: Layers with self time, in report order; ``unattributed`` is the rest of
#: the iteration wall.
LAYERS = (
    "timing.analyze",
    "timing.compile",
    "ccd.datapath_opt",
    "ccd.useful_skew",
    "ccd.flow",
    "ccd.restore",
    "features",
    "features.masking",
    "gnn.encode",
    "nn.decode",
    "nn.backward",
    "nn.optim",
    "agent.parallel",
)

#: Set-up phases, timed by the set-up routines of ``workloads.py``.
SETUP_METRICS = ("setup.env_ms", "setup.policy_ms", "setup.cache_key_ms")


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's functions on ``tracer``."""
    from repro.agent import env, parallel, reinforce
    from repro.ccd import flow
    from repro.features import cones
    from repro.gnn import epgnn, incremental
    from repro.nn import attention, optim, recurrent, tensor
    from repro.timing import sta

    def count_probe(t: LayerTracer, args: tuple, result) -> None:
        if t.on_stack("ccd.datapath_opt"):
            t.counts["datapath.probes"] += 1

    def count_moves(t: LayerTracer, args: tuple, result) -> None:
        t.counts["datapath.moves"] += result.total_moves

    def count_cache(t: LayerTracer, args: tuple, result) -> None:
        t.counts["cache.attempts"] += 1
        t.counts["cache.hits"] += result is not None

    def pool_retries(t: LayerTracer, args: tuple, result) -> None:
        # Cumulative over the pool's life: every failed task respawns its
        # worker before the retry.
        t.counts["pool.retries"] = float(args[0].stats()["worker_restarts"])

    tracer.wrap(sta.TimingAnalyzer, "analyze", "timing.analyze", count_probe)
    tracer.wrap(sta, "compile_timing", "timing.compile")
    tracer.wrap(flow, "optimize_datapath", "ccd.datapath_opt", count_moves)
    tracer.wrap(flow, "optimize_useful_skew", "ccd.useful_skew")
    for module in (flow, parallel, reinforce):
        tracer.wrap(module, "run_flow", "ccd.flow")
        tracer.wrap(module, "restore_netlist_state", "ccd.restore")
    tracer.wrap(env.EndpointSelectionEnv, "features", "features")
    tracer.wrap(cones.ConeIndex, "mask_after_selection", "features.masking")
    tracer.wrap(incremental.EncoderSession, "encode", "gnn.encode")
    tracer.wrap(epgnn.EPGNN, "forward", "gnn.encode")
    tracer.wrap(recurrent.LSTMCell, "forward", "nn.decode")
    tracer.wrap(attention.PointerAttention, "scores", "nn.decode")
    tracer.wrap(tensor.Tensor, "backward", "nn.backward")
    tracer.wrap(optim.Adam, "step", "nn.optim")
    tracer.wrap(reinforce, "clip_gradient_norm", "nn.optim")
    tracer.wrap(parallel.RolloutPool, "evaluate", "agent.parallel", pool_retries)
    tracer.wrap(parallel.RewardCache, "get", None, count_cache)


def self_time_name(layer: str) -> str:
    """Metric name of a layer's self time."""
    return "agent.parallel.wait_ms" if layer == "agent.parallel" else f"{layer}.self_ms"


def closure_error(tracer: LayerTracer, iteration_s: float) -> float:
    """How far the layer accounting misses the iteration wall, as a share.

    Self times must add up to the time spent inside top-level wrapped
    calls, and that can never exceed the iteration wall time; the larger
    of the two violations is returned (0.0 when both hold exactly).
    """
    mismatch = abs(tracer.attributed_s() - tracer.top_s)
    overflow = max(0.0, tracer.top_s - iteration_s)
    return max(mismatch, overflow) / iteration_s


def layer_metrics(
    tracer: LayerTracer,
    iterations: int,
    iteration_s: float,
    setup_samples: List[Dict[str, float]],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Per-layer metric values of one traced run (see ``README.md``)."""
    per_iter_ms = 1000.0 / iterations
    self_s = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    self_s["unattributed"] = iteration_s - tracer.attributed_s()
    values: Dict[str, float] = {}
    for layer, seconds in self_s.items():
        values[self_time_name(layer)] = seconds * per_iter_ms
    for layer, seconds in self_s.items():
        values[f"{layer}.share"] = seconds / iteration_s

    analyze_calls = tracer.calls.get("timing.analyze", 0)
    values["timing.analyze.calls"] = analyze_calls / iterations
    values["timing.analyze.us_p50"] = (
        statistics.median(tracer.durations["timing.analyze"]) * 1e6 if analyze_calls else 0.0
    )
    values["gnn.encode.calls"] = tracer.calls.get("gnn.encode", 0) / iterations
    probes = tracer.counts.get("datapath.probes", 0.0)
    values["ccd.datapath_opt.probes"] = probes / iterations
    values["ccd.datapath_opt.kept_ratio"] = (
        tracer.counts.get("datapath.moves", 0.0) / probes if probes else 0.0
    )
    values["agent.parallel.retries"] = tracer.counts.get("pool.retries", 0.0)
    attempts = tracer.counts.get("cache.attempts", 0.0)
    values["agent.parallel.cache_hit_ratio"] = (
        tracer.counts.get("cache.hits", 0.0) / attempts if attempts else 0.0
    )
    for name in SETUP_METRICS:
        values[name] = statistics.median(sample[name] for sample in setup_samples)
    values["trace.overhead_ratio"] = overhead_ratio
    return values
