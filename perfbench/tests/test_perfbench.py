"""Tests of the benchmark itself: determinism, layer closure, clean unwrapping.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402

#: Shortened runs: enough iterations to cover every layer, seconds each.
SHORT = {"train_smoke": 4, "train_2k": 2, "train_2k_w2": 2, "flows_10k": 2}


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Nested:
    def outer(self) -> None:
        _spin(0.002)
        self.inner()
        self.inner()

    def inner(self) -> None:
        _spin(0.003)

    def boom(self) -> None:
        self.inner()
        raise RuntimeError("boom")


def _patched_attributes():
    """Every attribute :func:`layers.install` replaces, as (owner, name)."""
    probe = LayerTracer()
    layers.install(probe)
    targets = [(owner, attr) for owner, attr, _ in probe._patches]
    probe.restore()
    return targets


def test_self_times_add_up_to_top_level_time():
    with LayerTracer() as tracer:
        tracer.wrap(_Nested, "outer", "a")
        tracer.wrap(_Nested, "inner", "b")
        tracer.active = True
        start = time.perf_counter()
        _Nested().outer()
        wall = time.perf_counter() - start
    assert tracer.calls == {"a": 1, "b": 2}
    assert tracer.self_s["b"] >= 0.006
    assert 0.002 <= tracer.self_s["a"] < tracer.self_s["b"]
    assert tracer.attributed_s() == pytest.approx(tracer.top_s, rel=1e-12)
    assert layers.closure_error(tracer, wall) <= 1e-9
    # An accounting that charged more than the wall clock fails closure.
    assert layers.closure_error(tracer, tracer.top_s / 2) > 0.01


def test_wrappers_restored_after_exception():
    original = vars(_Nested)["inner"]
    with pytest.raises(RuntimeError):
        with LayerTracer() as tracer:
            tracer.wrap(_Nested, "inner", "b")
            tracer.active = True
            _Nested().boom()
    assert vars(_Nested)["inner"] is original
    assert tracer.calls["b"] == 1 and not tracer._stack


def test_install_restores_every_program_function():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in _patched_attributes()}
    assert len(before) >= 18
    with LayerTracer() as tracer:
        layers.install(tracer)
        assert all(vars(o)[a] is not f for (o, a), f in before.items())
    assert all(vars(o)[a] is f for (o, a), f in before.items())


def test_flow_selections_ask_for_the_same_work_on_every_seed():
    endpoints = list(range(100, 300))
    sizes = {
        seed: sorted(len(s) for s in workloads.flow_selections(endpoints, seed, 40))
        for seed in (1, 2, 3)
    }
    assert sizes[1] == sizes[2] == sizes[3]
    assert sizes[1][0] == 0 and sizes[1][-1] == len(endpoints) // 4
    assert workloads.flow_selections(endpoints, 1, 40) != workloads.flow_selections(
        endpoints, 2, 40
    )


def test_timings_are_scaled_by_the_time_weighted_host_references():
    ref = workloads.REFERENCE_S
    run = workloads.RunResult(
        iterations=2, episodes=2, walls=[1.0, 3.0], refs=[ref, ref, 3 * ref],
        setup_samples=[], setup_scales=[], records=[], best_tns=0.0,
        best_selection=[], default_tns=0.0, failed=0,
    )
    # Weights 0.5, 2.0 and 1.5 s: the mean reference is 7/4 of REFERENCE_S.
    assert run.host_scale() == pytest.approx(4 / 7)
    assert run.scaled_walls() == pytest.approx([4 / 7, 12 / 7])
    assert workloads.HostReference().time() > 0.0


@pytest.mark.parametrize("name", sorted(SHORT))
def test_same_seed_runs_are_identical(name):
    first = workloads.run_workload(name, seed=3, iterations=SHORT[name])
    second = workloads.run_workload(name, seed=3, iterations=SHORT[name])
    assert first.correct and second.correct, (first.checks, second.checks)
    assert first.history_sha256() == second.history_sha256()
    assert first.best_tns == second.best_tns
    assert len(first.walls) == SHORT[name]


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_run_closes_and_keeps_results(name):
    before = {(owner, attr): vars(owner)[attr] for owner, attr in _patched_attributes()}
    untraced = workloads.run_workload(name, seed=5, iterations=SHORT[name])
    with LayerTracer() as tracer:
        layers.install(tracer)
        traced = workloads.run_workload(name, seed=5, iterations=SHORT[name], tracer=tracer)
    assert all(vars(o)[a] is f for (o, a), f in before.items())
    assert traced.history_sha256() == untraced.history_sha256()

    iteration_s = sum(traced.walls)
    assert layers.closure_error(tracer, iteration_s) <= 0.01
    metrics = layers.layer_metrics(
        tracer, len(traced.walls), iteration_s, traced.setup_samples, 1.0
    )
    # Pooled flows run in the workers, which the learner sees as waiting.
    in_learner = name != "train_2k_w2"
    assert (metrics["timing.analyze.calls"] > 0) == in_learner
    assert (metrics["ccd.datapath_opt.probes"] > 0) == in_learner
    assert metrics["unattributed.self_ms"] >= -0.01 * 1000.0 * iteration_s / len(traced.walls)
    shares = sum(metrics[f"{layer}.share"] for layer in layers.LAYERS + ("unattributed",))
    assert shares == pytest.approx(1.0, abs=1e-9)
    policy_layers = ("features", "features.masking", "gnn.encode", "nn.decode",
                     "nn.backward", "nn.optim")
    if name == "flows_10k":
        assert all(metrics[f"{layer}.self_ms"] == 0.0 for layer in policy_layers)
    else:
        assert all(metrics[f"{layer}.self_ms"] > 0.0 for layer in policy_layers)
    assert (metrics["agent.parallel.wait_ms"] > 0.0) == (name == "train_2k_w2")
