"""The trainer's batch gradient is Eq. 7's, however its backward is scheduled.

``train_rlccd`` backpropagates each trajectory with a unit seed before its
reward arrives, then adds the stored gradients, scaled by each episode's
advantage, once the rewards come in.  These tests capture the gradient the
trainer hands to clipping and compare it with the direct form: one backward
per episode of ``(Σ_t log π)·(−A/B) + (Σ_t H)·(−β/B)``, accumulated in
episode order, on the same tapes.  Scaling a unit-seeded gradient rounds
differently from seeding the scaled loss, so the two agree within
``1e-12·max(1, max|g|)`` per parameter, not bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agent import reinforce
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.agent.reinforce import TrainConfig, train_rlccd
from repro.ccd.flow import FlowConfig
from repro.features.table1 import NUM_FEATURES
from repro.netlist.generator import GeneratorConfig, generate_design
from repro.nn.tensor import clear_grads
from repro.placement.global_place import PlacementConfig, place_design
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer

TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def smoke_design():
    """perfbench's smoke design: 320 generated cells, 40% violating."""
    netlist = generate_design(
        GeneratorConfig(
            name="gradient_smoke", library="tech7", n_cells=320, n_inputs=8, n_outputs=6, seed=0
        )
    )
    place_design(netlist, PlacementConfig(seed=0))
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    return netlist, choose_clock_period(report, nominal, 0.4)


def _reference_gradient(params, trajectories, advantages, beta):
    """The direct form: one backward per episode of the scaled loss."""
    batch_size = len(trajectories)
    # The trainer's walks left gradients on every tape; start from none.
    for trajectory in trajectories:
        clear_grads(trajectory.total_log_prob())
        if beta > 0:
            clear_grads(trajectory.total_entropy())
    for param in params:
        param.grad = None
    for trajectory, advantage in zip(trajectories, advantages):
        loss = trajectory.total_log_prob() * (-advantage / batch_size)
        if beta > 0:
            loss = loss + trajectory.total_entropy() * (-beta / batch_size)
        loss.backward()
    return [param.grad for param in params]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("episodes_per_update", [1, 3])
@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_batch_gradient_equals_the_scaled_loss_backward(
    smoke_design, monkeypatch, workers, episodes_per_update, beta
):
    netlist, period = smoke_design
    env = EndpointSelectionEnv(netlist, period)
    policy = RLCCDPolicy(NUM_FEATURES, rng=5)
    params = policy.parameters()
    trajectories = []  # this batch's, in rollout order (keeps their tapes)
    records = []  # this batch's episode records, in processing order
    batches = []
    advantages = []

    rollout = policy.rollout

    def keeping_rollout(*args, **kwargs):
        trajectory = rollout(*args, **kwargs)
        trajectories.append(trajectory)
        return trajectory

    clip = reinforce.clip_gradient_norm

    def checking_clip(parameters, max_norm):
        trained = [param.grad for param in params]
        assert [len(t.action_cells) for t in trajectories] == [
            r.num_selected for r in records
        ]
        reference = _reference_gradient(
            params, trajectories, [r.advantage for r in records], beta
        )
        for param, grad in zip(params, trained):
            param.grad = grad
        names = [name for name, _ in policy.named_parameters()]
        for name, mine, expected in zip(names, trained, reference):
            assert (mine is None) == (expected is None), name
            if expected is None:
                continue
            scale = max(1.0, float(np.abs(expected).max()))
            worst = float(np.abs(mine - expected).max())
            assert worst <= TOLERANCE * scale, f"{name}: |Δ|={worst:.3e}, scale {scale:.3g}"
        batches.append(sum(grad is not None for grad in trained))
        advantages.extend(r.advantage for r in records)
        trajectories.clear()
        records.clear()
        return clip(parameters, max_norm)

    monkeypatch.setattr(policy, "rollout", keeping_rollout)
    monkeypatch.setattr(reinforce, "clip_gradient_norm", checking_clip)
    monkeypatch.setattr(reinforce, "MAX_SELECTION_STEPS", 8)
    result = train_rlccd(
        policy,
        env,
        FlowConfig(clock_period=period),
        TrainConfig(
            max_episodes=4,
            episodes_per_update=episodes_per_update,
            workers=workers,
            entropy_coefficient=beta,
            plateau_patience=10,
            seed=1,
        ),
        progress=records.append,
    )
    assert result.episodes_run == 4
    # Every batch was checked (a short last one included), and each carried
    # a gradient for every parameter.
    assert batches == [len(params)] * -(-4 // episodes_per_update)
    # The rewards differ at this seed, so the advantages weigh the episodes
    # differently (a batch of equal advantages would hide a mis-pairing).
    assert len({round(a, 6) for a in advantages}) == 4
