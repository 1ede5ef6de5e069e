"""The incremental EP-GNN's episode node against the tape oracle.

Every test compares parameter gradients of the one reverse pass per
episode (:mod:`repro.gnn.incremental`) with ``EPGNN.forward`` on each
step's features plus ``Tensor.backward`` — the oracle — within the
equivalence suites' 1e-9.  The step sequences cover the paths a step can
take: incremental, a full step mid-episode (dirty-region fallback or a
``mutation_version`` bump), no dirty cell, and dirty cells that reach no
endpoint.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro import obs
from repro.agent.env import EndpointSelectionEnv
from repro.agent.policy import RLCCDPolicy
from repro.features.table1 import NUM_FEATURES
from repro.gnn import incremental as gi
from repro.netlist.generator import GeneratorConfig, generate_design
from repro.nn.tensor import Tensor
from repro.placement.global_place import PlacementConfig, place_design
from repro.timing.clock import ClockModel
from repro.timing.metrics import choose_clock_period
from repro.timing.sta import TimingAnalyzer

ATOL = 1e-9


def _constrained(netlist) -> float:
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    return choose_clock_period(report, nominal, 0.4)


def _generated(cells: int, fast: bool = False):
    config = GeneratorConfig(
        name=f"episode_{cells}",
        library="tech7",
        n_cells=cells,
        n_inputs=max(8, cells // 40),
        n_outputs=max(6, cells // 60),
        seed=0,
    )
    if fast:
        from repro.benchsuite.scale import fast_design

        netlist = fast_design(config)
    else:
        netlist = generate_design(config)
        place_design(netlist, PlacementConfig(seed=0))
    return netlist, _constrained(netlist)


@pytest.fixture(scope="module")
def design_2k():
    return _generated(2000)


@pytest.fixture
def env(small_design):
    netlist, period = small_design
    return EndpointSelectionEnv(netlist, period, rho=0.3)


def _twins(seed: int = 3):
    """Two policies with identical parameters: the session's and the oracle's."""
    return RLCCDPolicy(NUM_FEATURES, rng=seed), RLCCDPolicy(NUM_FEATURES, rng=seed)


def _grads(policy):
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in policy.named_parameters()
    }


def _assert_grads_close(a, b, atol=ATOL):
    for name in a:
        np.testing.assert_allclose(
            a[name], b[name], atol=atol, rtol=0.0, err_msg=f"grad mismatch: {name}"
        )


def _weights(env, steps, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(env.num_endpoints, 16)) for _ in range(steps)]


def _episode_loss(outputs, weights) -> Tensor:
    loss = (outputs[0] * Tensor(weights[0])).sum()
    for out, w in zip(outputs[1:], weights[1:]):
        loss = loss + (out * Tensor(w)).sum()
    return loss


def _compare_encodes(env, steps, between=None):
    """Encode ``steps`` through a session and through the oracle, backward
    the same weighted loss, and compare gradients; ``between(t)`` runs
    before the encode of step ``t`` in both runs."""
    fast, oracle = _twins()
    session = fast.encoder_session(env)
    session.begin_episode()
    weights = _weights(env, len(steps))
    outputs = []
    for t, features in enumerate(steps):
        if between is not None:
            between(t)
        outputs.append(session.encode(features))
    _episode_loss(outputs, weights).backward()
    reference = []
    for t, features in enumerate(steps):
        if between is not None:
            between(t)
        reference.append(oracle.epgnn(features, env.graph, env.cones))
    _episode_loss(reference, weights).backward()
    for out, ref in zip(outputs, reference):
        np.testing.assert_allclose(out.data, ref.data, atol=ATOL, rtol=0.0)
    _assert_grads_close(_grads(fast), _grads(oracle))
    return session


def _masked(base, cells):
    features = np.array(base, copy=True)
    features[np.asarray(cells, dtype=np.int64), 0] = 1.0
    return features


def _far_cell(env):
    """A cell whose 3-hop region holds no cone cell and no endpoint."""
    graph, cones = env.graph, env.cones
    owner = graph._edge_dst()
    touched = np.zeros(graph.num_nodes, dtype=bool)
    touched[cones.cone_members] = True
    touched[cones.endpoints] = True
    for cell in range(graph.num_nodes):
        region = np.zeros(graph.num_nodes, dtype=bool)
        region[cell] = True
        for _ in range(3):
            region[graph.neighbor_index[region[owner]]] = True
        if not (region & touched).any():
            return cell
    pytest.skip("every cell's 3-hop region meets a cone")


def _rollout_grads(policy, env, seed, incremental, with_entropy=False):
    trajectory = policy.rollout(
        env, rng=seed, incremental=incremental, with_entropy=with_entropy
    )
    loss = trajectory.total_log_prob() * -0.7
    if with_entropy:
        loss = loss + trajectory.total_entropy() * -0.05
    loss.backward()
    return trajectory.actions


class TestRolloutGradients:
    # The smoke design without entropy is
    # test_gnn_incremental.py::TestEncoderSession::test_gradients_match_full_path.
    def test_smoke_design_with_entropy(self, env):
        fast, oracle = _twins()
        a = _rollout_grads(fast, env, 77, True, with_entropy=True)
        b = _rollout_grads(oracle, env, 77, False, with_entropy=True)
        assert a == b
        _assert_grads_close(_grads(fast), _grads(oracle))

    def test_2k_design(self, design_2k):
        netlist, period = design_2k
        env = EndpointSelectionEnv(netlist, period)
        fast, oracle = _twins(seed=1)
        a = _rollout_grads(fast, env, 5, True)
        b = _rollout_grads(oracle, env, 5, False)
        assert a == b and len(a) > 5
        _assert_grads_close(_grads(fast), _grads(oracle))


class TestStepPaths:
    def test_fallback_mid_episode(self, env):
        env.reset()
        base = env.features()
        endpoints = env.endpoints
        half = np.arange(0, env.graph.num_nodes, 2)
        steps = [
            base,
            _masked(base, endpoints[:1]),
            _masked(base, half),  # region beyond FULL_FALLBACK_FRACTION
            _masked(base, np.concatenate([half, endpoints[1:3]])),
        ]
        obs.enable()
        obs.reset()
        try:
            _compare_encodes(env, steps)
            counters = obs.get_recorder().counters
        finally:
            obs.disable()
            obs.reset()
        assert counters.get("gnn.full_encode", 0) == 2
        assert counters.get("gnn.incremental_encode", 0) == 2

    def test_mutation_version_bump(self, env):
        env.reset()
        base = env.features()
        endpoints = env.endpoints
        steps = [_masked(base, endpoints[:k]) for k in range(4)]

        def bump(t):
            if t == 2:
                env.netlist.mutation_version += 1

        session = _compare_encodes(env, steps, between=bump)
        assert isinstance(session._episode.steps[2], gi._FullStep)

    def test_no_dirty_cells(self, env):
        env.reset()
        base = env.features()
        one = _masked(base, env.endpoints[:1])
        session = _compare_encodes(env, [base, one, one, _masked(one, env.endpoints[1:2])])
        assert len(session._episode.steps) == 3  # the repeat records nothing

    def test_no_dirty_endpoints(self, env):
        env.reset()
        base = env.features()
        far = _far_cell(env)
        steps = [base, _masked(base, [far]), _masked(base, [far, env.endpoints[0]])]
        session = _compare_encodes(env, steps)
        assert session._episode.steps[1].dirty_eps.size == 0

    def test_stored_gradients_cleared_after_backward(self, env):
        """Two backward calls reaching different steps: the second must not
        replay the first's ``dE_t``."""
        env.reset()
        base = env.features()
        steps = [_masked(base, env.endpoints[:k]) for k in range(4)]
        weights = _weights(env, len(steps), seed=4)
        fast, oracle = _twins()
        session = fast.encoder_session(env)
        session.begin_episode()
        outputs = [session.encode(features) for features in steps]
        reference = [oracle.epgnn(features, env.graph, env.cones) for features in steps]
        for t in (1, 3):
            (outputs[t] * Tensor(weights[t])).sum().backward()
            (reference[t] * Tensor(weights[t])).sum().backward()
        _assert_grads_close(_grads(fast), _grads(oracle))


class TestEpisodes:
    def test_interleaved_episodes_match_sequential(self, env):
        """Rolling out episode k+1 before the backward of episode k gives
        the gradients of running them one after the other, bit for bit."""
        sequential, interleaved = _twins(seed=8)
        for seed in (1, 2):
            sequential.rollout(env, rng=seed).total_log_prob().backward()
        first = interleaved.rollout(env, rng=1)
        second = interleaved.rollout(env, rng=2)
        first.total_log_prob().backward()
        second.total_log_prob().backward()
        a, b = _grads(sequential), _grads(interleaved)
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name

    def test_finished_episode_is_freed(self, env):
        policy = RLCCDPolicy(NUM_FEATURES, rng=2)
        trajectory = policy.rollout(env, rng=3)
        session = policy.encoder_session(env)
        episode = weakref.ref(session._episode)
        trajectory.total_log_prob().backward()
        del trajectory
        session.begin_episode()
        assert episode() is None  # no reference cycle keeps it alive

    def test_gradient_shadow_check_names_parameter(self, env):
        previous = gi.set_check(True)
        try:
            policy = RLCCDPolicy(NUM_FEATURES, rng=4)
            session = policy.encoder_session(env)
            session.begin_episode()
            env.reset()
            base = env.features()
            outputs = [session.encode(base), session.encode(_masked(base, env.endpoints[:1]))]
            # Corrupt what the reverse pass reads for the FC head.
            session._episode.steps[1].pooled += 1.0
            loss = _episode_loss(outputs, _weights(env, 2))
            with pytest.raises(RuntimeError, match="gradient drift on fc.weight"):
                loss.backward()
        finally:
            gi.set_check(previous)

    def test_gradient_shadow_check_passes(self, env):
        previous = gi.set_check(True)
        obs.enable()
        obs.reset()
        try:
            policy = RLCCDPolicy(NUM_FEATURES, rng=4)
            policy.rollout(env, rng=6).total_log_prob().backward()
            assert obs.get_recorder().counters.get("gnn.gradient_checks", 0) == 1
        finally:
            obs.disable()
            obs.reset()
            gi.set_check(previous)


def _drift_after(netlist, period, steps=48, seed=0):
    env = EndpointSelectionEnv(netlist, period)
    policy = RLCCDPolicy(NUM_FEATURES, rng=seed)
    session = policy.encoder_session(env)
    session.begin_episode()
    rng = np.random.default_rng(seed)
    state = env.reset()
    encoded = 0
    while not state.done and encoded < steps:
        session.encode(env.features())
        encoded += 1
        state = env.step(int(rng.choice(np.flatnonzero(state.valid))))
    return encoded, session.cone_sum_drift()


class TestDeltaSumDrift:
    def test_2k_episode(self, design_2k):
        encoded, drift = _drift_after(*design_2k)
        assert encoded >= 20
        assert drift <= gi.CHECK_ATOL

    def test_10k_episode(self):
        encoded, drift = _drift_after(*_generated(10_000, fast=True))
        assert encoded == 48
        assert drift <= gi.CHECK_ATOL
