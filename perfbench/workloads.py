"""Workloads of the RL-CCD benchmark: inputs, set-up, timed loop, checks.

Designs are fixed per workload (generator and placement seed 0): across
generator seeds the cost of one episode varies about 2x at 320 cells,
which would swamp any change the benchmark is meant to see.  ``--seed``
draws everything else: the policy initialization, the trajectory
sampling, and the selections ``flows_10k`` evaluates.  A twin of each
design is built alongside; set-up is measured on the twin so that
repeated constructions never touch the training state.

Timings are reported at a fixed host speed.  A shared host's speed moves
by up to 2x within minutes with co-tenant load, and every timing moves with
it, so a fixed kernel of the benchmark's own (:class:`HostReference`) is
timed at every iteration boundary and around every set-up construction.
Iteration walls are scaled by ``REFERENCE_S`` over the run's mean
reference time, set-up times by ``REFERENCE_S`` over the two references
taken right around them.  The raw figures are printed for information.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from tracer import LayerTracer

#: p75 needs ten samples beyond it.
MIN_ITERATIONS = 40
#: Set-up constructions per run, spread evenly over the timed loop.
SETUP_SAMPLES = 20
#: About the time of one :meth:`HostReference.time` on an unloaded 2-vCPU
#: Xeon VM (2.1 GHz, Python 3.11); timings are reported at that host speed.
REFERENCE_S = 0.007
#: Iterations the traced run's overhead ratio compares, after the first.
OVERHEAD_PREFIX = 10
#: Tolerance of the full-STA re-run against the incremental result.
TNS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    design: str  # "smoke" | "2k" | "10k"
    kind: str  # "train" | "flows"
    #: Iterations per second of run length on the reference host; a run
    #: does ``max(MIN_ITERATIONS, seconds * per_second)`` iterations.
    per_second: float
    workers: int = 1

    def iterations(self, seconds: float) -> int:
        return max(MIN_ITERATIONS, int(round(seconds * self.per_second)))

    @property
    def episodes_per_update(self) -> int:
        return self.workers


WORKLOADS: Dict[str, Workload] = {
    "train_smoke": Workload("smoke", "train", per_second=10.0),
    "train_2k": Workload("2k", "train", per_second=3.0),
    "train_2k_w2": Workload("2k", "train", per_second=1.3, workers=2),
    "flows_10k": Workload("10k", "flows", per_second=1.0),
}


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
@dataclass
class Design:
    netlist: Any
    period: float


def build_design(size: str) -> Design:
    """Generate, place and constrain one workload design (deterministic)."""
    from repro.netlist.generator import GeneratorConfig, generate_design
    from repro.placement.global_place import PlacementConfig, place_design
    from repro.timing.clock import ClockModel
    from repro.timing.metrics import choose_clock_period
    from repro.timing.sta import TimingAnalyzer

    cells = {"smoke": 320, "2k": 2000, "10k": 10_000}[size]
    gen = GeneratorConfig(
        name=f"perfbench_{size}",
        library="tech7",
        n_cells=cells,
        n_inputs=max(8, cells // 40),
        n_outputs=max(6, cells // 60),
        seed=0,
    )
    if size == "10k":
        from repro.benchsuite.scale import fast_design

        netlist = fast_design(gen)
    else:
        netlist = generate_design(gen)
        place_design(netlist, PlacementConfig(seed=0))
    nominal = netlist.library.default_clock_period
    report = TimingAnalyzer(netlist).analyze(ClockModel.for_netlist(netlist, nominal))
    return Design(netlist, choose_clock_period(report, nominal, 0.4))


def flow_selections(endpoints: List[int], seed: int, count: int) -> List[List[int]]:
    """``flows_10k`` inputs: the empty selection, then worst-slack prefixes
    and random subsets in seeded order, whose sizes are spread evenly over
    1 to a quarter of the violating endpoints (``endpoints`` is worst
    first).  Only the order and the members of the random subsets depend
    on ``seed``, so every seed asks for the same amount of work."""
    rng = np.random.default_rng(seed)
    quarter = max(1, len(endpoints) // 4)
    sized: List[List[int]] = []
    for i, size in enumerate(np.linspace(1, quarter, count - 1).round().astype(int)):
        if i % 2:
            picked = rng.choice(len(endpoints), size=int(size), replace=False)
            sized.append([endpoints[int(j)] for j in picked])
        else:
            sized.append(list(endpoints[:size]))
    return [[]] + [sized[int(i)] for i in rng.permutation(len(sized))]


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
def train_setup(design: Design, seed: int) -> Tuple[Any, Any, Dict[str, float]]:
    """Per-design training state; returns ``(env, policy, phase_ms)``."""
    from repro.agent.env import EndpointSelectionEnv
    from repro.agent.parallel import RewardCache
    from repro.agent.policy import RLCCDPolicy
    from repro.ccd.flow import FlowConfig, snapshot_netlist_state
    from repro.features.table1 import NUM_FEATURES

    t0 = time.perf_counter()
    env = EndpointSelectionEnv(design.netlist, design.period)
    t1 = time.perf_counter()
    policy = RLCCDPolicy(NUM_FEATURES, rng=seed)
    policy.encoder_session(env)
    t2 = time.perf_counter()
    snapshot = snapshot_netlist_state(design.netlist, verify_clock_period=design.period)
    RewardCache.for_context(snapshot, FlowConfig(clock_period=design.period))
    t3 = time.perf_counter()
    return env, policy, _phases(t0, t1, t2, t3)


def flows_setup(design: Design) -> Tuple[Any, List[int], Dict[str, float]]:
    """Analyzer, begin STA and snapshot; returns ``(snapshot, endpoints, phase_ms)``."""
    from repro.ccd.flow import snapshot_netlist_state
    from repro.timing.clock import ClockModel
    from repro.timing.metrics import violating_endpoints
    from repro.timing.sta import TimingAnalyzer

    t0 = time.perf_counter()
    analyzer = TimingAnalyzer(design.netlist)
    report = analyzer.analyze(ClockModel.for_netlist(design.netlist, design.period))
    t1 = time.perf_counter()
    snapshot = snapshot_netlist_state(design.netlist)
    t2 = time.perf_counter()
    endpoints = [int(e) for e in violating_endpoints(report)]
    return snapshot, endpoints, _phases(t0, t1, t1, t2)


def _phases(t0: float, t1: float, t2: float, t3: float) -> Dict[str, float]:
    return {
        "setup.env_ms": (t1 - t0) * 1000.0,
        "setup.policy_ms": (t2 - t1) * 1000.0,
        "setup.cache_key_ms": (t3 - t2) * 1000.0,
    }


# ---------------------------------------------------------------------- #
# Timed loop
# ---------------------------------------------------------------------- #
class HostReference:
    """A fixed kernel that measures how fast the host runs right now.

    It mixes what the program's time goes to: interpreter loops over dicts,
    lists and floats (the flow), NumPy gathers and reductions (the STA
    kernels), and many NumPy operations on tiny arrays (the policy).  Its
    inputs are fixed, and it is part of the benchmark, so no change to the
    program can change its time.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random((2000, 8))
        self._rows = rng.integers(0, 2000, size=500)
        self._segments = np.sort(rng.choice(2000, size=200, replace=False))
        self._weight = rng.random((16, 16))
        self._bias = rng.random(16)

    def time(self) -> float:
        """Seconds one pass of the kernel takes."""
        start = time.perf_counter()
        acc = 0.0
        table: Dict[int, float] = {}
        slots = [0.0] * 1024
        for i in range(6000):
            key = i & 1023
            table[key] = acc
            slots[(i * 7) & 1023] = acc
            acc = max(acc * 0.5, (i % 97) * 1.5) + table.get((i * 13) & 1023, 0.0) + slots[key]
        for _ in range(60):
            rows = self._table[self._rows].max(axis=1)
            mins = np.minimum.reduceat(self._table[:, 0], self._segments)
            acc += float(rows[0] + mins[0])
        state = self._bias
        for _ in range(300):
            hidden = np.tanh(self._weight @ state + self._bias)
            state = np.exp(hidden - hidden.max())
            state = state / state.sum()
        acc += float(state[0])
        elapsed = time.perf_counter() - start
        assert math.isfinite(acc)
        return elapsed


class LoopClock:
    """Iteration walls of one timed loop, with set-up samples in between.

    Every ``setup_every``-th boundary runs one set-up construction; its
    time is kept out of the iteration walls, and the tracer (if any) is
    paused during it, during the host reference, and after the last
    iteration.  ``refs[i]`` and ``refs[i + 1]`` bracket iteration ``i``.
    """

    def __init__(
        self,
        planned: int,
        construct: Optional[Callable[[], Tuple]],
        tracer: Optional[LayerTracer] = None,
    ) -> None:
        self.planned = planned
        self.construct = construct
        self.setup_every = max(1, planned // SETUP_SAMPLES)
        self.tracer = tracer
        self.reference = HostReference()
        self.walls: List[float] = []
        self.refs: List[float] = []
        self.setup_samples: List[Dict[str, float]] = []
        self.setup_scales: List[float] = []
        self._last = 0.0

    def timed_setup(self, construct: Callable[[], Tuple]) -> Tuple:
        """Run one set-up construction between two host references and keep
        its phases (the last item of what ``construct`` returns) with
        ``REFERENCE_S`` over the references' mean: a construction is short
        enough for the references beside it to see the same host speed."""
        before = self.reference.time()
        built = construct()
        after = self.reference.time()
        self.setup_samples.append(built[-1])
        self.setup_scales.append(2.0 * REFERENCE_S / (before + after))
        return built

    def start(self) -> None:
        gc.collect()
        self.refs.append(self.reference.time())
        self._set_tracing(True)
        self._last = time.perf_counter()

    def boundary(self) -> None:
        now = time.perf_counter()
        self.walls.append(now - self._last)
        self._set_tracing(False)
        self.refs.append(self.reference.time())
        done = len(self.walls) >= self.planned
        if not done and self.construct is not None and len(self.walls) % self.setup_every == 0:
            self.timed_setup(self.construct)
        self._set_tracing(not done)
        self._last = time.perf_counter()

    def stop(self) -> None:
        self._set_tracing(False)

    def _set_tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = on


@dataclass
class RunResult:
    iterations: int
    episodes: int
    walls: List[float]
    refs: List[float]
    setup_samples: List[Dict[str, float]]
    setup_scales: List[float]
    records: List[Tuple]
    best_tns: float
    best_selection: List[int]
    default_tns: float
    failed: int
    checks: Dict[str, bool] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    design: str = ""

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.checks) and all(self.checks.values())

    def host_scale(self) -> float:
        """``REFERENCE_S`` over the run's mean reference time, each
        reference weighted by the loop time around it (half of each
        iteration it brackets), so that slow stretches of the run count
        for as long as they lasted."""
        weights = [0.0] * len(self.refs)
        for i, wall in enumerate(self.walls):
            weights[i] += wall / 2.0
            weights[i + 1] += wall / 2.0
        mean = sum(r * w for r, w in zip(self.refs, weights)) / sum(weights)
        return REFERENCE_S / mean

    def scaled_walls(self) -> List[float]:
        """Iteration walls in seconds at the reference host speed."""
        scale = self.host_scale()
        return [wall * scale for wall in self.walls]

    def history_sha256(self) -> str:
        payload = json.dumps(
            {"records": [[repr(float(v)) for v in r] for r in self.records],
             "best_selection": self.best_selection},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` times the largest reaped
    child's: pooled workers are forked copies, so shared copy-on-write
    pages count once per process (an upper bound, as ``ps`` would sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workers <= 1:
        return own
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + workers * child


def _full_sta_tns(design: Design, snapshot: Any, selection: List[int]) -> float:
    from repro.ccd.flow import FlowConfig, restore_netlist_state, run_flow

    restore_netlist_state(design.netlist, snapshot)
    result = run_flow(
        design.netlist,
        FlowConfig(clock_period=design.period, incremental_sta=False),
        prioritized_endpoints=selection,
    )
    restore_netlist_state(design.netlist, snapshot)
    return result.tns


def _nonfinite(records: List[Tuple]) -> int:
    return sum(1 for r in records if not all(math.isfinite(v) for v in r))


def run_train(
    workload: Workload,
    design: Design,
    twin: Design,
    seed: int,
    iterations: int,
    tracer: Optional[LayerTracer] = None,
    verify: bool = True,
) -> RunResult:
    """Default REINFORCE training for a fixed number of iterations.

    ``verify=False`` (the traced run's untraced reference prefix) skips the
    set-up samples and the post-loop checks.
    """
    from repro.agent.reinforce import TrainConfig, train_rlccd
    from repro.ccd.flow import FlowConfig, run_flow, snapshot_netlist_state

    clock = LoopClock(
        iterations, (lambda: train_setup(twin, seed)) if verify else None, tracer
    )
    env, policy, _ = clock.timed_setup(lambda: train_setup(design, seed))
    flow_config = FlowConfig(clock_period=design.period)
    epu = workload.episodes_per_update
    episodes = iterations * epu
    config = TrainConfig(
        max_episodes=episodes,
        episodes_per_update=epu,
        workers=workload.workers,
        plateau_patience=episodes,
        seed=seed,
    )
    records: List[Tuple] = []

    def progress(record) -> None:
        records.append(
            (record.tns, record.wns, record.nve, record.num_selected, record.advantage)
        )
        if len(records) % epu == 0:
            clock.boundary()

    result = None
    clock.start()
    try:
        result = train_rlccd(policy, env, flow_config, config, progress=progress)
    except Exception:  # noqa: BLE001 -- counted as failed iterations below
        traceback.print_exc()
    finally:
        clock.stop()
    run = RunResult(
        iterations=iterations,
        episodes=len(records),
        walls=clock.walls,
        refs=clock.refs,
        setup_samples=clock.setup_samples,
        setup_scales=clock.setup_scales,
        records=records,
        best_tns=result.best_tns if result else math.nan,
        best_selection=list(result.best_selection) if result else [],
        default_tns=math.nan,
        failed=iterations - len(clock.walls) + _nonfinite(records),
        design=f"{design.netlist.num_cells} cells, {env.num_endpoints} violating endpoints",
    )
    if result is None or not verify:
        return run
    snapshot = snapshot_netlist_state(design.netlist)
    run.default_tns = run_flow(design.netlist, flow_config).tns
    run.checks = {
        "rewards_finite": _nonfinite(records) == 0,
        "sequential_replay": result.best_flow is not None
        and abs(result.best_flow.tns - result.best_tns) <= TNS_TOLERANCE,
        "full_sta": abs(
            _full_sta_tns(design, snapshot, result.best_selection) - result.best_tns
        )
        <= TNS_TOLERANCE,
    }
    run.peak_rss_mb = _peak_rss_mb(workload.workers)
    return run


def run_flows(
    workload: Workload,
    design: Design,
    twin: Design,
    seed: int,
    iterations: int,
    tracer: Optional[LayerTracer] = None,
    verify: bool = True,
) -> RunResult:
    """A seeded list of selections through ``run_flow``, no policy, no cache."""
    from repro.ccd import flow

    clock = LoopClock(iterations, (lambda: flows_setup(twin)) if verify else None, tracer)
    snapshot, endpoints, _ = clock.timed_setup(lambda: flows_setup(design))
    config = flow.FlowConfig(clock_period=design.period)
    selections = flow_selections(endpoints, seed, iterations)
    records: List[Tuple] = []
    clock.start()
    try:
        for selection in selections:
            # Looked up through the module so the tracer's wrappers apply.
            try:
                flow.restore_netlist_state(design.netlist, snapshot)
                result = flow.run_flow(design.netlist, config, prioritized_endpoints=selection)
                records.append((result.tns, result.wns, result.nve, len(selection)))
            except Exception:  # noqa: BLE001 -- counted as a failed iteration
                traceback.print_exc()
                records.append((math.nan, math.nan, 0, len(selection)))
            clock.boundary()
    finally:
        clock.stop()
    flow.restore_netlist_state(design.netlist, snapshot)
    best = max(range(len(records)), key=lambda i: records[i][0])
    run = RunResult(
        iterations=iterations,
        episodes=len(records),
        walls=clock.walls,
        refs=clock.refs,
        setup_samples=clock.setup_samples,
        setup_scales=clock.setup_scales,
        records=records,
        best_tns=records[best][0],
        best_selection=selections[best],
        default_tns=records[0][0],
        failed=_nonfinite(records),
        design=f"{design.netlist.num_cells} cells, {len(endpoints)} violating endpoints",
    )
    if not verify:
        return run
    run.checks = {
        "rewards_finite": _nonfinite(records) == 0,
        "full_sta": abs(_full_sta_tns(design, snapshot, run.best_selection) - run.best_tns)
        <= TNS_TOLERANCE,
    }
    run.peak_rss_mb = _peak_rss_mb(1)
    return run


def run_workload(
    name: str,
    seed: int,
    iterations: int,
    tracer: Optional[LayerTracer] = None,
    verify: bool = True,
    designs: Optional[Tuple[Design, Design]] = None,
) -> RunResult:
    """One timed run of workload ``name`` (inputs built unless given)."""
    workload = WORKLOADS[name]
    design, twin = designs or (build_design(workload.design), build_design(workload.design))
    runner = run_train if workload.kind == "train" else run_flows
    return runner(workload, design, twin, seed, iterations, tracer, verify)


def loop_figures(walls: List[float], episodes: int, setups_ms: List[float]) -> Dict[str, float]:
    """Throughput, iteration percentiles and median set-up of one loop."""
    walls_ms = [w * 1000.0 for w in walls]
    return {
        "episodes_per_s": episodes / sum(walls),
        "iteration_ms_p50": statistics.median(walls_ms),
        "iteration_ms_p75": float(np.percentile(walls_ms, 75)),
        "setup_s": statistics.median(setups_ms) / 1000.0,
    }


def end_to_end(run: RunResult) -> Dict[str, float]:
    """The end-to-end metric values of one untraced run, timings at the
    reference host speed."""
    setups_ms = [
        sum(sample.values()) * scale
        for sample, scale in zip(run.setup_samples, run.setup_scales)
    ]
    return {
        **loop_figures(run.scaled_walls(), run.episodes, setups_ms),
        "peak_rss_mb": run.peak_rss_mb,
        "best_tns_ratio": run.best_tns / run.default_tns,
    }


def measured(run: RunResult) -> Dict[str, float]:
    """The same timings as measured, before scaling, and the host speed."""
    figures = loop_figures(
        run.walls, run.episodes, [sum(sample.values()) for sample in run.setup_samples]
    )
    figures["host_slowdown"] = 1.0 / run.host_scale()
    return figures
