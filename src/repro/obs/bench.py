"""``python -m repro bench`` — the fixed smoke workload CI publishes.

Runs a small, fully seeded design through the default flow and a short
RL-CCD training (enough episodes to exercise rollout, flow evaluation and
the policy update), with the :mod:`repro.obs` recorder on, then
aggregates the recorder into the ``BENCH_<sha>.json`` schema::

    {"schema": "repro-bench/v1", "git_sha": ..., "seed": ..., ...,
     "design": {"name", "cells", "endpoints", "clock_period"},
     "metrics": {...deterministic quality numbers...},
     "counters": {...deterministic event counts...},
     "phases": {"<name>": {"count", "total_s", "median_s", "p90_s", "max_s"}},
     "obs": {"flow_runs", "disabled"/"enabled": {"flow_seconds"},
             "span_records_per_flow", "trace_overhead_s"},
     "scale": {"seed", "rounds",            # --scale-sweep runs only
               "designs": {"10k"/...: {"cells", "endpoints", ...,
                                       "peak_mb", "per_kcell": {...}}}},
     "total_seconds": <wall>}

``metrics``/``counters``/``design`` are deterministic for a fixed seed;
only ``phases``/``obs``/``scale``/``total_seconds``/``host`` carry
wall-clock noise.  CI diffs phase medians against the committed baseline:
it warns beyond the tolerance, and with ``--enforce`` fails only beyond
the noise-aware threshold of :mod:`repro.obs.history`, because shared
runners are noisy.  Engine-vs-engine throughput lives in the end-to-end
benchmark under ``perfbench/``, not here.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import core as obs
from repro.obs import records

BENCH_SCHEMA = "repro-bench/v1"

#: Phase medians whose baseline/candidate ratio exceeds ``1 + tolerance``
#: are flagged by :func:`compare_bench`; below this floor a phase is too
#: fast for a stable ratio on shared hardware.
MIN_COMPARABLE_SECONDS = 1e-4


@dataclass(frozen=True)
class BenchConfig:
    """Smoke-workload knobs (defaults are what CI runs)."""

    seed: int = 0
    episodes: int = 4
    cells: int = 320
    violating_fraction: float = 0.4

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.cells < 50:
            raise ValueError(
                f"cells={self.cells} is below the minimum of 50 needed "
                "for a meaningful workload"
            )


@dataclass(frozen=True)
class ScaleSweepConfig:
    """Knobs for the 10K–200K-cell STA scale sweep (``--scale-sweep``).

    Each size builds a vectorized synthetic design
    (:func:`repro.benchsuite.scale.fast_design`), times compile and full
    analysis, then drives ``rounds`` of CCD-style mutation batches (cell
    resizes plus useful-skew moves) through the default incremental
    engine, timing only the ``analyze()`` calls.
    """

    seed: int = 0
    cells: Tuple[int, ...] = (10_000, 50_000, 200_000)
    #: Mutation rounds; each round resizes
    #: ``resizes_per_round`` cells and moves ``max(32, n // 100)`` flops.
    rounds: int = 3
    resizes_per_round: int = 64
    violating_fraction: float = 0.4

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("scale sweep needs at least one design size")
        bad = [n for n in self.cells if n < 1_000]
        if bad:
            raise ValueError(
                f"scale-sweep sizes must be >= 1000 cells, got {bad}"
            )
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.resizes_per_round < 1:
            raise ValueError("resizes_per_round must be >= 1")


def scale_label(n_cells: int) -> str:
    """``section.scale.*`` label for a design size (``10000`` → ``"10k"``)."""
    if n_cells % 1_000 == 0:
        return f"{n_cells // 1_000}k"
    return str(n_cells)


def run_scale_sweep(config: ScaleSweepConfig = ScaleSweepConfig()) -> Dict[str, Any]:
    """Run the STA scale sweep; returns the ``"scale"`` payload section.

    Per design size the entry records absolute seconds (build, timing
    compile, full analyze, incremental mutation rounds), the
    process peak RSS after the size finished, and a ``per_kcell`` table —
    the same costs normalized to seconds per 1000 cells.  The normalized
    values are what :func:`repro.obs.history.section_medians` exposes as
    ``section.scale.<label>.<metric>`` pseudo-phases for the nightly
    median+MAD gate: per-cell cost is the quantity that must stay flat as
    designs grow, and normalization keeps every metric above the gate's
    :data:`MIN_COMPARABLE_SECONDS` floor at every size.

    Wall-clock only — :func:`strip_timing` drops the section.
    """
    from repro.benchsuite.scale import fast_design
    from repro.netlist.generator import GeneratorConfig
    from repro.timing.clock import ClockModel
    from repro.timing.metrics import choose_clock_period
    from repro.timing.sta import TimingAnalyzer, peak_rss_mb

    watch = obs.Stopwatch()
    designs: Dict[str, Any] = {}
    for n in config.cells:
        label = scale_label(n)
        gen = GeneratorConfig(
            name=f"scale_{label}",
            n_cells=n,
            n_inputs=max(8, n // 40),
            n_outputs=max(6, n // 60),
            seed=config.seed,
        )

        watch.restart()
        netlist = fast_design(gen)
        build_s = watch.elapsed

        watch.restart()
        analyzer = TimingAnalyzer(netlist, incremental=False)
        compiled = analyzer.compiled_for("typ")
        compile_s = watch.elapsed

        nominal = netlist.library.default_clock_period
        watch.restart()
        report = analyzer.analyze(ClockModel.for_netlist(netlist, nominal))
        full_analyze_s = watch.elapsed
        period = choose_clock_period(report, nominal, config.violating_fraction)

        # Seeded mutation rounds; only the ``analyze()`` calls are timed.
        rng = np.random.default_rng(config.seed + n)
        clock = ClockModel.for_netlist(netlist, period)
        sweep_analyzer = TimingAnalyzer(netlist)
        sweep_analyzer.analyze(clock)
        comb = [
            c.index
            for c in netlist.cells
            if not c.cell_type.is_port and not c.is_sequential
        ]
        flops = netlist.sequential_cells()
        incremental_s = 0.0
        for _ in range(config.rounds):
            resized = rng.choice(
                comb, size=min(config.resizes_per_round, len(comb)),
                replace=False,
            )
            for c in resized:
                cell = netlist.cells[int(c)]
                netlist.resize_cell(
                    cell.index,
                    int(rng.integers(0, cell.cell_type.max_size_index + 1)),
                )
                sweep_analyzer.notify_resize(cell.index)
            moved = rng.choice(
                flops, size=min(max(32, n // 100), len(flops)),
                replace=False,
            )
            for f in moved:
                f = int(f)
                room = clock.bound(f) - clock.arrival(f)
                if room > 1e-9:
                    clock.adjust_arrival(f, float(rng.uniform(0.0, room)))
            sweep_analyzer.notify_skew(int(f) for f in moved)
            watch.restart()
            sweep_analyzer.analyze(clock)
            incremental_s += watch.elapsed

        designs[label] = {
            "cells": n,
            "endpoints": int(compiled.endpoint_cells.size),
            "clock_period": period,
            "build_s": build_s,
            "compile_s": compile_s,
            "full_analyze_s": full_analyze_s,
            "incremental_s": incremental_s,
            "peak_mb": peak_rss_mb(),
            "per_kcell": {
                "build": build_s / (n / 1_000),
                "compile": compile_s / (n / 1_000),
                "full_analyze": full_analyze_s / (n / 1_000),
                "incremental": incremental_s / (n / 1_000),
            },
        }
    return {
        "seed": config.seed,
        "rounds": config.rounds,
        "designs": designs,
    }


@dataclass
class Workload:
    """A built smoke workload: the design and agent pieces, ready to run.

    Shared between ``python -m repro bench`` and ``python -m repro train``
    so both exercise the same seeded design end to end.
    """

    netlist: Any
    env: Any
    policy: Any
    flow_config: Any
    snapshot: Any
    clock_period: float
    name: str


def build_workload(
    seed: int = 0, cells: int = 320, violating_fraction: float = 0.4
) -> Workload:
    """Generate, place and constrain the fixed smoke design (deterministic;
    independent of ``REPRO_BENCH_SCALE``) and wrap it in the selection env
    plus a fresh policy."""
    # Deferred imports: the workload depends on the whole stack, the obs
    # layer must not.
    from repro.agent.env import EndpointSelectionEnv
    from repro.agent.policy import RLCCDPolicy
    from repro.ccd.flow import FlowConfig, snapshot_netlist_state
    from repro.features.table1 import NUM_FEATURES
    from repro.netlist.generator import GeneratorConfig, generate_design
    from repro.placement.global_place import PlacementConfig, place_design
    from repro.timing.clock import ClockModel
    from repro.timing.metrics import choose_clock_period
    from repro.timing.sta import TimingAnalyzer

    gen = GeneratorConfig(
        name="bench_smoke",
        library="tech7",
        n_cells=cells,
        n_inputs=max(8, cells // 40),
        n_outputs=max(6, cells // 60),
        seed=seed,
    )
    netlist = generate_design(gen)
    place_design(netlist, PlacementConfig(seed=seed))
    analyzer = TimingAnalyzer(netlist)
    nominal = netlist.library.default_clock_period
    report = analyzer.analyze(ClockModel.for_netlist(netlist, nominal))
    period = choose_clock_period(report, nominal, violating_fraction)

    flow_config = FlowConfig(clock_period=period)
    snapshot = snapshot_netlist_state(netlist, verify_clock_period=period)
    env = EndpointSelectionEnv(netlist, period)
    policy = RLCCDPolicy(NUM_FEATURES, rng=seed)
    return Workload(
        netlist=netlist,
        env=env,
        policy=policy,
        flow_config=flow_config,
        snapshot=snapshot,
        clock_period=period,
        name=gen.name,
    )


def run_bench(
    config: BenchConfig = BenchConfig(),
    scale_config: Optional[ScaleSweepConfig] = None,
) -> Dict[str, Any]:
    """Run the smoke workload and return the BENCH payload (see module doc).

    Enables the recorder for the duration (restoring the previous flag) and
    starts from a clean slate so two calls in one process agree.  When
    ``scale_config`` is given the 10K–200K STA scale sweep runs too and its
    results land under the payload's ``"scale"`` key; the sweep runs after
    the smoke counters are snapshotted, so the deterministic sections of the
    payload are identical with and without it.
    """
    from repro.agent.reinforce import TrainConfig, train_rlccd
    from repro.ccd.flow import restore_netlist_state, run_flow

    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    watch = obs.Stopwatch()
    try:
        workload = build_workload(
            seed=config.seed,
            cells=config.cells,
            violating_fraction=config.violating_fraction,
        )
        netlist = workload.netlist

        default_result = run_flow(netlist, workload.flow_config)
        restore_netlist_state(netlist, workload.snapshot)

        training = train_rlccd(
            workload.policy,
            workload.env,
            workload.flow_config,
            TrainConfig(max_episodes=config.episodes, seed=config.seed),
        )
        restore_netlist_state(netlist, workload.snapshot)

        obs_compare = _compare_trace_overhead(workload)

        state = obs.get_recorder().export_state()
        scale_section = (
            run_scale_sweep(scale_config) if scale_config is not None else None
        )
        total = watch.elapsed
    finally:
        if not was_enabled:
            obs.disable()

    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "git_sha": records.git_sha(),
        "created_at": _utc_now_iso(),
        "seed": config.seed,
        "episodes": config.episodes,
        "design": {
            "name": workload.name,
            "cells": netlist.num_cells,
            "endpoints": len(workload.env.endpoints),
            "clock_period": workload.clock_period,
        },
        "metrics": {
            "begin_wns": default_result.begin.wns,
            "begin_tns": default_result.begin.tns,
            "begin_nve": default_result.begin.nve,
            "default_wns": default_result.final.wns,
            "default_tns": default_result.final.tns,
            "default_nve": default_result.final.nve,
            "rlccd_best_tns": training.best_tns,
            "episodes_run": training.episodes_run,
        },
        "counters": {k: v for k, v in sorted(state["counters"].items())},
        "phases": aggregate_phases(state["phases"]),
        "obs": obs_compare,
        "scale": scale_section,
        "total_seconds": total,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    return payload


def _compare_trace_overhead(workload: Workload) -> Dict[str, Any]:
    """Time the default flow with event tracing off, then on.

    Returns the ``"obs"`` section of the BENCH payload; its
    ``trace_overhead_s`` lands in the nightly median+MAD gate as the
    ``section.obs.trace_overhead`` pseudo-phase
    (:func:`repro.obs.history.section_medians`), so a slow tracer — or a
    disabled path that stopped being zero-cost — fails CI like any phase
    regression.  The enabled pass writes its span records to a throwaway
    sink so a real ``--trace`` run is not polluted, and the caller's
    tracing state is restored either way.

    Measurement discipline: the overhead is a small difference between two
    large wall times, so a disabled-block-then-enabled-block layout puts
    any load drift between the blocks straight into the difference (the
    variance of a difference of two independent best-of-N estimates adds).
    Instead each repeat runs disabled-then-enabled back to back and the
    reported overhead is the **median of the paired per-repeat diffs** —
    pairing cancels drift, the median rejects a single noisy repeat.
    """
    import tempfile

    from repro.ccd.flow import restore_netlist_state, run_flow
    from repro.obs import tracing

    repeats = 5
    prev_sink = records.trace_path()
    prev_events = tracing.enabled()
    out: Dict[str, Any] = {"flow_runs": repeats}
    span_records = 0
    handle = tempfile.NamedTemporaryFile(
        suffix=".jsonl", prefix="repro-trace-overhead-", delete=False
    )
    handle.close()

    def _timed_flow() -> float:
        watch = obs.Stopwatch()
        run_flow(workload.netlist, workload.flow_config)
        elapsed = watch.elapsed
        restore_netlist_state(workload.netlist, workload.snapshot)
        return elapsed

    try:
        # Untimed warm-up of both configurations (first enabled flow pays
        # sink setup and tracer-path warming).
        tracing.disable()
        _timed_flow()
        records.set_trace_path(handle.name)
        tracing.enable()
        _timed_flow()
        diffs = []
        disabled_best = enabled_best = math.inf
        for _ in range(repeats):
            tracing.disable()
            records.set_trace_path(prev_sink)
            disabled_s = _timed_flow()
            records.set_trace_path(handle.name)
            tracing.enable()
            enabled_s = _timed_flow()
            disabled_best = min(disabled_best, disabled_s)
            enabled_best = min(enabled_best, enabled_s)
            diffs.append(enabled_s - disabled_s)
        out["disabled"] = {"flow_seconds": disabled_best}
        out["enabled"] = {"flow_seconds": enabled_best}
        tracing.disable()
        records.set_trace_path(prev_sink)
        span_records = sum(
            1
            for record in records.read_records(handle.name)
            if record.get("kind") == "span"
        )
    finally:
        records.set_trace_path(prev_sink)
        if prev_events:
            tracing.enable()
        else:
            tracing.disable()
        try:
            os.unlink(handle.name)
        except OSError:  # pragma: no cover — best-effort temp cleanup
            pass
    # One warm-up + `repeats` timed enabled flows wrote to the sink.
    out["span_records_per_flow"] = span_records // (repeats + 1)
    out["trace_overhead_s"] = max(0.0, statistics.median(diffs))
    return out


def _utc_now_iso() -> str:
    """Current UTC wall time, second resolution, ISO-8601 with ``Z``."""
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z")
    )


def aggregate_phases(phases: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Recorder phase stats → count/total/median/mad/p90/max summary table.

    ``mad_s`` is the within-run median absolute deviation of the phase's
    durations — the history store's noise estimate for thin histories.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(phases):
        durations = np.asarray(phases[name]["durations"], dtype=np.float64)
        if durations.size == 0:
            continue
        med = float(np.median(durations))
        out[name] = {
            "count": int(durations.size),
            "total_s": float(durations.sum()),
            "median_s": med,
            "mad_s": float(np.median(np.abs(durations - med))),
            "p90_s": float(np.quantile(durations, 0.9)),
            "max_s": float(durations.max()),
        }
    return out


def save_bench(payload: Dict[str, Any], path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"not a {BENCH_SCHEMA} file: {path!r}")
    return payload


def default_output_name() -> str:
    return f"BENCH_{records.git_sha()}.json"


def compare_bench(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    tolerance: float = 0.2,
) -> List[str]:
    """Human-readable warnings for phase medians regressed beyond tolerance.

    Advisory only (CI warns, never fails): returns one line per phase whose
    candidate median exceeds the baseline median by more than
    ``tolerance`` (relative), skipping sub-:data:`MIN_COMPARABLE_SECONDS`
    phases where scheduler noise dominates.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    warnings: List[str] = []
    base_phases = baseline.get("phases", {})
    for name, cand in sorted(candidate.get("phases", {}).items()):
        base = base_phases.get(name)
        if base is None:
            continue
        base_median = float(base["median_s"])
        cand_median = float(cand["median_s"])
        if base_median < MIN_COMPARABLE_SECONDS:
            continue
        if cand_median > base_median * (1.0 + tolerance):
            warnings.append(
                f"phase {name}: median {cand_median * 1e3:.3f} ms vs baseline "
                f"{base_median * 1e3:.3f} ms "
                f"(+{100.0 * (cand_median / base_median - 1.0):.0f}%, "
                f"tolerance {100.0 * tolerance:.0f}%)"
            )
    return warnings


def strip_timing(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Copy of a BENCH payload with every wall-clock field removed.

    What remains (metrics, counters, phase *counts*, design identity) must
    be identical across same-seed runs; the determinism test asserts so.
    """
    out = {
        k: v
        for k, v in payload.items()
        if k
        not in (
            "phases",
            "obs",
            "scale",
            "total_seconds",
            "host",
            "git_sha",
            "created_at",
            "provenance",
        )
    }
    out["phases"] = {
        name: {"count": stats["count"]}
        for name, stats in payload.get("phases", {}).items()
    }
    return out


def update_baseline(payload: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Write ``payload`` over the committed baseline at ``path``.

    Replaces the hand-edit workflow: the refreshed file carries a
    ``provenance`` field recording when it was regenerated and which run it
    superseded, so ``git log`` plus the file itself explain every baseline
    shift.  Returns the payload actually written.
    """
    previous: Optional[Dict[str, Any]] = None
    try:
        previous = load_bench(path)
    except (OSError, ValueError):
        previous = None  # first baseline, or a corrupt one being replaced
    refreshed = dict(payload)
    refreshed["provenance"] = {
        "refreshed_at": refreshed.get("created_at", _utc_now_iso()),
        "refreshed_by": "python -m repro bench --update-baseline",
        "previous_git_sha": previous.get("git_sha") if previous else None,
        "previous_created_at": previous.get("created_at") if previous else None,
    }
    save_bench(refreshed, path)
    return refreshed
