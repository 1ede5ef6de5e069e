"""Run-history store: index past runs, compute noise-aware baselines.

A *run* is either a ``BENCH_*.json`` payload (:mod:`repro.obs.bench`) or a
JSONL trace (:mod:`repro.obs.records`); both are indexed by
``(git_sha, created_at, seed)``.  The store answers two questions the
single-baseline diff of PR 1 could not:

* **What is normal?** — per-phase baselines over the last *N* runs as
  *median + MAD* (median absolute deviation), the standard robust
  location/scale pair: one outlier run cannot shift the baseline the way
  it would shift a mean/stddev pair.
* **Is this a regression or noise?** — :meth:`RunHistory.check` flags a
  candidate phase only when its median exceeds the history median by more
  than ``k×MAD`` (default ``k=3``) *and* a relative noise floor, so the
  CI gate can be enforced (nonzero exit) instead of advisory.

With fewer than ``min_runs`` historical runs the MAD is meaningless
(zero for a single run), so the check falls back to a generous relative
tolerance — wide enough that shared-runner noise passes, tight enough
that the acceptance scenario (a 5× single-phase slowdown) fails.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import records as obs_records
from repro.obs.bench import BENCH_SCHEMA, MIN_COMPARABLE_SECONDS

#: Enforcement default: candidate median must exceed history median by more
#: than this many MADs to fail the gate.
DEFAULT_MAD_K = 3.0

#: Relative noise floor under full history (runs >= min_runs): regressions
#: smaller than this fraction of the median never fail, no matter how tight
#: the MAD is (shared runners routinely jitter tens of percent).
NOISE_FLOOR_RATIO = 0.5

#: Absolute noise grace added to every threshold: a single scheduler
#: preemption inside a sub-millisecond phase multiplies its measured
#: median, so relative thresholds alone make sub-ms phases flaky on
#: shared runners.  One millisecond of grace is invisible to the
#: multi-ms phases where enforcement is meaningful.
ABS_NOISE_FLOOR_S = 0.001

#: Fallback relative tolerance when history is too thin for a MAD
#: (candidate fails beyond ``(1 + ratio) × median``; 1.5 → 2.5× median).
FALLBACK_TOLERANCE = 1.5

#: Minimum number of historical runs for the MAD threshold to be trusted.
MIN_RUNS_FOR_MAD = 3


def median(values: Sequence[float]) -> float:
    """Median without numpy (the history store stays dependency-light)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("median of empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation around the median (robust scale)."""
    center = median(values)
    return median([abs(float(v) - center) for v in values])


def section_medians(payload: Mapping[str, Any]) -> Dict[str, float]:
    """Wall-clock payload sections as ``section.…`` pseudo-phases.

    The nightly gate tracks these alongside recorder phases, so a
    regression in one fails the same median+MAD check as any instrumented
    phase.
    """
    out: Dict[str, float] = {}
    # Event-tracing overhead per flow run: pins both the tracer's cost when
    # on and the "disabled path is zero-cost" claim when off.
    overhead = (payload.get("obs") or {}).get("trace_overhead_s")
    if overhead is not None:
        out["section.obs.trace_overhead"] = float(overhead)
    # STA scale sweep: per-kilocell costs at each design size, so
    # the gate catches a per-cell cost regression that only shows at scale.
    # Normalized seconds keep every size's metrics above the gate's
    # MIN_COMPARABLE_SECONDS floor.
    scale = payload.get("scale") or {}
    for label, entry in sorted((scale.get("designs") or {}).items()):
        for metric, seconds in sorted((entry.get("per_kcell") or {}).items()):
            out[f"section.scale.{label}.{metric}"] = float(seconds)
    return out


def candidate_phases(payload: Mapping[str, Any]) -> Dict[str, Mapping[str, float]]:
    """A candidate payload's ``phases`` table plus its section pseudo-phases,
    in the shape :meth:`RunHistory.check` expects."""
    out: Dict[str, Mapping[str, float]] = dict(payload.get("phases", {}))
    for name, seconds in section_medians(payload).items():
        out[name] = {"median_s": seconds}
    return out


@dataclass(frozen=True)
class BenchRun:
    """One indexed ``BENCH_*.json`` payload."""

    path: str
    git_sha: str
    seed: Optional[int]
    created_at: str  # ISO timestamp, "" when the file predates the field
    total_seconds: float
    phase_medians: Dict[str, float]

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any], path: str) -> "BenchRun":
        medians = {
            name: float(stats["median_s"])
            for name, stats in payload.get("phases", {}).items()
        }
        medians.update(section_medians(payload))
        return cls(
            path=path,
            git_sha=str(payload.get("git_sha", "unknown")),
            seed=payload.get("seed"),
            created_at=str(payload.get("created_at", "")),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            phase_medians=medians,
        )


@dataclass(frozen=True)
class TraceRun:
    """One indexed JSONL trace (episode/flow/profile records)."""

    path: str
    git_shas: Tuple[str, ...]
    seeds: Tuple[int, ...]
    episodes: int
    kinds: Tuple[str, ...]


@dataclass(frozen=True)
class PhaseBaseline:
    """Robust per-phase timing baseline over the indexed runs."""

    median_s: float
    mad_s: float
    runs: int


@dataclass(frozen=True)
class Regression:
    """One enforced-gate failure: a phase median beyond its threshold."""

    phase: str
    candidate_s: float
    baseline_s: float
    threshold_s: float
    runs: int

    def message(self) -> str:
        return (
            f"phase {self.phase}: median {self.candidate_s * 1e3:.3f} ms exceeds "
            f"threshold {self.threshold_s * 1e3:.3f} ms "
            f"(history median {self.baseline_s * 1e3:.3f} ms over "
            f"{self.runs} run{'s' if self.runs != 1 else ''})"
        )


class RunHistory:
    """Immutable index of past bench payloads and traces."""

    def __init__(
        self,
        benches: Sequence[BenchRun] = (),
        traces: Sequence[TraceRun] = (),
    ) -> None:
        # Oldest first, deterministically: created_at (ISO strings sort
        # chronologically), then path as tie-breaker.
        self.benches: List[BenchRun] = sorted(
            benches, key=lambda run: (run.created_at, run.path)
        )
        self.traces: List[TraceRun] = sorted(traces, key=lambda run: run.path)

    def __len__(self) -> int:
        return len(self.benches)

    # ---- construction ------------------------------------------------ #
    @classmethod
    def from_payloads(
        cls, payloads: Sequence[Mapping[str, Any]], paths: Optional[Sequence[str]] = None
    ) -> "RunHistory":
        """Index in-memory bench payloads (e.g. the one committed baseline)."""
        if paths is None:
            paths = [f"<memory:{i}>" for i in range(len(payloads))]
        return cls(
            benches=[
                BenchRun.from_payload(payload, path)
                for payload, path in zip(payloads, paths)
            ]
        )

    @classmethod
    def scan(cls, root: str) -> "RunHistory":
        """Index every bench JSON and JSONL trace under ``root``.

        Unreadable or foreign files are skipped (a history directory often
        accumulates partial runs); the scan itself never raises for them.
        """
        benches: List[BenchRun] = []
        traces: List[TraceRun] = []
        for path in sorted(glob.glob(os.path.join(root, "**", "*.json"), recursive=True)):
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict) and payload.get("schema") == BENCH_SCHEMA:
                benches.append(BenchRun.from_payload(payload, path))
        for path in sorted(glob.glob(os.path.join(root, "**", "*.jsonl"), recursive=True)):
            try:
                recs = obs_records.read_records(path)
            except (OSError, ValueError):
                continue
            traces.append(
                TraceRun(
                    path=path,
                    git_shas=tuple(
                        sorted({str(r.get("git_sha", "unknown")) for r in recs})
                    ),
                    seeds=tuple(
                        sorted(
                            {int(r["seed"]) for r in recs if r.get("seed") is not None}
                        )
                    ),
                    episodes=sum(1 for r in recs if r.get("kind") == "episode"),
                    kinds=tuple(sorted({str(r.get("kind")) for r in recs})),
                )
            )
        return cls(benches=benches, traces=traces)

    # ---- baselines and the enforced gate ----------------------------- #
    def phase_baselines(self, last_n: int = 10) -> Dict[str, PhaseBaseline]:
        """Median + MAD of each phase's per-run medians, last ``last_n`` runs.

        A phase contributes only from runs that recorded it, so adding a
        new instrumented phase does not poison the existing baselines.
        """
        window = self.benches[-last_n:] if last_n > 0 else list(self.benches)
        series: Dict[str, List[float]] = {}
        for run in window:
            for phase, value in run.phase_medians.items():
                series.setdefault(phase, []).append(value)
        return {
            phase: PhaseBaseline(
                median_s=median(values), mad_s=mad(values), runs=len(values)
            )
            for phase, values in sorted(series.items())
        }

    def check(
        self,
        candidate_phases: Mapping[str, Mapping[str, float]],
        k: float = DEFAULT_MAD_K,
        last_n: int = 10,
        min_runs: int = MIN_RUNS_FOR_MAD,
        fallback_tolerance: float = FALLBACK_TOLERANCE,
        min_seconds: float = MIN_COMPARABLE_SECONDS,
    ) -> List[Regression]:
        """Enforced regression check of a candidate's ``phases`` table.

        Threshold per phase (history median *m*, across-run MAD):

        * ``runs >= min_runs`` — ``m + max(k·MAD, NOISE_FLOOR_RATIO·m,
          ABS_NOISE_FLOOR_S)``;
        * thinner history — ``m·(1 + fallback_tolerance)``, but never
          tighter than ``m + ABS_NOISE_FLOOR_S``.

        Phases faster than ``min_seconds`` or absent from history are
        skipped (same floors as the advisory diff).  Returns the failures,
        empty when the candidate is within bounds.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        baselines = self.phase_baselines(last_n=last_n)
        failures: List[Regression] = []
        for phase, stats in sorted(candidate_phases.items()):
            base = baselines.get(phase)
            if base is None or base.median_s < min_seconds:
                continue
            if base.runs >= min_runs:
                threshold = base.median_s + max(
                    k * base.mad_s,
                    NOISE_FLOOR_RATIO * base.median_s,
                    ABS_NOISE_FLOOR_S,
                )
            else:
                threshold = max(
                    base.median_s * (1.0 + fallback_tolerance),
                    base.median_s + ABS_NOISE_FLOOR_S,
                )
            candidate = float(stats["median_s"])
            if candidate > threshold:
                failures.append(
                    Regression(
                        phase=phase,
                        candidate_s=candidate,
                        baseline_s=base.median_s,
                        threshold_s=threshold,
                        runs=base.runs,
                    )
                )
        return failures
