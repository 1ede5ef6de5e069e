"""Priority-driven sequential useful-skew engine (clock-path optimization).

Models the clock-path half of commercial CCD the way production engines
behave: endpoints are processed **sequentially in (margin-aware) criticality
order**, each adjustment borrows slack from the other side of a flop, and
committed flops are locked for the remainder of the run.

For an endpoint captured at flop *f*, delaying *f*'s clock by δ adds δ of
slack to the endpoint but removes δ from every path *launched* from *f*.
The engine takes only what the launch side can spare, in the margin-aware
slack view::

    δ = min( capture deficit,                      # don't fix past target
             max(0, launch slack),                 # never push launch below 0
             remaining physical bound )            # clock-tree flexibility

That floor at zero is the safety rail of production engines: the engine
never makes a launch path violate on its own, so margins are the only way
to make it fix an endpoint past its true need.  A symmetric recovery phase
pulls flops earlier when their launch side violates, taking at most the
capture slack they have to spare.  Because each flop is adjusted once and
locked (like a committed clock-tree edit), **processing order determines
who wins contended slack** — which is precisely the lever endpoint
prioritization operates.

Margins are that lever (Algorithm 1 line 14): an endpoint margined to WNS
is (a) processed first, (b) fixed as if it were critically violating, so
its *true* slack is pushed far positive — the "over-fix" — and (c) flops
launching into it see a terrible margin-aware launch side, so no later
adjustment steals its data-path slack back.  Whether a given over-fix helps
or hurts the final TNS depends on which endpoints absorb the stolen slack
and on what the (budgeted) data-path optimizer can subsequently repair —
the global, design-dependent structure the RL agent learns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.timing.clock import ClockModel
from repro.timing.sta import TimingAnalyzer, TimingReport


#: Sequential sweeps over not-yet-committed flops.
PASSES = 3
#: Commits between STA refreshes within a sweep.
REANALYZE_EVERY = 12
#: Attention window: per pass the engine only *processes* the worst
#: ``ATTENTION_FRACTION`` of currently violating endpoints (at least
#: ``MIN_ATTENTION``).  Production skew engines are runtime-bounded in
#: exactly this worst-first way — and this cap is what endpoint margining
#: exploits: an endpoint worsened to WNS jumps to the head of the window
#: and is guaranteed clock-path attention it would otherwise never get.
ATTENTION_FRACTION = 0.25
MIN_ATTENTION = 8
EPSILON = 1e-9


@dataclass
class UsefulSkewResult:
    """What the engine did."""

    commits: int = 0
    recovery_commits: int = 0
    passes_run: int = 0
    total_adjustment: float = 0.0


def optimize_useful_skew(
    analyzer: TimingAnalyzer,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]] = None,
) -> UsefulSkewResult:
    """Sequential priority skew optimization; mutates ``clock`` in place."""
    with obs.span("ccd.useful_skew"):
        result = _optimize_useful_skew(analyzer, clock, margins)
    obs.incr("skew.commits", result.commits)
    obs.incr("skew.recovery_commits", result.recovery_commits)
    obs.incr("skew.passes", result.passes_run)
    return result


def _optimize_useful_skew(
    analyzer: TimingAnalyzer,
    clock: ClockModel,
    margins: Optional[Mapping[int, float]],
) -> UsefulSkewResult:
    result = UsefulSkewResult()
    committed: Set[int] = set()
    eps = EPSILON

    for _pass in range(PASSES):
        report = analyzer.analyze(clock, margins)
        apparent = _apparent_slack(report)
        progressed = False
        result.passes_run += 1

        # ---- capture phase: worst apparent endpoints first ------------ #
        violating = sorted(
            (e for e, s in apparent.items() if s < -eps), key=lambda e: apparent[e]
        )
        window = max(MIN_ATTENTION, int(round(ATTENTION_FRACTION * len(violating))))
        worklist = violating[:window]
        commits_since_sta = 0
        for endpoint in worklist:
            flop = endpoint
            if flop in committed:
                continue
            cap_slack = apparent.get(endpoint)
            if cap_slack is None or cap_slack >= -eps:
                continue  # fixed meanwhile by an upstream commit
            bound_left = clock.bound(flop) - clock.arrival(flop)
            if bound_left <= eps:
                continue  # output port, rigid flop, or bound used up
            launch = float(report.cell_worst_slack_margined[flop])
            room = max(0.0, launch) if math.isfinite(launch) else math.inf
            delta = min(-cap_slack, room, bound_left)
            if delta <= eps:
                continue
            clock.adjust_arrival(flop, delta)
            analyzer.notify_skew((flop,))
            committed.add(flop)
            result.commits += 1
            progressed = True
            commits_since_sta += 1
            if commits_since_sta >= REANALYZE_EVERY:
                report = analyzer.analyze(clock, margins)
                apparent = _apparent_slack(report)
                commits_since_sta = 0

        # ---- recovery phase: launch side worse than capture side ------ #
        report = analyzer.analyze(clock, margins)
        apparent = _apparent_slack(report)
        for launch, flop in _recovery_worklist(analyzer, report, committed, window):
            if not math.isfinite(launch) or launch >= -eps:
                continue
            cap_slack = apparent.get(flop, math.inf)
            room = max(0.0, cap_slack) if math.isfinite(cap_slack) else math.inf
            bound_left = clock.bound(flop) + clock.arrival(flop)
            delta = min(-launch, room, bound_left)
            if delta <= eps:
                continue
            clock.adjust_arrival(flop, -delta)
            analyzer.notify_skew((flop,))
            committed.add(flop)
            result.recovery_commits += 1
            progressed = True

        if not progressed:
            break

    result.total_adjustment = clock.total_adjustment()
    return result


def _apparent_slack(report: TimingReport) -> Dict[int, float]:
    """Margin-aware slack per endpoint cell, in endpoint order."""
    return dict(zip(report.endpoints.tolist(), report.slack_with_margins.tolist()))


def _recovery_worklist(
    analyzer: TimingAnalyzer,
    report: TimingReport,
    committed: Set[int],
    window: int,
) -> List[Tuple[float, int]]:
    """The recovery phase's candidates: ``(launch slack, flop)`` of every
    uncommitted flop, ascending (a tie by flop index), the first ``window``.

    Flops come from the compiled ``is_flop`` view, their margin-aware launch
    slacks from one gather of ``report.cell_worst_slack_margined``.
    """
    flops = np.flatnonzero(analyzer.compiled.is_flop)
    launch_slack = report.cell_worst_slack_margined[flops].tolist()
    return sorted(
        (launch, flop)
        for launch, flop in zip(launch_slack, flops.tolist())
        if flop not in committed
    )[:window]
