"""Plain-text rendering of benchmark results (Table-II style).

The benches print through these helpers so ``pytest benchmarks/`` output can
be compared side by side with the paper's tables and figures.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.benchsuite.ablations import AblationPoint
from repro.benchsuite.figures import Fig5Result, Fig6Result
from repro.benchsuite.table2 import Table2Row, summarize_improvements


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render Table-II rows (begin / default / RL-CCD column groups)."""
    header = (
        f"{'design':>10} {'cells':>6} | "
        f"{'WNS':>7} {'TNS':>9} {'#vio':>5} {'power':>8} | "
        f"{'WNS':>7} {'TNS':>9} {'#vio':>5} {'power':>8} {'rt':>5} | "
        f"{'WNS':>7} {'TNS':>9} {'(goal)':>9} {'#vio':>5} {'power':>8} {'rt':>5}"
    )
    group = (
        f"{'':>10} {'':>6} | {'begin (post global place)':^40} | "
        f"{'default tool flow':^38} | {'RL-CCD enhanced (ours)':^48}"
    )
    lines = [group, header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.design:>10} {r.num_cells:>6} | "
            f"{r.begin.wns:>7.3f} {r.begin.tns:>9.2f} {r.begin.nve:>5} "
            f"{r.begin_power.total:>8.2f} | "
            f"{r.default.final.wns:>7.3f} {r.default.final.tns:>9.2f} "
            f"{r.default.final.nve:>5} {r.default.final_power.total:>8.2f} "
            f"{1.0:>5.2f} | "
            f"{r.rlccd.final.wns:>7.3f} {r.rlccd.final.tns:>9.2f} "
            f"({r.tns_improvement_pct:>+6.1f}%) {r.rlccd.final.nve:>5} "
            f"{r.rlccd.final_power.total:>8.2f} {r.runtime_ratio:>5.1f}"
        )
    if rows:
        s = summarize_improvements(list(rows))
        lines.append("-" * len(header))
        lines.append(
            f"{'summary':>10}: avg TNS {s['avg_tns_improvement_pct']:+.1f}% "
            f"(max {s['max_tns_improvement_pct']:+.1f}%), "
            f"avg NVE {s['avg_nve_improvement_pct']:+.1f}%, "
            f"avg power {s['avg_power_change_pct']:+.2f}%, "
            f"improved {s['designs_improved']}/{s['num_designs']} designs"
        )
    return "\n".join(lines)


def format_fig5(result: Fig5Result) -> str:
    """Render the Fig.-5 histogram as juxtaposed text bars."""
    lines = [
        f"Fig.5 — clock arrival adjustments on {result.design} "
        f"(RL-CCD prioritized {result.num_prioritized} endpoints)",
        f"{'bin (ns)':>22} | {'default':>8} {'RL-CCD':>8}",
    ]
    peak = max(1, int(result.default_counts.max()), int(result.rlccd_counts.max()))
    for i in range(len(result.default_counts)):
        lo, hi = result.bin_edges[i], result.bin_edges[i + 1]
        d, r = int(result.default_counts[i]), int(result.rlccd_counts[i])
        bar_d = "#" * int(round(20 * d / peak))
        bar_r = "*" * int(round(20 * r / peak))
        lines.append(
            f"[{lo:>+8.3f},{hi:>+8.3f}) | {d:>8} {r:>8}   {bar_d:<20} {bar_r}"
        )
    lines.append(
        f"total |skew|: default {result.default_total_skew:.3f} ns, "
        f"RL-CCD {result.rlccd_total_skew:.3f} ns"
    )
    return "\n".join(lines)


def format_fig6(result: Fig6Result) -> str:
    """Render the Fig.-6 convergence comparison."""
    lines = [
        f"Fig.6 — transfer learning on {result.design} "
        f"(EP-GNN pre-trained on {', '.join(result.pretrain_designs)})",
        f"{'episode':>8} | {'scratch best TNS':>17} | {'transfer best TNS':>18}",
    ]
    n = max(len(result.scratch_curve), len(result.transfer_curve))
    for i in range(n):
        s = result.scratch_curve[i] if i < len(result.scratch_curve) else np.nan
        t = result.transfer_curve[i] if i < len(result.transfer_curve) else np.nan
        lines.append(f"{i + 1:>8} | {s:>17.3f} | {t:>18.3f}")
    lines.append(
        f"episodes to best: scratch {result.scratch_episodes_to_best}, "
        f"transfer {result.transfer_episodes_to_best}"
    )
    s_eps, t_eps = result.episodes_to_reach(result.scratch_final_best)
    lines.append(
        f"episodes to reach scratch-final quality "
        f"({result.scratch_final_best:.3f}): scratch {s_eps}, "
        f"transfer {t_eps or 'never'}"
    )
    return "\n".join(lines)


def format_ablation(title: str, points: Iterable[AblationPoint]) -> str:
    """Render one ablation table."""
    lines = [
        title,
        f"{'configuration':>28} | {'TNS':>9} {'WNS':>8} {'NVE':>5} {'#sel':>5}",
    ]
    for p in points:
        lines.append(
            f"{p.label:>28} | {p.tns:>9.3f} {p.wns:>8.3f} {p.nve:>5} "
            f"{p.num_selected:>5}"
        )
    return "\n".join(lines)


def format_phase_table(
    phases: Mapping[str, Mapping[str, float]], title: str = "phase timings"
) -> str:
    """Render an aggregated :mod:`repro.obs` phase table, busiest first.

    ``phases`` is the ``BENCH_*.json`` ``phases`` mapping (or the output of
    :func:`repro.obs.bench.aggregate_phases`): per phase name a dict with
    ``count`` / ``total_s`` / ``median_s`` / ``p90_s`` / ``max_s``.
    """
    lines = [
        title,
        f"{'phase':>28} | {'count':>7} {'total':>9} {'median':>9} "
        f"{'p90':>9} {'max':>9}",
    ]
    ordered = sorted(phases.items(), key=lambda kv: -float(kv[1]["total_s"]))
    for name, stats in ordered:
        lines.append(
            f"{name:>28} | {int(stats['count']):>7} "
            f"{float(stats['total_s']):>8.3f}s "
            f"{1e3 * float(stats['median_s']):>7.2f}ms "
            f"{1e3 * float(stats['p90_s']):>7.2f}ms "
            f"{1e3 * float(stats['max_s']):>7.2f}ms"
        )
    if not phases:
        lines.append("(no phases recorded — is the obs recorder enabled?)")
    return "\n".join(lines)


def format_bench(payload: Mapping) -> str:
    """Render a full BENCH payload: headline metrics plus the phase table."""
    metrics = payload.get("metrics", {})
    design = payload.get("design", {})
    lines = [
        f"bench {payload.get('git_sha', '?')} — design "
        f"{design.get('name', '?')} ({design.get('cells', '?')} cells, "
        f"{design.get('endpoints', '?')} endpoints), seed "
        f"{payload.get('seed', '?')}, total {payload.get('total_seconds', 0.0):.2f}s",
        f"  default flow TNS {metrics.get('default_tns', float('nan')):.3f} "
        f"(begin {metrics.get('begin_tns', float('nan')):.3f}), "
        f"RL best TNS {metrics.get('rlccd_best_tns', float('nan')):.3f} "
        f"over {metrics.get('episodes_run', '?')} episodes",
        format_phase_table(payload.get("phases", {})),
    ]
    return "\n".join(lines)


def format_ppa(title: str, points) -> str:
    """Render an A4/A5 PPA table (timing + power + area)."""
    lines = [
        title,
        f"{'configuration':>28} | {'TNS':>9} {'WNS':>8} {'NVE':>5} "
        f"{'#sel':>5} {'power':>9} {'area':>9}",
    ]
    for p in points:
        lines.append(
            f"{p.label:>28} | {p.tns:>9.3f} {p.wns:>8.3f} {p.nve:>5} "
            f"{p.num_selected:>5} {p.power:>9.3f} {p.area:>9.1f}"
        )
    return "\n".join(lines)
