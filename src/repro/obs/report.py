"""``python -m repro report`` — markdown + ASCII dashboard over a trace.

Renders a deterministic (same trace → byte-identical output) regression
dashboard from the run records of one JSONL trace: training reward/TNS
curves, policy-entropy decay, attention concentration, gradient norms,
per-endpoint selection-frequency heat, flow phase timings — and, when a
:class:`repro.obs.history.RunHistory` is supplied, each phase's trend
against the noise-aware history baseline (median + MAD).

Everything is plain text built on :mod:`repro.viz.ascii_plots`, so the
report diffs cleanly in CI logs and uploads as a workflow artifact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.history import RunHistory, median, regression_threshold
from repro.viz.ascii_plots import line_plot, sparkline

#: Endpoints shown in the selection-frequency heat (most-selected first).
MAX_FREQUENCY_ROWS = 20

#: Span events shown in the "Slowest spans" section (longest first).
MAX_SLOW_SPANS = 10

_BAR_WIDTH = 30


def _by_kind(records: Sequence[Mapping[str, Any]]) -> Dict[str, List[Mapping[str, Any]]]:
    grouped: Dict[str, List[Mapping[str, Any]]] = {}
    for record in records:
        grouped.setdefault(str(record.get("kind", "?")), []).append(record)
    return grouped


def _telemetry_series(
    episodes: Sequence[Mapping[str, Any]], key: str
) -> List[float]:
    """Per-episode telemetry values (episodes lacking the key are skipped)."""
    values = []
    for record in episodes:
        telemetry = record.get("telemetry") or {}
        value = telemetry.get(key)
        if value is not None:
            values.append(float(value))
    return values


def _fence(text: str) -> List[str]:
    return ["```", text, "```"]


def _bar(count: float, peak: float) -> str:
    return "#" * max(1, int(round(_BAR_WIDTH * count / peak))) if peak else ""


def render_report(
    records: Sequence[Mapping[str, Any]],
    history: Optional[RunHistory] = None,
    source: str = "trace",
) -> str:
    """The full dashboard as one markdown string (no trailing newline)."""
    grouped = _by_kind(records)
    episodes = sorted(grouped.get("episode", []), key=lambda r: int(r["episode"]))
    flows = grouped.get("flow", [])
    trains = grouped.get("train", [])
    profiles = grouped.get("profile", [])
    rollouts = grouped.get("rollout", [])
    spans = grouped.get("span", [])

    lines: List[str] = [f"# repro run report — {source}", ""]
    kinds = ", ".join(f"{kind}: {len(grouped[kind])}" for kind in sorted(grouped))
    shas = sorted({str(r.get("git_sha", "unknown")) for r in records})
    seeds = sorted({int(r["seed"]) for r in records if r.get("seed") is not None})
    lines.append(f"- records: {len(records)} ({kinds or 'none'})")
    lines.append(f"- git sha: {', '.join(shas) if shas else 'unknown'}")
    if seeds:
        lines.append(f"- seed: {', '.join(str(s) for s in seeds)}")
    for train in trains:
        lines.append(
            f"- training run: design `{train.get('design', '?')}`, "
            f"{train.get('endpoints', '?')} endpoints, "
            f"{train.get('episodes_run', '?')} episodes, "
            f"best TNS {float(train.get('best_tns', float('nan'))):+.4f}, "
            f"converged: {train.get('converged', '?')}"
        )
    lines.append("")

    if episodes:
        lines.extend(_render_training(episodes))
        lines.extend(_render_entropy(episodes))
        lines.extend(_render_attention(episodes))
        lines.extend(_render_gradients(episodes))
        lines.extend(_render_selection_heat(episodes))
    else:
        lines.extend(["## Training", "", "(no episode records in this trace)", ""])

    if rollouts:
        lines.extend(_render_rollout(rollouts))
    if flows:
        lines.extend(_render_flow_phases(flows, history))
        lines.extend(_render_sta_frontier(flows))
    if spans:
        lines.extend(_render_slowest_spans(spans))
    if profiles:
        lines.extend(_render_profile(profiles[-1]))
    return "\n".join(lines).rstrip()


# ---------------------------------------------------------------------- #
def _render_training(episodes: Sequence[Mapping[str, Any]]) -> List[str]:
    tns = [float(r["tns"]) for r in episodes]
    best = []
    for value in tns:
        best.append(value if not best else max(best[-1], value))
    advantage = [float(r["advantage"]) for r in episodes]
    lines = ["## Training curves", ""]
    lines.append(f"- episodes: {len(episodes)}")
    lines.append(
        f"- TNS: first {tns[0]:+.4f}, best {max(tns):+.4f}, last {tns[-1]:+.4f}"
    )
    lines.append(f"- TNS per episode:     `{sparkline(tns)}`")
    lines.append(f"- best-so-far TNS:     `{sparkline(best)}`")
    lines.append(f"- advantage:           `{sparkline(advantage)}`")
    lines.append("")
    lines.extend(_fence(line_plot({"tns": tns, "best": best}, title="TNS (reward) per episode")))
    lines.append("")
    return lines


def _render_entropy(episodes: Sequence[Mapping[str, Any]]) -> List[str]:
    mean_entropy = _telemetry_series(episodes, "entropy_mean")
    lines = ["## Policy entropy", ""]
    if not mean_entropy:
        lines.extend(["(no telemetry in this trace — telemetry off)", ""])
        return lines
    first = _telemetry_series(episodes, "entropy_first")
    last = _telemetry_series(episodes, "entropy_last")
    lines.append(
        f"- mean step entropy: first episode {mean_entropy[0]:.4f} → "
        f"last episode {mean_entropy[-1]:.4f}"
    )
    lines.append(f"- mean entropy per episode:   `{sparkline(mean_entropy)}`")
    if first and last:
        lines.append(f"- first-step entropy:         `{sparkline(first)}`")
        lines.append(f"- last-step entropy:          `{sparkline(last)}`")
    lines.append("")
    return lines


def _render_attention(episodes: Sequence[Mapping[str, Any]]) -> List[str]:
    concentration = _telemetry_series(episodes, "concentration_mean")
    lines = ["## Attention logits", ""]
    if not concentration:
        lines.extend(["(no telemetry in this trace)", ""])
        return lines
    logit_min = _telemetry_series(episodes, "logit_min")
    logit_max = _telemetry_series(episodes, "logit_max")
    top_prob = _telemetry_series(episodes, "top_prob_mean")
    if logit_min and logit_max:
        lines.append(
            f"- logit range over run: [{min(logit_min):+.4f}, {max(logit_max):+.4f}]"
        )
    lines.append(f"- softmax concentration (Σp²): `{sparkline(concentration)}`")
    if top_prob:
        lines.append(f"- mean top-1 probability:      `{sparkline(top_prob)}`")
    gammas = [
        (r.get("telemetry") or {}).get("gnn_gamma")
        for r in episodes
        if (r.get("telemetry") or {}).get("gnn_gamma")
    ]
    if gammas:
        final = gammas[-1]
        lines.append(
            "- EP-GNN γ gates (final): "
            + ", ".join(f"{g:.4f}" for g in final)
        )
    lines.append("")
    return lines


def _render_gradients(episodes: Sequence[Mapping[str, Any]]) -> List[str]:
    pre = _telemetry_series(episodes, "grad_norm_preclip")
    post = _telemetry_series(episodes, "grad_norm_postclip")
    lines = ["## Gradient norms", ""]
    if not pre:
        lines.extend(["(no telemetry in this trace)", ""])
        return lines
    clipped = sum(1 for a, b in zip(pre, post) if a > b)
    lines.append(
        f"- pre-clip norm: min {min(pre):.4f}, max {max(pre):.4f}; "
        f"clipped on {clipped}/{len(pre)} updates"
    )
    lines.append(f"- pre-clip norm per episode:  `{sparkline(pre)}`")
    lines.append(f"- post-clip norm per episode: `{sparkline(post)}`")
    lines.append("")
    return lines


def _render_selection_heat(episodes: Sequence[Mapping[str, Any]]) -> List[str]:
    lines = ["## Endpoint selection frequency", ""]
    # The last episode's cumulative counter covers the whole run.
    frequency: Dict[str, int] = {}
    for record in reversed(episodes):
        telemetry = record.get("telemetry") or {}
        if telemetry.get("selection_frequency"):
            frequency = {
                str(k): int(v) for k, v in telemetry["selection_frequency"].items()
            }
            break
    if not frequency:
        lines.extend(["(no telemetry in this trace)", ""])
        return lines
    total = sum(frequency.values())
    ranked = sorted(frequency.items(), key=lambda kv: (-kv[1], int(kv[0])))
    shown = ranked[:MAX_FREQUENCY_ROWS]
    peak = shown[0][1]
    lines.append(
        f"- {len(frequency)} distinct endpoints selected, "
        f"{total} selections total"
    )
    lines.append("")
    lines.append("| endpoint | count | share | heat |")
    lines.append("|---:|---:|---:|:---|")
    for endpoint, count in shown:
        lines.append(
            f"| {endpoint} | {count} | {100.0 * count / total:.1f}% "
            f"| `{_bar(count, peak)}` |"
        )
    if len(ranked) > len(shown):
        rest = sum(count for _, count in ranked[len(shown):])
        lines.append(f"| …{len(ranked) - len(shown)} more | {rest} | "
                     f"{100.0 * rest / total:.1f}% | |")
    lines.append("")
    return lines


def _render_rollout(rollouts: Sequence[Mapping[str, Any]]) -> List[str]:
    """Pool-health table from ``rollout`` run records (one per training
    run): throughput/caching on the left, fault counters on the right."""
    lines = ["## Rollout pool health", ""]
    lines.append(
        "| workers | start | tasks | cache hits | hit rate | restarts "
        "| timeouts | crashes | corrupt | seq. fallbacks |"
    )
    lines.append("|---:|:---|---:|---:|---:|---:|---:|---:|---:|---:|")
    for record in rollouts:
        hits = int(record.get("cache_hits", 0))
        misses = int(record.get("cache_misses", 0))
        lookups = hits + misses
        rate = f"{100.0 * hits / lookups:.1f}%" if lookups else "—"
        lines.append(
            f"| {record.get('workers', '?')} "
            f"| {record.get('start_method', '?')} "
            f"| {record.get('tasks', 0)} "
            f"| {hits} | {rate} "
            f"| {record.get('worker_restarts', 0)} "
            f"| {record.get('task_timeouts', 0)} "
            f"| {record.get('worker_crashes', 0)} "
            f"| {record.get('corrupt_results', 0)} "
            f"| {record.get('sequential_fallbacks', 0)} |"
        )
    lines.append("")
    return lines


def _render_flow_phases(
    flows: Sequence[Mapping[str, Any]],
    history: Optional[RunHistory],
) -> List[str]:
    lines = ["## Flow phase timings", ""]
    series: Dict[str, List[float]] = {}
    for record in flows:
        for phase, seconds in (record.get("phases") or {}).items():
            series.setdefault(str(phase), []).append(float(seconds))
    if not series:
        lines.extend(["(flow records carry no phase data)", ""])
        return lines
    lines.append(f"- flow runs in trace: {len(flows)}")
    lines.append("")
    baselines = history.phase_baselines() if history is not None else {}
    header = "| phase | runs | median | trend |"
    divider = "|:---|---:|---:|:---|"
    if baselines:
        header += " history median | MAD | status |"
        divider += "---:|---:|:---|"
    lines.extend([header, divider])
    for phase in sorted(series):
        values = series[phase]
        row = (
            f"| {phase} | {len(values)} | {1e3 * median(values):.3f} ms "
            f"| `{sparkline(values)}` |"
        )
        if baselines:
            # Trace flow phases are short names; bench/recorder phases are
            # the span names ("begin_sta" → "flow.begin_sta").
            base = baselines.get(phase) or baselines.get(f"flow.{phase}")
            if base is None:
                row += " — | — | no history |"
            else:
                threshold = regression_threshold(base)
                regressed = threshold is not None and median(values) > threshold
                status = "**regressed**" if regressed else "ok"
                row += (
                    f" {1e3 * base.median_s:.3f} ms | {1e3 * base.mad_s:.3f} ms "
                    f"| {status} |"
                )
        lines.append(row)
    lines.append("")
    return lines


def _render_sta_frontier(flows: Sequence[Mapping[str, Any]]) -> List[str]:
    """Incremental-STA engine health from flow records carrying ``sta``
    counter deltas: how much of the work ran through the vectorized
    frontier kernels versus the scalar fallback, and how large the dirty
    frontier got."""
    stats = [record["sta"] for record in flows if record.get("sta")]
    if not stats:
        return []
    lines = ["## STA frontier", ""]
    lines.append(
        "| flow | full | incremental | frontier cells | vectorized levels "
        "| scalar levels | peak frontier |"
    )
    lines.append("|---:|---:|---:|---:|---:|---:|---:|")
    for index, sta in enumerate(stats):
        lines.append(
            f"| {index} "
            f"| {int(sta.get('full_analyze', 0))} "
            f"| {int(sta.get('incremental_analyze', 0))} "
            f"| {int(sta.get('frontier_cells', 0))} "
            f"| {int(sta.get('vectorized_levels', 0))} "
            f"| {int(sta.get('scalar_levels', 0))} "
            f"| {int(sta.get('frontier_peak', 0))} |"
        )
    lines.append("")
    return lines


def _ancestry(
    span: Mapping[str, Any], by_id: Mapping[str, Mapping[str, Any]]
) -> str:
    """Outermost-first ``a > b > c`` path of a span's named ancestors.

    Parents missing from the trace (e.g. the root of a truncated file)
    surface as ``…``; a cycle guard bounds the walk in case of corrupt
    parent links.
    """
    names: List[str] = []
    seen = set()
    parent_id = span.get("parent_id")
    while parent_id is not None and parent_id not in seen:
        seen.add(parent_id)
        parent = by_id.get(parent_id)
        if parent is None:
            names.append("…")
            break
        names.append(str(parent.get("name", "?")))
        parent_id = parent.get("parent_id")
    names.reverse()
    names.append(str(span.get("name", "?")))
    return " > ".join(names)


def _render_slowest_spans(spans: Sequence[Mapping[str, Any]]) -> List[str]:
    """Top-N span events by duration, with where they ran and their
    ancestry path — the "what actually took the time" view the aggregated
    phase table cannot give."""
    lines = ["## Slowest spans", ""]
    complete = [s for s in spans if s.get("ph") == "X"]
    instants = len(spans) - len(complete)
    lines.append(
        f"- span events: {len(spans)} ({len(complete)} spans, "
        f"{instants} instants)"
    )
    if not complete:
        lines.append("")
        return lines
    by_id = {
        str(s.get("span_id")): s for s in spans if s.get("span_id") is not None
    }
    ranked = sorted(
        complete,
        key=lambda s: (
            -float(s.get("dur", 0.0)),
            str(s.get("name", "")),
            str(s.get("span_id", "")),
        ),
    )[:MAX_SLOW_SPANS]
    lines.append("")
    lines.append("| span | where | duration | path |")
    lines.append("|:---|:---|---:|:---|")
    for span in ranked:
        worker = span.get("worker")
        where = "main" if worker is None else f"worker {worker}"
        lines.append(
            f"| {span.get('name', '?')} | {where} "
            f"| {1e3 * float(span.get('dur', 0.0)):.3f} ms "
            f"| `{_ancestry(span, by_id)}` |"
        )
    lines.append("")
    return lines


def _render_profile(profile: Mapping[str, Any]) -> List[str]:
    lines = ["## Profile", ""]
    lines.append(
        f"- command: `{profile.get('command', '?')}`, peak memory "
        f"{float(profile.get('memory_peak_kb', 0.0)):.0f} kB"
    )
    functions = profile.get("top_functions") or []
    if functions:
        lines.extend(["", "| function | calls | cumulative | total |",
                      "|:---|---:|---:|---:|"])
        for row in functions:
            lines.append(
                f"| `{row['function']}` | {row['calls']} "
                f"| {float(row['cumulative_seconds']):.4f} s "
                f"| {float(row['total_seconds']):.4f} s |"
            )
    allocations = profile.get("top_allocations") or []
    if allocations:
        lines.extend(["", "| allocation site | size | blocks |", "|:---|---:|---:|"])
        for row in allocations:
            lines.append(
                f"| `{row['site']}` | {float(row['size_kb']):.1f} kB "
                f"| {row['count']} |"
            )
    phases = profile.get("top_phases") or []
    if phases:
        lines.extend(["", "| phase | count | total |", "|:---|---:|---:|"])
        for row in phases:
            lines.append(
                f"| {row['phase']} | {row['count']} "
                f"| {float(row['total_seconds']):.4f} s |"
            )
    lines.append("")
    return lines
