"""Command-line interface for regenerating the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro table2 --blocks block5,block11 --episodes 12
    python -m repro fig5
    python -m repro fig6
    python -m repro ablations
    python -m repro blocks                # list the 19 designs
    python -m repro bench --out BENCH_smoke.json   # CI perf smoke run
    python -m repro train --episodes 5 --seed 0    # RL training smoke run
    python -m repro report trace.jsonl             # telemetry dashboard

Equivalent to the pytest benchmarks but convenient for one-off runs and for
driving larger sweeps (e.g. ``REPRO_BENCH_SCALE=200 python -m repro table2``).

Global observability flags (before the subcommand):

* ``-v`` / ``-vv`` — log the ``repro.*`` hierarchy at INFO / DEBUG;
* ``--trace PATH`` — enable the :mod:`repro.obs` recorder and append one
  JSONL run record per flow run / training episode to ``PATH`` (same effect
  as ``REPRO_OBS=PATH``; when both are set the CLI flag wins and the
  override is logged);
* ``--profile`` — additionally wrap the command in cProfile + tracemalloc
  and append one ``profile`` record to the trace (requires a trace sink);
* ``--trace-events`` — additionally record every ``obs.span`` as an
  event-level span record (:mod:`repro.obs.tracing`; requires a trace
  sink) for ``trace export`` / ``watch --spans`` / the report's "Slowest
  spans" section.

Trace consumers: ``python -m repro trace export|validate`` and
``python -m repro watch`` (the live view); see ``docs/observability.md``.

A bad argument to ``train``, ``bench``, ``table2``, ``fig5`` or ``fig6``
(a non-positive episode count, worker count or timeout, a design under
the workload's cell floor, an unreadable ``--history``, an unknown
``--blocks`` name) is one ``error:`` line and exit status 2, before any
design is built.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RL-CCD reproduction: regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log repro.* at INFO (-v) or DEBUG (-vv)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable observability and append JSONL run records to PATH "
        "(overrides REPRO_OBS when both are set)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the command (cProfile + tracemalloc) and append a "
        "'profile' record to the trace; requires --trace or REPRO_OBS=<path>",
    )
    parser.add_argument(
        "--trace-events",
        action="store_true",
        help="record every obs.span as an event-level span record in the "
        "trace (span id / parent id / wall-clock / attrs; see 'trace "
        "export' and 'watch --spans'); requires --trace or REPRO_OBS=<path>",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table2 = sub.add_parser("table2", help="regenerate Table II (default vs RL-CCD)")
    table2.add_argument(
        "--blocks",
        default="",
        help="comma-separated block subset (default: all 19)",
    )
    table2.add_argument("--episodes", type=int, default=12, help="RL episode cap")
    table2.add_argument("--seed", type=int, default=0)

    fig5 = sub.add_parser("fig5", help="regenerate Fig. 5 (arrival histogram, block11)")
    fig5.add_argument("--episodes", type=int, default=12)
    fig5.add_argument("--seed", type=int, default=0)

    fig6 = sub.add_parser("fig6", help="regenerate Fig. 6 (transfer learning, block19)")
    fig6.add_argument("--episodes", type=int, default=12)
    fig6.add_argument("--seed", type=int, default=0)

    sub.add_parser("ablations", help="run the A1-A3 ablations")
    sub.add_parser("blocks", help="list the 19 benchmark designs")

    bench = sub.add_parser(
        "bench",
        help="run the fixed perf smoke workload and write BENCH_<sha>.json",
    )
    bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: BENCH_<git sha>.json in the cwd)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--episodes", type=int, default=4)
    bench.add_argument("--cells", type=int, default=320)
    bench.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="a BENCH_*.json baseline or a directory of past runs; phase "
        "medians beyond the noise-aware threshold (3×MAD over the runs, or a "
        "generous fallback with fewer than 3) print as ::warning lines",
    )
    bench.add_argument(
        "--enforce",
        action="store_true",
        help="turn --history regressions into ::error lines and exit 1",
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the run over BENCH_baseline.json (or --out) with a "
        "provenance field, instead of hand-editing the baseline",
    )
    bench.add_argument(
        "--scale-sweep",
        action="store_true",
        help="additionally run the 10K-200K-cell STA scale sweep; per-cell "
        "costs land under the payload's 'scale' key and enter the "
        "median+MAD gate as section.scale.* pseudo-phases",
    )

    train = sub.add_parser(
        "train",
        help="train RL-CCD on the seeded smoke design (telemetry-friendly)",
    )
    train.add_argument("--episodes", type=int, default=8, help="episode cap")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--cells", type=int, default=320)
    train.add_argument(
        "--workers",
        type=int,
        default=1,
        help="persistent rollout-pool workers for flow-reward evaluation; "
        "each update samples one selection per worker "
        "(1 = sequential; see docs/rollout.md)",
    )
    train.add_argument(
        "--rollout-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="per-task wall-clock budget in the rollout pool; a worker "
        "exceeding it is killed, respawned and the task retried "
        "(default 120)",
    )
    train.add_argument(
        "--entropy-coef",
        type=float,
        default=0.0,
        help="entropy regularization coefficient (0 disables)",
    )

    report = sub.add_parser(
        "report",
        help="render the markdown + ASCII telemetry dashboard from a trace",
    )
    report.add_argument("trace", metavar="TRACE", help="JSONL trace to render")
    report.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="a BENCH_*.json run or a directory of them; adds history median "
        "and status columns to the flow phase table",
    )
    report.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the rendered report to PATH",
    )

    watch = sub.add_parser(
        "watch",
        help="tail a JSONL trace and print streaming per-episode/phase progress",
    )
    watch.add_argument(
        "trace",
        metavar="TRACE",
        help="JSONL trace a running train/bench is appending to "
        "(may not exist yet; watch waits for it)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="print what the trace holds now and exit instead of following",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval while following (default 0.5)",
    )
    watch.add_argument(
        "--spans",
        action="store_true",
        help="also print one line per span event (high volume; needs a "
        "trace written with --trace-events)",
    )

    trace = sub.add_parser(
        "trace",
        help="event-trace utilities over a JSONL trace (export, validate)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="convert span records to Chrome trace-event / Perfetto JSON",
    )
    export.add_argument("trace", metavar="TRACE", help="JSONL trace to convert")
    export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: <trace>.perfetto.json)",
    )
    validate = trace_sub.add_parser(
        "validate",
        help="check every record in a trace against the versioned schema",
    )
    validate.add_argument("trace", metavar="TRACE", help="JSONL trace to validate")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Imports deferred so `--help` stays instant.
    from repro import obs

    obs.setup_logging(args.verbose)
    log = obs.get_logger("cli")
    if args.trace:
        # Precedence when both are set: the CLI flag wins over REPRO_OBS
        # (the explicit, per-invocation intent beats ambient environment),
        # and the override is logged so neither sink surprises anyone.
        env_path = obs.env_trace_path()
        if env_path and env_path != args.trace:
            log.warning(
                "--trace %s overrides REPRO_OBS=%s (CLI flag wins)",
                args.trace,
                env_path,
            )
        obs.set_trace_path(args.trace)
        log.info("tracing run records to %s", args.trace)

    if args.trace_events:
        if not obs.records_active():
            print(
                "error: --trace-events needs a trace sink; pass --trace PATH "
                "or set REPRO_OBS=<path>",
                file=sys.stderr,
            )
            return 2
        tracer = obs.tracing.enable()
        log.info("event-level span tracing enabled (trace id %s)", tracer.trace_id)

    if args.profile:
        if not obs.records_active():
            print(
                "error: --profile needs a trace sink; pass --trace PATH or "
                "set REPRO_OBS=<path>",
                file=sys.stderr,
            )
            return 2
        from repro.obs.profiling import Profiler

        with Profiler(command=args.command):
            return _dispatch(args)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    from repro import obs

    # watch/trace are pure record consumers: handled before the benchsuite
    # imports so tailing a trace never pays (or requires) workload setup.
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "trace":
        return _cmd_trace(args)

    from repro.benchsuite.designs import BLOCKS, bench_scale, get_block
    from repro.benchsuite.table2 import Table2Config

    if args.command == "blocks":
        print(f"{'name':>10} {'paper cells':>12} {'generated':>10} {'tech':>7}")
        for spec in BLOCKS:
            print(
                f"{spec.name:>10} {spec.paper_cells:>12,} "
                f"{spec.n_cells():>10,} {spec.library:>7}"
            )
        print(f"(scale 1/{bench_scale()}; override with REPRO_BENCH_SCALE)")
        return 0

    if args.command == "bench":
        from repro.benchsuite.report import format_bench
        from repro.obs.bench import (
            BenchConfig,
            ScaleSweepConfig,
            default_output_name,
            run_bench,
            save_bench,
            update_baseline,
        )

        try:
            config = BenchConfig(seed=args.seed, episodes=args.episodes, cells=args.cells)
        except ValueError as exc:
            return _bad_argument(exc)
        if args.enforce and not args.history:
            print("error: --enforce needs --history PATH", file=sys.stderr)
            return 2
        # Load the history up front so a bad path fails before the (slow)
        # workload runs, not after — with a one-line error, not a traceback
        # (missing file and corrupt/foreign JSON alike).  An empty history
        # would pass vacuously.
        history = None
        if args.history:
            history = _load_history(args.history)
            if history is None:
                return 2
            if len(history) == 0:
                print(
                    f"error: found no BENCH_*.json runs in {args.history}",
                    file=sys.stderr,
                )
                return 2

        scale_config = ScaleSweepConfig(seed=args.seed) if args.scale_sweep else None
        payload = run_bench(config, scale_config=scale_config)
        if args.update_baseline:
            out = args.out or "BENCH_baseline.json"
            payload = update_baseline(payload, out)
            print(format_bench(payload))
            print(f"refreshed baseline {out}", file=sys.stderr)
        else:
            out = args.out or default_output_name()
            save_bench(payload, out)
            print(format_bench(payload))
            print(f"wrote {out}", file=sys.stderr)

        if history is not None:
            from repro.obs.history import candidate_phases

            failures = history.check(candidate_phases(payload))
            # GitHub Actions turns `::warning ::` / `::error ::` lines into
            # annotations; locally they read fine as plain stderr output.
            severity = "error" if args.enforce else "warning"
            for failure in failures:
                print(
                    f"::{severity} ::bench regression: {failure.message()}",
                    file=sys.stderr,
                )
            if failures:
                return 1 if args.enforce else 0
            print(
                f"bench gate passed against {len(history)} "
                f"historical run{'s' if len(history) != 1 else ''}",
                file=sys.stderr,
            )
        return 0

    if args.command == "train":
        from repro.agent.reinforce import TrainConfig, train_rlccd
        from repro.obs.bench import build_workload, check_cells

        try:
            check_cells(args.cells)
            config = TrainConfig(
                max_episodes=args.episodes,
                # One selection per pool worker per update, so every worker
                # has work.
                episodes_per_update=max(args.workers, 1),
                seed=args.seed,
                workers=args.workers,
                rollout_timeout=args.rollout_timeout,
                entropy_coefficient=args.entropy_coef,
            )
        except ValueError as exc:
            return _bad_argument(exc)
        workload = build_workload(seed=args.seed, cells=args.cells)

        def progress(record) -> None:
            print(
                f"episode {record.episode}: tns={record.tns:+.4f} "
                f"wns={record.wns:+.4f} selected={record.num_selected} "
                f"advantage={record.advantage:+.3f}",
                file=sys.stderr,
            )

        with obs.span("cli.train"):
            result = train_rlccd(
                workload.policy,
                workload.env,
                workload.flow_config,
                config,
                progress=progress,
            )
        print(
            f"design {workload.name}: {workload.env.num_endpoints} violating "
            f"endpoints at period {workload.clock_period:.4f}"
        )
        print(f"episodes run: {result.episodes_run} (converged: {result.converged})")
        print(
            f"best TNS: {result.best_tns:+.4f} with "
            f"{len(result.best_selection)} endpoints prioritized"
        )
        if obs.records_active():
            print(f"run records appended to {obs.trace_path()}", file=sys.stderr)
        return 0

    if args.command == "report":
        import os

        from repro.obs.report import render_report

        try:
            trace_records = obs.read_records(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
            return 2
        history = None
        if args.history:
            history = _load_history(args.history)
            if history is None:
                return 2
        text = render_report(trace_records, history=history, source=os.path.basename(args.trace))
        print(text)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    # ``ablations`` has no --episodes/--seed flags; fall back to defaults.
    # Both are checked, and ``table2``'s blocks resolved, before any work.
    try:
        config = Table2Config(
            max_episodes=getattr(args, "episodes", 12), seed=getattr(args, "seed", 0)
        )
        if args.command == "table2":
            specs = (
                [get_block(n.strip()) for n in args.blocks.split(",") if n.strip()]
                if args.blocks
                else list(BLOCKS)
            )
    except (KeyError, ValueError) as exc:
        return _bad_argument(exc)

    if args.command == "table2":
        from repro.benchsuite.report import format_table2
        from repro.benchsuite.table2 import run_table2_row

        rows = []
        for spec in specs:
            watch = obs.Stopwatch()
            with obs.span("cli.table2_row"):
                rows.append(run_table2_row(spec, config))
            print(
                f"{spec.name}: done in {watch.elapsed:.1f}s",
                file=sys.stderr,
            )
        print(format_table2(rows))
        return 0

    if args.command == "fig5":
        from repro.benchsuite.figures import fig5_arrival_histogram
        from repro.benchsuite.report import format_fig5

        print(format_fig5(fig5_arrival_histogram(config=config)))
        return 0

    if args.command == "fig6":
        from repro.benchsuite.figures import fig6_transfer
        from repro.benchsuite.report import format_fig6

        print(format_fig6(fig6_transfer(config=config)))
        return 0

    if args.command == "ablations":
        from repro.benchsuite.ablations import (
            overfix_vs_underfix,
            rho_sweep,
            selection_baselines,
        )
        from repro.benchsuite.report import format_ablation

        print(format_ablation("A1 - over-fix vs under-fix", overfix_vs_underfix(config=config)))
        print()
        print(format_ablation("A2 - overlap threshold sweep", rho_sweep(config=config)))
        print()
        print(format_ablation("A3 - selection baselines", selection_baselines(config=config)))
        return 0

    return 1


def _bad_argument(exc: Exception) -> int:
    """A rejected command-line value: one ``error:`` line, exit status 2."""
    # A KeyError's str() is the repr of its message.
    message = exc.args[0] if isinstance(exc, KeyError) else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_history(path: str):
    """``RunHistory.scan(path)``, or ``None`` after a one-line error."""
    from repro.obs.history import RunHistory

    try:
        return RunHistory.scan(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load bench history {path}: {exc}", file=sys.stderr)
        return None


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.watch import follow_records, render_span_line, render_watch_line

    import os

    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 2
    if not args.once and not os.path.exists(args.trace):
        print(f"waiting for {args.trace} ...", file=sys.stderr)
    try:
        for record in follow_records(args.trace, interval=args.interval, once=args.once):
            line = render_watch_line(record)
            if line is None and args.spans:
                line = render_span_line(record)
            if line is not None:
                print(line, flush=True)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # Downstream pager/head closed; that's a normal way to stop a tail.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "export":
        from repro.obs.trace_export import export_file

        out = args.out or f"{args.trace}.perfetto.json"
        try:
            summary = export_file(args.trace, out)
        except (OSError, ValueError) as exc:
            print(f"error: cannot export trace {args.trace}: {exc}", file=sys.stderr)
            return 2
        print(
            f"wrote {out}: {summary['spans']} spans, "
            f"{summary['instants']} instants across "
            f"{summary['processes']} process(es)"
        )
        if summary["spans"] + summary["instants"] == 0:
            print(
                "note: no span records found; record them with "
                "--trace-events",
                file=sys.stderr,
            )
        return 0

    from repro.obs.trace_schema import validate_trace

    try:
        counts = validate_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    total = sum(counts.values())
    breakdown = ", ".join(f"{kind}={n}" for kind, n in sorted(counts.items()))
    print(f"{args.trace}: {total} record(s) valid ({breakdown or 'empty'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
