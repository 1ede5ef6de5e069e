"""RL-CCD end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_2k --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's own
``repro.obs`` recorder off.  ``--trace 1`` publishes the per-layer metrics
instead: it times an untraced prefix of the loop, then runs the whole loop
again with the layer wrappers of ``layers.py`` installed.  Both print
informational ``#`` lines and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Measure what users run: no REPRO_* switch from the calling shell (shadow
# checks, forced engines, recorder sinks) may leak into the timings.  One
# BLAS thread per process: train_2k_w2 runs three processes on a two-CPU
# host, and per-process BLAS pools only add contention there.
for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]
os.environ["OPENBLAS_NUM_THREADS"] = "1"

END_TO_END_UNITS = {
    "episodes_per_s": "1/s",
    "iteration_ms_p50": "ms",
    "iteration_ms_p75": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_tns_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.startswith("setup."):
        return "ms"
    if name.endswith((".self_ms", ".wait_ms")):
        return "ms/iter"
    if name.endswith((".calls", ".probes")):
        return "count/iter"
    if name.endswith(".us_p50"):
        return "us"
    if name.endswith(".retries"):
        return "count"
    return "ratio"


def host_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import layers
    import workloads
    from repro import obs
    from tracer import LayerTracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    obs.disable()
    print("# host " + json.dumps(host_info()), flush=True)

    workload = workloads.WORKLOADS[args.workload]
    iterations = workload.iterations(args.seconds)
    designs = (
        workloads.build_design(workload.design),
        workloads.build_design(workload.design),
    )
    if args.trace:
        prefix = workloads.OVERHEAD_PREFIX
        reference = workloads.run_workload(
            args.workload, args.seed, prefix + 1, verify=False, designs=designs
        )
        with LayerTracer() as tracer:
            layers.install(tracer)
            run = workloads.run_workload(
                args.workload, args.seed, iterations, tracer=tracer, designs=designs
            )
        iteration_s = sum(run.walls)
        closure = layers.closure_error(tracer, iteration_s)
        run.checks["layer_closure"] = closure <= 0.01
        # At the reference host speed: the two loops run at different times.
        overhead = sum(reference.scaled_walls()[1:]) / sum(run.scaled_walls()[1 : prefix + 1])
        metrics = layers.layer_metrics(
            tracer, len(run.walls), iteration_s, run.setup_samples, overhead
        )
        units = {name: per_layer_unit(name) for name in metrics}
        print(f"# layer closure error {closure:.2e} of {iteration_s:.3f} s", flush=True)
    else:
        run = workloads.run_workload(args.workload, args.seed, iterations, designs=designs)
        metrics = workloads.end_to_end(run)
        units = END_TO_END_UNITS
        raw = workloads.measured(run)
        print(
            f"# iteration_ms p50={metrics['iteration_ms_p50']:.3f} "
            f"p75={metrics['iteration_ms_p75']:.3f} (n={len(run.walls)}), "
            f"setup_s from {len(run.setup_samples)} constructions, at the reference "
            f"host speed; as measured: " + json.dumps(raw),
            flush=True,
        )

    print(
        f"# {args.workload}: {run.design}; {run.iterations} iterations, "
        f"{run.episodes} episodes; seed {args.seed}",
        flush=True,
    )
    print(
        f"# best_tns={run.best_tns!r} ns default_tns={run.default_tns!r} ns "
        f"history_sha256={run.history_sha256()}",
        flush=True,
    )
    print(f"# checks {json.dumps(run.checks)}", flush=True)
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.iterations,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
