"""``repro.obs`` — the observability layer.

Small, dependency-free pieces (see ``docs/observability.md``):

* :mod:`repro.obs.core` — a process-global :class:`Recorder` of phase
  timers (``with obs.span("sta.full_update")``) and counters
  (``obs.incr("skew.commits")``); strict no-op when disabled;
* :mod:`repro.obs.records` — structured JSONL run records behind
  ``REPRO_OBS=<path>`` / ``--trace`` (schema ``repro-obs/v2``), buffered
  inside rollout workers and replayed by the parent;
* :mod:`repro.obs.telemetry` — per-episode RL internals (entropy,
  attention-logit stats, gradient norms, selection trajectories) nested
  into ``episode`` records;
* :mod:`repro.obs.history` — the run-history store indexing past
  ``BENCH_*.json`` runs and computing median+MAD baselines;
* :mod:`repro.obs.report` — the ``python -m repro report`` dashboard;
* :mod:`repro.obs.profiling` — ``--profile`` (cProfile + tracemalloc
  into ``profile`` records);
* :mod:`repro.obs.logging` — the stdlib ``repro.*`` logger hierarchy
  (:func:`setup_logging`);
* :mod:`repro.obs.bench` — the ``python -m repro bench`` smoke workload
  whose ``BENCH_<sha>.json`` output CI publishes and gates on.

Typical instrumentation::

    from repro import obs

    with obs.span("ccd.useful_skew"):
        ...
        obs.incr("skew.commits")
"""

from repro.obs.core import (
    ENV_VAR,
    VERIFY_ENV_VAR,
    Recorder,
    Span,
    Stopwatch,
    child_reset,
    disable,
    enable,
    enabled,
    get_recorder,
    incr,
    reset,
    set_verify,
    span,
    verify_enabled,
)
from repro.obs.logging import get_logger, setup_logging, verbosity_to_level
from repro.obs.records import (
    SCHEMA,
    emit,
    env_trace_path,
    git_sha,
    read_records,
    set_trace_path,
    trace_path,
)

# Whether the JSONL sink is connected.  ``records.tracing`` keeps its name
# inside the records module, but at the package level ``obs.tracing`` is
# the *event-tracing submodule* (imported below), so the predicate is
# re-exported as ``obs.records_active``.
from repro.obs.records import tracing as records_active
from repro.obs import tracing  # noqa: E402  (needs core/records bound first)

__all__ = [
    "ENV_VAR",
    "VERIFY_ENV_VAR",
    "Recorder",
    "Span",
    "Stopwatch",
    "SCHEMA",
    "child_reset",
    "disable",
    "emit",
    "enable",
    "enabled",
    "env_trace_path",
    "get_logger",
    "get_recorder",
    "git_sha",
    "incr",
    "read_records",
    "records_active",
    "reset",
    "set_trace_path",
    "set_verify",
    "setup_logging",
    "span",
    "trace_path",
    "tracing",
    "verbosity_to_level",
    "verify_enabled",
]
