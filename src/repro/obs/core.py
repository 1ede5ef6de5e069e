"""Process-global recorder: phase timers and counters.

The recorder is the in-memory half of the observability layer
(:mod:`repro.obs`).  Hot paths instrument themselves with

* ``with obs.span("sta.full_update"): ...`` — a monotonic phase timer
  (nestable: a span opened inside another span records under its own name;
  the event tracer, when installed, keeps the per-thread parent stack);
* ``obs.incr("skew.commits")`` — a counter.

Disabled mode is a no-op: every entry point checks a single module flag and
``span`` hands back a shared, stateless null context manager, so the
instrumented code paths cost one attribute load + one branch when
observability is off (measured <1% on the tier-1 suite).

The recorder is thread-safe (one lock around mutations) and per process:
a rollout worker (:mod:`repro.agent.parallel`) clears its own before every
task (:func:`child_reset`) and never ships it back — what a worker did
reaches the parent as run records, not as recorder state.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

_TRUTHY = ("1", "true", "yes", "on")

#: Environment variable that switches the layer on.  A truthy value enables
#: the recorder only; any other non-empty value is a path that additionally
#: receives JSONL run records (see :mod:`repro.obs.records`).
ENV_VAR = "REPRO_OBS"

#: Environment variable enabling the (expensive) verify mode: snapshot /
#: restore round-trips in :mod:`repro.ccd.flow` re-run STA and assert the
#: timing state came back bit-for-bit.
VERIFY_ENV_VAR = "REPRO_OBS_VERIFY"


class PhaseStats:
    """Duration accounting of one named phase."""

    __slots__ = ("count", "total", "durations")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.durations: List[float] = []

    def add(self, elapsed: float) -> None:
        self.count += 1
        self.total += elapsed
        self.durations.append(elapsed)

    def as_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "total": self.total, "durations": list(self.durations)}


class Recorder:
    """Phase timers + counters for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pid = os.getpid()
        self.phases: Dict[str, PhaseStats] = {}
        self.counters: Dict[str, float] = {}

    # ---- phases ----------------------------------------------------- #
    def add_phase(self, name: str, elapsed: float) -> None:
        with self._lock:
            stats = self.phases.get(name)
            if stats is None:
                stats = self.phases[name] = PhaseStats()
            stats.add(elapsed)

    # ---- counters ---------------------------------------------------- #
    def incr(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # ---- export / reset ---------------------------------------------- #
    def export_state(self) -> Dict[str, Any]:
        """Plain-dict snapshot (the ``bench`` payload and ``--profile``)."""
        with self._lock:
            return {
                "pid": self.pid,
                "phases": {name: s.as_dict() for name, s in self.phases.items()},
                "counters": dict(self.counters),
            }

    def reset(self) -> None:
        with self._lock:
            self.phases = {}
            self.counters = {}


#: Sentinel ``trace_parent``: the event tracer (when installed) parents the
#: span under whatever span is open on the current thread.  An explicit id
#: (or ``None`` for a root span) overrides the stack — the rollout pool uses
#: that to re-parent worker-side spans under the submitting task.
TRACE_INHERIT = object()


class Span:
    """Recording timer context manager (only built while enabled).

    One object carries both halves of a span: the phase timing the recorder
    aggregates (``elapsed``) and, while an event tracer is installed, the
    event identity it emits (``span_id``, ``parent_id``, wall-clock ``ts``),
    filled in by ``Tracer.open``.  ``parent_id`` holds the requested parent
    until then: an explicit id, ``None`` for a root, or
    :data:`TRACE_INHERIT`.
    """

    __slots__ = (
        "name",
        "attrs",
        "_recorder",
        "_start",
        "elapsed",
        "span_id",
        "parent_id",
        "ts",
    )

    def __init__(
        self,
        name: str,
        recorder: Recorder,
        attrs: Optional[Dict[str, Any]] = None,
        trace_parent: Any = TRACE_INHERIT,
    ):
        self.name = name
        self.attrs = attrs
        self._recorder = recorder
        self._start = 0.0
        self.elapsed: Optional[float] = None
        self.span_id: Optional[str] = None
        self.parent_id = trace_parent
        self.ts = 0.0

    def __enter__(self) -> "Span":
        tracer = _tracer
        if tracer is not None:
            tracer.open(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._start
        tracer = _tracer
        if tracer is not None and self.span_id is not None:
            tracer.close(self)
        self._recorder.add_phase(self.name, self.elapsed)
        return False


class _NullSpan:
    """Shared no-op span handed out while observability is disabled."""

    __slots__ = ()
    name = ""
    elapsed: Optional[float] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Stopwatch:
    """Tiny always-on monotonic timer (for result fields like
    ``FlowResult.runtime_seconds`` that must be populated regardless of
    whether the recorder is enabled)."""

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def restart(self) -> None:
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._start


# ---------------------------------------------------------------------- #
# Module-level state: the process-global recorder and the enable flag.
# ---------------------------------------------------------------------- #
_recorder = Recorder()
_enabled: bool = bool(os.environ.get(ENV_VAR, "").strip())
_verify: bool = os.environ.get(VERIFY_ENV_VAR, "").strip().lower() in _TRUTHY

#: Installed event tracer (see :mod:`repro.obs.tracing`) or ``None``; the
#: only tracer reference.  Spans check it once on enter and once on exit;
#: with no tracer installed the cost is one module-global load + branch
#: each, and the disabled-recorder path (the shared ``_NULL_SPAN``) never
#: reaches it at all.
_tracer: Optional[Any] = None


def set_tracer(tracer: Optional[Any]) -> None:
    """Install (or remove, with ``None``) the event tracer Span hooks into."""
    global _tracer
    _tracer = tracer


def enabled() -> bool:
    """Whether the recorder is live (module flag; the disabled fast path)."""
    return _enabled


def enable() -> None:
    """Switch the recorder on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Switch the recorder off (existing data is kept until :func:`reset`)."""
    global _enabled
    _enabled = False


def verify_enabled() -> bool:
    """Whether snapshot/restore verify mode is on (``REPRO_OBS_VERIFY``)."""
    return _verify


def set_verify(value: bool) -> None:
    global _verify
    _verify = bool(value)


def get_recorder() -> Recorder:
    return _recorder


def span(
    name: str,
    attrs: Optional[Dict[str, Any]] = None,
    trace_parent: Any = TRACE_INHERIT,
):
    """Phase-timer context manager; a shared no-op while disabled.

    ``attrs`` (a plain dict, attached to the trace event on exit) and
    ``trace_parent`` (an explicit parent span id) only matter when the event
    tracer is installed; both are explicit parameters rather than ``**kwargs``
    so the common ``span("name")`` call allocates nothing extra.
    """
    if not _enabled:
        return _NULL_SPAN
    return Span(name, _recorder, attrs, trace_parent)


def incr(name: str, amount: float = 1.0) -> None:
    """Bump a counter (no-op while disabled)."""
    if not _enabled:
        return
    _recorder.incr(name, amount)


def reset() -> None:
    """Clear the global recorder (phases and counters)."""
    _recorder.reset()


def child_reset() -> None:
    """Give a rollout worker a clean recorder.

    Called after the worker's warm-up and before every task, so span
    durations do not pile up in a long-lived worker; the fork otherwise
    also copies whatever the parent had accumulated.
    """
    global _recorder
    _recorder = Recorder()
