"""Event-level distributed tracing on top of the phase recorder.

The recorder (:mod:`repro.obs.core`) aggregates — per-phase totals and
counters — which is the right shape for regression gates but
useless for answering "*why* was episode 37 slow?".  This module records
the individual events: every ``obs.span`` becomes one **span record**
with a process-unique span id, a parent id, a wall-clock start and a
duration, plus caller-supplied attributes (episode index, task id, cache
hit/miss, ...).  Instant markers (:func:`instant`) capture point events
such as rollout-task submissions and retries.

Span records ride the existing JSONL run-record sink
(:mod:`repro.obs.records`) as ``kind: "span"`` lines; the payload itself
is versioned separately via ``trace_schema`` (:data:`TRACE_SCHEMA`) so the
trace contract can evolve without bumping the envelope every consumer
already pins.  Consumers:

* ``python -m repro trace export`` — Chrome trace-event / Perfetto JSON
  (:mod:`repro.obs.trace_export`);
* ``python -m repro trace validate`` — schema check
  (:mod:`repro.obs.trace_schema`);
* ``python -m repro watch`` — live tail (:mod:`repro.obs.watch`);
* ``repro report`` — the "Slowest spans" section.

Cross-process correlation: :class:`repro.agent.parallel.RolloutPool`
ships :func:`worker_context` to each worker, which installs an ordinary
tracer (:func:`enable` with its ``worker`` slot).  Span records go through
:func:`repro.obs.records.emit`, which buffers inside a worker, so they
travel back to the parent in result messages like every other record
kind (:func:`repro.obs.records.buffer_records`).  Span ids stay
unique across processes because they are prefixed with the emitting pid.
The submitting side passes its open span id in the task payload, and the
worker opens its ``rollout.task`` span with that id as an explicit
``trace_parent``, so worker-side spans re-parent correctly under the
submitting rollout step.

Enablement: the tracer piggybacks on the records sink — it is on only
when a sink is configured *and* events were requested (``--trace-events``
on the CLI, :func:`enable` in library code).  Disabled, the only residue
is one module-global load + branch in ``Span.__enter__`` and ``__exit__``
on the recorder-enabled path; the recorder-disabled path is untouched.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from repro.obs import core, records

#: Version of the span-record payload (the ``trace_schema`` field).
TRACE_SCHEMA = "repro-trace/v1"


class Tracer:
    """Per-process span-event factory; events go out as ``span`` run records
    (:func:`repro.obs.records.emit`, which buffers inside a pool worker).

    Span ids are ``"<pid hex>-<counter hex>"`` — unique within a process by
    the counter, across processes by the pid prefix, so a fork inheriting
    the parent's counter state still cannot collide.  The stack of open
    span ids (the parents of new spans) is thread-local.
    """

    def __init__(self, trace_id: str, worker: Optional[int] = None) -> None:
        self.trace_id = trace_id
        self.worker = worker
        self._pid = os.getpid()
        self._counter = itertools.count(1)
        self._tls = threading.local()

    # ---- span lifecycle --------------------------------------------- #
    def _stack(self) -> List[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _new_span_id(self) -> str:
        return f"{self._pid:x}-{next(self._counter):x}"

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, span: "core.Span") -> None:
        """Give ``span`` its event identity and push it as the open parent."""
        stack = self._stack()
        if span.parent_id is core.TRACE_INHERIT:
            span.parent_id = stack[-1] if stack else None
        span.span_id = self._new_span_id()
        span.ts = time.time()
        stack.append(span.span_id)

    def close(self, span: "core.Span") -> None:
        """Pop ``span`` off the parent stack and emit its record."""
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        self._emit(
            {
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "ph": "X",
                "ts": span.ts,
                "dur": float(span.elapsed),
                "attrs": dict(span.attrs) if span.attrs else {},
            }
        )

    def instant(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Emit a zero-duration point event parented under the open span."""
        self._emit(
            {
                "name": name,
                "span_id": self._new_span_id(),
                "parent_id": self.current_span_id(),
                "ph": "i",
                "ts": time.time(),
                "dur": 0.0,
                "attrs": dict(attrs) if attrs else {},
            }
        )

    def _emit(self, payload: Dict[str, Any]) -> None:
        payload["trace_schema"] = TRACE_SCHEMA
        payload["trace_id"] = self.trace_id
        payload["pid"] = self._pid
        payload["worker"] = self.worker
        records.emit("span", payload)


# ---------------------------------------------------------------------- #
# Module-level API over the tracer installed in ``core._tracer``.
# ---------------------------------------------------------------------- #
def enabled() -> bool:
    """Whether span events are being recorded in this process."""
    return core._tracer is not None


def enable(trace_id: Optional[str] = None, worker: Optional[int] = None) -> Tracer:
    """Install a tracer writing span records to the JSONL sink.

    Implies enabling the recorder (events come from ``obs.span``, which is
    a no-op while the recorder is off).  Records still need a configured
    sink (:func:`repro.obs.records.set_trace_path`) to land anywhere; in a
    pool worker that sink is the record buffer, and ``worker`` is the
    slot stamped on every event.
    """
    tracer = Tracer(trace_id or uuid.uuid4().hex[:16], worker)
    core.enable()
    core.set_tracer(tracer)
    return tracer


def disable() -> None:
    """Remove the installed tracer (the recorder's state is untouched)."""
    core.set_tracer(None)


def current_span_id() -> Optional[str]:
    """Innermost open span id on this thread, or ``None`` (also when off)."""
    tracer = core._tracer
    return tracer.current_span_id() if tracer is not None else None


def instant(name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
    """Emit an instant event (no-op while tracing is off)."""
    tracer = core._tracer
    if tracer is not None:
        tracer.instant(name, attrs)


def worker_context(slot: int) -> Optional[Dict[str, Any]]:
    """Trace context a :class:`RolloutPool` ships to worker ``slot``.

    ``None`` while tracing is off, so the task-payload cost of the
    disabled path is exactly one ``None`` field.
    """
    tracer = core._tracer
    if tracer is None:
        return None
    return {"trace_id": tracer.trace_id, "worker": slot}

