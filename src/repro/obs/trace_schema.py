"""Versioned validation of JSONL run records and span events.

``python -m repro trace validate run.jsonl`` (and the ``tracing`` CI job)
checks every record in a trace against the contract documented in
``docs/observability.md``: the envelope (``schema``/``kind``/``git_sha``),
the per-kind required fields, and — for ``kind: "span"`` — the full
``repro-trace/v1`` payload shape (:data:`repro.obs.tracing.TRACE_SCHEMA`).
The validator is deliberately strict about *unknown kinds*: a new record
kind must land together with its validation rule, or the CI job fails.
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, Mapping

from repro.obs import records as obs_records
from repro.obs import tracing

_SPAN_PHASES = ("X", "i")


def _fail(location: str, message: str) -> None:
    raise ValueError(f"{location}: {message}")


def _require(record: Mapping[str, Any], key: str, types, location: str) -> Any:
    if key not in record:
        _fail(location, f"missing required field {key!r}")
    value = record[key]
    if types is not None and not isinstance(value, types):
        _fail(
            location,
            f"field {key!r} has type {type(value).__name__}, expected "
            f"{getattr(types, '__name__', types)}",
        )
    return value


def _number(record: Mapping[str, Any], key: str, location: str) -> float:
    value = _require(record, key, None, location)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(location, f"field {key!r} must be a number, got {value!r}")
    return float(value)


def _integer(record: Mapping[str, Any], key: str, location: str) -> int:
    value = _require(record, key, None, location)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        _fail(location, f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def _validate_span(record: Mapping[str, Any], location: str) -> None:
    trace_schema = _require(record, "trace_schema", str, location)
    if trace_schema != tracing.TRACE_SCHEMA:
        _fail(
            location,
            f"trace_schema {trace_schema!r} != {tracing.TRACE_SCHEMA!r}",
        )
    name = _require(record, "name", str, location)
    if not name:
        _fail(location, "span name is empty")
    _require(record, "trace_id", str, location)
    span_id = _require(record, "span_id", str, location)
    if not span_id:
        _fail(location, "span_id is empty")
    parent_id = record.get("parent_id", "missing")
    if parent_id == "missing":
        _fail(location, "missing required field 'parent_id'")
    if parent_id is not None and not isinstance(parent_id, str):
        _fail(location, f"parent_id must be a string or null, got {parent_id!r}")
    _integer(record, "pid", location)
    worker = record.get("worker", "missing")
    if worker == "missing":
        _fail(location, "missing required field 'worker'")
    if worker is not None and (
        isinstance(worker, bool) or not isinstance(worker, numbers.Integral)
    ):
        _fail(location, f"worker must be an integer or null, got {worker!r}")
    ph = _require(record, "ph", str, location)
    if ph not in _SPAN_PHASES:
        _fail(location, f"ph {ph!r} not in {_SPAN_PHASES}")
    _number(record, "ts", location)
    dur = _number(record, "dur", location)
    if dur < 0:
        _fail(location, f"negative duration {dur}")
    if ph == "i" and dur != 0.0:
        _fail(location, f"instant event has nonzero duration {dur}")
    attrs = _require(record, "attrs", dict, location)
    for key in attrs:
        if not isinstance(key, str):
            _fail(location, f"attrs key {key!r} is not a string")


def _validate_flow(record: Mapping[str, Any], location: str) -> None:
    _integer(record, "endpoints", location)
    _integer(record, "prioritized", location)
    _number(record, "runtime_seconds", location)
    phases = _require(record, "phases", dict, location)
    for name, seconds in phases.items():
        if not isinstance(name, str):
            _fail(location, f"phase key {name!r} is not a string")
        if isinstance(seconds, bool) or not isinstance(seconds, numbers.Real):
            _fail(location, f"phase {name!r} duration {seconds!r} is not a number")


def _validate_episode(record: Mapping[str, Any], location: str) -> None:
    _integer(record, "episode", location)
    _number(record, "tns", location)
    _number(record, "advantage", location)
    _integer(record, "num_selected", location)
    telemetry = record.get("telemetry", "missing")
    if telemetry == "missing":
        _fail(location, "missing required field 'telemetry'")
    if telemetry is not None and not isinstance(telemetry, dict):
        _fail(location, f"telemetry must be an object or null, got {telemetry!r}")


def _validate_train(record: Mapping[str, Any], location: str) -> None:
    _integer(record, "episodes_run", location)
    _number(record, "best_tns", location)
    _require(record, "converged", bool, location)


def _validate_rollout(record: Mapping[str, Any], location: str) -> None:
    _integer(record, "workers", location)
    _require(record, "start_method", str, location)


def _validate_profile(record: Mapping[str, Any], location: str) -> None:
    _require(record, "command", str, location)
    _require(record, "top_functions", list, location)


_VALIDATORS = {
    "span": _validate_span,
    "flow": _validate_flow,
    "episode": _validate_episode,
    "train": _validate_train,
    "rollout": _validate_rollout,
    "profile": _validate_profile,
}


def validate_record(record: Mapping[str, Any], location: str = "record") -> str:
    """Validate one record; returns its kind.

    Raises :class:`ValueError` with ``location`` in the message on the
    first violation.
    """
    if not isinstance(record, Mapping):
        _fail(location, f"record is {type(record).__name__}, expected object")
    schema = record.get("schema")
    if schema != obs_records.SCHEMA:
        _fail(location, f"schema {schema!r} is not {obs_records.SCHEMA!r}")
    kind = _require(record, "kind", str, location)
    _require(record, "git_sha", str, location)
    validator = _VALIDATORS.get(kind)
    if validator is None:
        _fail(
            location,
            f"unknown record kind {kind!r} (known: {sorted(_VALIDATORS)})",
        )
    validator(record, location)
    return kind


def validate_trace(path: str) -> Dict[str, int]:
    """Validate every record in a JSONL trace; returns per-kind counts."""
    counts: Dict[str, int] = {}
    for index, record in enumerate(obs_records.read_records(path), start=1):
        kind = validate_record(record, location=f"{path}:record {index}")
        counts[kind] = counts.get(kind, 0) + 1
    return counts
