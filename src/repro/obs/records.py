"""Structured JSONL run records.

One line per flow run / training iteration, written to the path given by
``REPRO_OBS=<path>`` or the ``--trace <path>`` CLI flag.  Every record is a
single JSON object with a fixed envelope::

    {"schema": "repro-obs/v2", "kind": "flow" | "episode" | ...,
     "git_sha": "<short sha or 'unknown'>", ...payload}

Records are append-only and flushed per line, so a crashed run keeps every
record emitted before the crash and concurrent readers (``tail -f``, CI log
scrapers) always see whole lines.  Timing fields live under ``phases`` /
``*_seconds`` keys; everything else is deterministic for a fixed seed, which
is what the determinism test in ``tests/test_telemetry.py`` pins down.
Readers accept ``repro-obs/v2`` only.

Worker processes never write the sink.  :func:`buffer_records` turns a
worker's :func:`emit` into an append to an in-memory list; the worker ships
:func:`drain` inside each result message and the parent replays the items
through :func:`ingest`, which stamps the parent's envelope.  That is one
channel for every record kind, and it behaves the same under ``fork``
(where the child inherits the sink path) and ``spawn`` (where the child
re-reads ``REPRO_OBS`` at import).
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs import core

SCHEMA = "repro-obs/v2"

_lock = threading.Lock()
_trace_path: Optional[str] = None
_git_sha: Optional[str] = None
#: Worker-side record buffer (``None`` outside a buffering worker).
_buffer: Optional[List[Tuple[str, Dict[str, Any]]]] = None


def env_trace_path() -> Optional[str]:
    """The trace-sink path requested via ``REPRO_OBS``, if any.

    Truthy flag values (``1``/``true``/...) enable the recorder without a
    sink and return ``None`` here; any other non-empty value is a path.
    The CLI uses this to detect (and log) a ``--trace``-vs-environment
    disagreement — the CLI flag wins.
    """
    value = os.environ.get(core.ENV_VAR, "").strip()
    if not value or value.lower() in core._TRUTHY:
        return None
    return value


def _init_from_env() -> None:
    """Honour ``REPRO_OBS=<path>`` at import time (truthy flags enable the
    recorder only; anything else is treated as a trace-sink path)."""
    value = env_trace_path()
    if value is not None:
        set_trace_path(value)


def set_trace_path(path: Optional[str]) -> None:
    """Point the JSONL sink at ``path`` (``None`` disconnects it).

    Setting a sink implies enabling the recorder — a trace with empty phase
    data would be useless.  The parent directory is created eagerly so a
    bad path fails here, not at the first record mid-run.  It also ends
    worker-side buffering (:func:`buffer_records`).
    """
    global _trace_path, _buffer
    if path:
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
    with _lock:
        _trace_path = path
        _buffer = None
    if path:
        core.enable()


def trace_path() -> Optional[str]:
    return _trace_path


def tracing() -> bool:
    """Whether run records are being written (or buffered, in a worker)."""
    return _trace_path is not None or _buffer is not None


def buffer_records(on: bool) -> None:
    """Worker side: disconnect the sink; with ``on``, buffer records instead.

    Called once at worker start.  ``on`` is the parent's :func:`tracing`
    flag, so a worker records exactly when its parent does, whatever sink
    the start method left it with.
    """
    global _trace_path, _buffer
    with _lock:
        _trace_path = None
        _buffer = [] if on else None


def drain() -> List[Tuple[str, Dict[str, Any]]]:
    """Return and clear the buffered ``(kind, payload)`` items."""
    global _buffer
    with _lock:
        if not _buffer:
            return []
        out, _buffer = _buffer, []
    return out


def ingest(items: Optional[Iterable[Tuple[str, Dict[str, Any]]]]) -> None:
    """Parent side: re-emit worker-drained items with this process's envelope."""
    for kind, payload in items or ():
        emit(kind, payload)


def git_sha() -> str:
    """Short git sha of the repo this package runs from (cached; ``unknown``
    outside a git checkout or without a git binary)."""
    global _git_sha
    if _git_sha is None:
        try:
            root = os.path.dirname(os.path.abspath(__file__))
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=5,
            )
            _git_sha = out.stdout.strip() if out.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            _git_sha = "unknown"
    return _git_sha


def emit(kind: str, payload: Dict[str, Any]) -> None:
    """Append one run record (no-op when no sink is configured).

    The envelope keys (``schema``, ``kind``, ``git_sha``) win over payload
    keys of the same name.  In a buffering worker the record goes to the
    buffer instead, without an envelope.
    """
    buffer = _buffer
    if buffer is not None:
        buffer.append((kind, dict(payload)))
        return
    path = _trace_path
    if path is None:
        return
    record = dict(payload)
    record["schema"] = SCHEMA
    record["kind"] = kind
    record["git_sha"] = git_sha()
    line = json.dumps(record, sort_keys=True, default=_jsonify)
    with _lock:
        with open(path, "a") as handle:
            handle.write(line + "\n")


def _jsonify(value: Any) -> Any:
    """Last-resort encoder for numpy scalars and other number-likes."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def read_records(path: str) -> list:
    """Parse a JSONL trace back into a list of dicts.

    Every record must carry :data:`SCHEMA`; any other schema raises a
    :class:`ValueError` naming the line.
    """
    records = []
    with open(path) as handle:
        lines = handle.readlines()
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            # A final line with no trailing newline is a record the writer
            # never finished (process killed mid-append); live readers
            # (watch/report on a running trace) skip it instead of dying.
            # Corrupt *complete* lines still raise — they mean the file is
            # damaged, not merely in flight.
            if number == len(lines) and not raw.endswith("\n"):
                core.incr("obs.records.truncated")
                break
            raise
        if record.get("schema") != SCHEMA:
            raise ValueError(
                f"record schema {record.get('schema')!r} is not {SCHEMA!r} "
                f"at {path}:{number}"
            )
        records.append(record)
    return records


_init_from_env()
