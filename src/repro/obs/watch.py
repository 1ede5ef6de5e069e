"""Live tail of a JSONL run-record stream (``python -m repro watch``).

The terminal precursor to the CCD-as-a-service streamed-progress
contract: point it at the trace file a running ``train``/``bench`` writes
(``--trace run.jsonl``) and it prints one progress line per record as the
run emits them — per-episode reward/TNS, per-flow phase timings, rollout
pool health, and (with ``--spans``) individual span events.

The follower is a plain polling generator over the append-only file: it
remembers its byte offset, re-reads from there, and *never* consumes a
partial trailing line (the writer appends whole lines, but the reader can
race the write syscall), so records parse exactly once each.  A file that
does not exist yet is simply "no records yet" — ``watch`` can be started
before the run.  Truncation (a restarted run recreating the file) resets
the offset to zero rather than erroring.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.obs import records as obs_records


class RecordFollower:
    """Incremental reader of an append-only JSONL file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0

    def poll(self) -> Iterator[Dict[str, Any]]:
        """Yield every *complete* record appended since the last poll."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size < self._offset:
            # The file shrank: a new run truncated/recreated it.
            self._offset = 0
        if size == self._offset:
            return
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read(size - self._offset)
        # Only whole lines: anything after the last newline is a record
        # still being written and stays for the next poll.
        end = chunk.rfind(b"\n")
        if end < 0:
            return
        self._offset += end + 1
        for raw in chunk[: end + 1].splitlines():
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A live stream should survive one bad line (e.g. a crashed
                # writer's torn record followed by a restart's output).
                continue
            # A record of another schema is skipped the same way.
            if isinstance(record, dict) and record.get("schema") == obs_records.SCHEMA:
                yield record


def follow_records(
    path: str,
    interval: float = 0.5,
    once: bool = False,
    poll_hook: Optional[Any] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield records from ``path`` as they appear (``tail -f`` semantics).

    ``once=True`` drains what exists and returns (used by tests and for
    post-hoc summaries); otherwise the generator polls forever — callers
    stop it by breaking / KeyboardInterrupt.  ``poll_hook()`` (test seam)
    runs after every empty poll.
    """
    follower = RecordFollower(path)
    while True:
        emitted = False
        for record in follower.poll():
            emitted = True
            yield record
        if once:
            return
        if not emitted:
            if poll_hook is not None:
                poll_hook()
            time.sleep(interval)


def render_watch_line(record: Mapping[str, Any]) -> Optional[str]:
    """One human progress line for a record, or ``None`` to stay quiet.

    Span records return ``None`` here (they are high-volume); the CLI
    renders them only under ``--spans`` via :func:`render_span_line`.
    """
    kind = record.get("kind")
    if kind == "episode":
        telemetry = record.get("telemetry") or {}
        entropy = telemetry.get("entropy_mean")
        entropy_part = f" entropy={entropy:.3f}" if entropy is not None else ""
        return (
            f"episode {record.get('episode'):>4}  "
            f"tns={record.get('tns'):.3f} wns={record.get('wns'):.3f} "
            f"nve={record.get('nve')} selected={record.get('num_selected')} "
            f"advantage={record.get('advantage'):+.3f}{entropy_part}"
        )
    if kind == "flow":
        phases = record.get("phases") or {}
        slowest = max(phases, key=phases.get) if phases else "-"
        return (
            f"flow     endpoints={record.get('endpoints')} "
            f"prioritized={record.get('prioritized')} "
            f"tns {record.get('begin_tns'):.3f} -> {record.get('final_tns'):.3f} "
            f"in {record.get('runtime_seconds', 0.0):.3f}s (slowest: {slowest})"
        )
    if kind == "rollout":
        return (
            f"rollout  workers={record.get('workers')} "
            f"({record.get('start_method')}) "
            f"tasks={record.get('tasks')} retries="
            f"{record.get('worker_restarts', 0)} "
            f"cache {record.get('cache_hits', 0)}/"
            f"{record.get('cache_hits', 0) + record.get('cache_misses', 0)} hits"
        )
    if kind == "train":
        return (
            f"train    done: episodes={record.get('episodes_run')} "
            f"best_tns={record.get('best_tns'):.3f} "
            f"converged={record.get('converged')}"
        )
    if kind == "profile":
        return f"profile  {record.get('command')} captured"
    return None


def render_span_line(record: Mapping[str, Any]) -> Optional[str]:
    """One line per span event (``--spans`` mode)."""
    if record.get("kind") != "span":
        return None
    worker = record.get("worker")
    where = "main" if worker is None else f"w{worker}"
    if record.get("ph") == "i":
        return f"span     [{where}] * {record.get('name')}"
    dur_ms = float(record.get("dur", 0.0)) * 1e3
    return f"span     [{where}] {record.get('name')} {dur_ms:.2f} ms"
