"""Persistent parallel flow-reward evaluation (paper §IV-A).

"For each design, we launch 8 parallel processes to train the framework
parameters."  The expensive part of one RL iteration is not the policy
network — it is the placement-optimization flow that produces the TNS
reward.  This module provides :class:`RolloutPool`, a pool of *long-lived*
worker processes that load the design snapshot **once** at startup and then
receive only ``(task_id, attempt, selection)`` tuples per task — payloads
that are O(selection), not O(netlist) — plus a content-addressed
:class:`RewardCache` so re-samples of identical trajectories (common late in
training when entropy collapses) skip the flow entirely.

Fault tolerance (see ``docs/rollout.md``):

* every dispatched task carries a deadline; a worker that exceeds it is
  killed and the task retried (``rollout.task_timeouts``);
* workers heartbeat from a daemon thread into shared memory, so a frozen
  process (e.g. ``SIGSTOP``) is detected before the full task timeout;
* crashed workers (EOF on the pipe) and corrupt results (anything that is
  not a finite, shape-consistent :class:`FlowReward`) trigger bounded
  retries with per-slot respawn + exponential backoff
  (``rollout.worker_restarts``);
* when retries are exhausted — or process start fails entirely — the pool
  degrades to sequential in-process evaluation, so results are *always*
  produced and always identical to a sequential run (flows are
  deterministic).

``fork`` is preferred where available (workers inherit the parent netlist
copy-on-write); ``spawn`` is supported as the no-fork fallback, in which
case the design snapshot is pickled exactly once per worker at pool
startup.  ``REPRO_ROLLOUT_START_METHOD`` forces the choice (the
``rollout-faults`` CI job runs the pool suites under both).  The fault
limits are module constants read only by the parent process, so a test may
monkeypatch them under fork and spawn alike.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs import records, tracing
from repro.ccd.flow import (
    FlowConfig,
    NetlistState,
    flow_config_digest,
    netlist_state_digest,
    restore_netlist_state,
    run_flow,
    snapshot_netlist_state,
)
from repro.netlist.core import Netlist

#: Environment variable forcing the pool's process start method
#: (``fork`` or ``spawn``).  Unset → ``fork`` where available, else
#: ``spawn``.
START_METHOD_ENV_VAR = "REPRO_ROLLOUT_START_METHOD"

#: Heartbeat period of the worker-side daemon thread (seconds).
HEARTBEAT_INTERVAL = 0.05

#: Heartbeat silence (seconds) after which a busy worker counts as frozen.
HEARTBEAT_TIMEOUT = 10.0

#: How long (seconds) a started worker may take to report ready.
WORKER_START_TIMEOUT = 60.0

#: Retries of one task before it runs in process instead.
MAX_RETRIES = 2

#: Respawns of one worker slot before the slot is retired.
MAX_WORKER_RESTARTS = 4

#: Respawn backoff: ``BACKOFF_BASE * 2**k`` seconds, capped at ``BACKOFF_CAP``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Reward-cache size; the oldest entry goes first beyond it.
CACHE_MAX_ENTRIES = 65536

#: Counters of the ``rollout`` run record.  The pool keeps all of them; the
#: trainer reports its own episodes as ``tasks`` and updates as
#: ``batches`` (and zero faults when it runs without a pool).
ROLLOUT_COUNTERS = (
    "batches",
    "tasks",
    "worker_restarts",
    "task_timeouts",
    "worker_crashes",
    "corrupt_results",
    "sequential_fallbacks",
)


@dataclass(frozen=True)
class FlowReward:
    """The reward metrics one flow evaluation returns (IPC-lightweight)."""

    tns: float
    wns: float
    nve: int
    num_selected: int


def _evaluate_one(args) -> FlowReward:
    """Worker body: restore, run, report.  Top-level for picklability."""
    netlist, snapshot, flow_config, selection = args
    restore_netlist_state(netlist, snapshot)
    result = run_flow(netlist, flow_config, prioritized_endpoints=selection)
    return FlowReward(
        tns=result.final.tns,
        wns=result.final.wns,
        nve=result.final.nve,
        num_selected=len(selection),
    )


def fork_available() -> bool:
    """Whether the efficient ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_start_method(requested: Optional[str] = None) -> Optional[str]:
    """The start method the pool should use, or ``None`` for sequential.

    Priority: explicit argument > :data:`START_METHOD_ENV_VAR` > ``fork``
    where available > ``spawn``.  An unavailable method returns ``None``
    (the graceful-degradation signal) rather than raising.
    """
    method = requested or os.environ.get(START_METHOD_ENV_VAR, "").strip() or None
    if method is None:
        method = "fork" if fork_available() else "spawn"
    if method not in multiprocessing.get_all_start_methods():
        return None
    return method


# ---------------------------------------------------------------------- #
# Reward cache
# ---------------------------------------------------------------------- #
class RewardCache:
    """Content-addressed cache of :class:`FlowReward` by trajectory.

    The key is ``sha256(design digest ‖ flow-config digest ‖ frozen
    selection tuple)`` — same design state, same recipe, same prioritized
    endpoints ⇒ same deterministic flow outcome, so a hit replays the
    stored reward without running the flow.  Eviction is FIFO at
    :data:`CACHE_MAX_ENTRIES` (selections are tiny; it never evicts in
    practice) and counted in ``evictions``.
    """

    def __init__(self, design_digest: str, config_digest: str) -> None:
        self.design_digest = design_digest
        self._prefix = f"{design_digest}:{config_digest}:"
        self._entries: "OrderedDict[str, FlowReward]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def for_context(cls, snapshot: NetlistState, flow_config: FlowConfig) -> "RewardCache":
        """Cache bound to one design begin-state + flow recipe."""
        return cls(netlist_state_digest(snapshot), flow_config_digest(flow_config))

    def key(self, selection: Sequence[int]) -> str:
        payload = self._prefix + ",".join(str(int(s)) for s in selection)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def get(self, selection: Sequence[int]) -> Optional[FlowReward]:
        reward = self._entries.get(self.key(selection))
        if reward is None:
            self.misses += 1
            obs.incr("rollout.cache_miss")
        else:
            self.hits += 1
            obs.incr("rollout.cache_hit")
        if tracing.enabled():
            tracing.instant(
                "rollout.cache",
                {"hit": reward is not None, "selection_size": len(selection)},
            )
        return reward

    def put(self, selection: Sequence[int], reward: FlowReward) -> None:
        key = self.key(selection)
        if key not in self._entries and len(self._entries) >= CACHE_MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = reward

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _task_message(
    task_id: int,
    attempt: int,
    selection: Sequence[int],
    trace_parent: Optional[str] = None,
) -> tuple:
    """The *entire* per-task IPC payload — O(selection), never the netlist.

    A regression test pickles this and asserts it stays orders of magnitude
    smaller than the design (the pre-pool implementation re-pickled the
    whole netlist into every task).  ``trace_parent`` is the submitting
    side's open span id (or ``None`` with tracing off): the worker opens
    its ``rollout.task`` span with it, which is what re-parents worker-side
    trace events under the submitting rollout step.
    """
    return (
        "task",
        int(task_id),
        int(attempt),
        tuple(int(s) for s in selection),
        trace_parent,
    )


def _heartbeat_loop(heartbeat) -> None:
    while True:
        heartbeat.value = time.monotonic()
        time.sleep(HEARTBEAT_INTERVAL)


def _apply_fault(action: Optional[str]) -> bool:
    """Test-only fault injection; returns True when the result should be
    corrupted after the flow runs."""
    if action == "crash":
        os._exit(13)
    if action == "hang":
        time.sleep(3600.0)
    return action == "corrupt"


def _worker_main(conn, heartbeat, blob) -> None:
    """Long-lived worker: load the design once, then serve tasks forever.

    ``blob`` — ``(netlist, snapshot, flow_config, obs_enabled, records_on,
    fault_spec, trace_ctx)`` — is shipped exactly once: inherited
    copy-on-write under ``fork``, pickled once per worker under ``spawn``.
    Tasks arriving on ``conn`` carry only the selection (plus the
    submitter's span id).  Workers never write the sink file: with
    ``records_on`` (the parent's :func:`repro.obs.records.tracing`) every
    record they emit — ``flow``, ``span``, any kind — is buffered and ships
    back inside the result message, and the parent replays it.  Records
    are the only channel: the worker's recorder never leaves the worker.
    ``trace_ctx`` (``None`` with tracing off) installs the worker's span
    tracer, whose events take the same route.
    """
    netlist, snapshot, flow_config, obs_enabled, records_on, fault_spec, trace_ctx = blob
    if obs_enabled or trace_ctx is not None:
        obs.enable()
    # A fork child inherits the parent's tracer and sink path; a spawn child
    # re-reads REPRO_OBS at import.  Drop both, so the buffer is the only
    # way out for this worker's records.
    tracing.disable()
    records.buffer_records(records_on)
    # Warm-up: one empty-selection flow faults in the copy-on-write pages
    # (fork) and per-process caches that the first flow run touches, so the
    # first *real* task is not billed for process warm-up (the smoke-scale
    # pooled regression was exactly this cost landing inside the timed
    # evaluate call).  Best-effort: real tasks surface their own errors.
    try:
        _evaluate_one((netlist, snapshot, flow_config, []))
    except BaseException:  # noqa: BLE001 — warm-up must never kill the worker
        pass
    records.drain()  # the warm-up flow is not a task: its records are dropped
    # Post-fork GC hygiene: everything alive now (the inherited parent heap
    # plus warm-up leftovers) is long-lived from this worker's perspective;
    # freezing it keeps the cyclic collector from rescanning it on every
    # flow run.  Per-task garbage is mostly acyclic and dies by refcount.
    gc.collect()
    gc.freeze()
    obs.child_reset()
    if trace_ctx is not None:
        tracing.enable(trace_ctx["trace_id"], trace_ctx["worker"])
    # Ready goes out before the first heartbeat, so a nonzero heartbeat
    # timestamp implies the ready message is already in the pipe.
    conn.send(("ready", os.getpid()))
    threading.Thread(target=_heartbeat_loop, args=(heartbeat,), daemon=True).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, task_id, attempt, selection, trace_parent = message
        corrupt = _apply_fault(
            fault_spec.get((task_id, attempt)) if fault_spec else None
        )
        obs.child_reset()
        try:
            with obs.span(
                "rollout.task",
                attrs={
                    "task_id": task_id,
                    "attempt": attempt,
                    "selection_size": len(selection),
                },
                trace_parent=trace_parent,
            ):
                reward = _evaluate_one(
                    (netlist, snapshot, flow_config, list(selection))
                )
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            conn.send(
                (
                    "err",
                    task_id,
                    attempt,
                    f"{type(exc).__name__}: {exc}",
                    records.drain(),
                )
            )
            continue
        if corrupt:
            reward = ("not", "a", "reward")
        conn.send(("ok", task_id, attempt, reward, records.drain()))
    conn.close()


def _valid_reward(obj: Any, selection: Sequence[int]) -> bool:
    """Shape + sanity check guarding training against corrupt worker output."""
    if not isinstance(obj, FlowReward):
        return False
    for value in (obj.tns, obj.wns):
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
    return (
        isinstance(obj.nve, int)
        and isinstance(obj.num_selected, int)
        and obj.num_selected == len(selection)
    )


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
class _Worker:
    """One pool slot: process + duplex pipe + shared heartbeat timestamp."""

    __slots__ = (
        "process",
        "conn",
        "heartbeat",
        "ready",
        "pending",
        "deadline",
        "restarts",
    )

    def __init__(self, process, conn, heartbeat) -> None:
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.ready = False
        # FIFO of (task_id, attempt) tuples submitted to this worker
        # (batched submission: several tasks may be in its pipe at once; the
        # worker serves them in order, so results arrive head-first).
        self.pending: deque = deque()
        # Wall-clock budget for the *head* task only, refreshed every time a
        # head completes — queued-behind tasks are not billed for the wait.
        self.deadline: Optional[float] = None
        self.restarts = 0


class RolloutPool:
    """Persistent, fault-tolerant farm of flow-evaluation workers.

    Create once per training run (the snapshot ships to each worker a
    single time), :meth:`submit` selections as they are sampled and
    :meth:`evaluate` them when their rewards are needed, or evaluate a
    whole batch at once; :meth:`close` (or use as a context manager) when
    training ends.  ``workers=1`` (unless a ``start_method`` is given) or
    an unavailable start method run the flows in process instead, inside
    :meth:`evaluate` — results are identical either way.
    """

    def __init__(
        self,
        netlist: Netlist,
        flow_config: FlowConfig,
        workers: int = 2,
        snapshot: Optional[NetlistState] = None,
        task_timeout: float = 120.0,
        start_method: Optional[str] = None,
        cache: Optional[RewardCache] = None,
        fault_spec: Optional[Mapping[Tuple[int, int], str]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        self.netlist = netlist
        self.flow_config = flow_config
        self.workers = workers
        self.snapshot = snapshot if snapshot is not None else snapshot_netlist_state(netlist)
        self.task_timeout = float(task_timeout)
        self.cache = cache
        self.fault_spec = dict(fault_spec) if fault_spec else None
        self._log = obs.get_logger("agent.rollout")
        self._next_task_id = 0
        # Task state between submission and collection: the dispatch queue
        # of (task_id, attempt), each task's selection, finished rewards,
        # and per selection the tickets that :meth:`evaluate` has yet to
        # collect, oldest first.
        self._queue: deque = deque()
        self._selections: Dict[int, Tuple[int, ...]] = {}
        self._rewards: Dict[int, FlowReward] = {}
        self._submitted: Dict[Tuple[int, ...], deque] = {}
        self._closed = False
        self._slots: List[_Worker] = []
        self._ctx = None
        self.stats_counters: Dict[str, int] = dict.fromkeys(ROLLOUT_COUNTERS, 0)

        # workers == 1 runs sequentially unless a start method is explicitly
        # requested (fault tests pin a single real worker process that way).
        self.start_method = (
            resolve_start_method(start_method)
            if workers > 1 or start_method is not None
            else None
        )
        if self.start_method is not None:
            try:
                self._ctx = multiprocessing.get_context(self.start_method)
                self._slots = [self._spawn_worker(i) for i in range(workers)]
            except Exception as exc:  # pragma: no cover — platform-dependent
                self._log.warning(
                    "rollout pool startup failed (%s); degrading to sequential", exc
                )
                self._teardown_slots()
                self.start_method = None
        if self.start_method is not None:
            self._await_ready()
        if self.start_method is None:
            self._log.debug("rollout pool running sequentially (no worker processes)")

    # ---- lifecycle --------------------------------------------------- #
    def _await_ready(self) -> None:
        """Best-effort block until every worker reports ready.

        Workers warm up (one flow run) before their ready message, so
        waiting here moves that one-time cost into pool construction —
        *outside* the timed :meth:`evaluate` calls.  Bounded by
        :data:`WORKER_START_TIMEOUT`; stragglers and dead workers are left
        for the evaluate loop's normal failure handling.
        """
        deadline = time.monotonic() + WORKER_START_TIMEOUT
        while time.monotonic() < deadline:
            waiting = [
                w for w in self._slots if not w.ready and w.process.is_alive()
            ]
            if not waiting:
                break
            ready_conns = multiprocessing.connection.wait(
                [w.conn for w in waiting], timeout=0.05
            )
            for conn in ready_conns:
                worker = next(w for w in self._slots if w.conn is conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    continue  # dead pipe: the evaluate loop respawns it
                if message and message[0] == "ready":
                    worker.ready = True

    def __enter__(self) -> "RolloutPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _spawn_worker(self, slot: int) -> _Worker:
        assert self._ctx is not None
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = self._ctx.Value("d", 0.0, lock=False)
        blob = (
            self.netlist,
            self.snapshot,
            self.flow_config,
            obs.enabled(),
            records.tracing(),
            self.fault_spec,
            tracing.worker_context(slot),
        )
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, heartbeat, blob),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, heartbeat)

    def _kill_worker(self, worker: _Worker) -> None:
        """Hard-stop a slot's process (SIGKILL: works on stopped processes)."""
        try:
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover — already gone
            pass
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _teardown_slots(self) -> None:
        for worker in self._slots:
            self._kill_worker(worker)
        self._slots = []

    def close(self) -> None:
        """Stop all workers; the pool degrades to sequential afterwards."""
        if self._closed:
            return
        self._closed = True
        for worker in self._slots:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 5.0
        for worker in self._slots:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        self._teardown_slots()

    def alive_workers(self) -> int:
        return sum(1 for w in self._slots if w.process.is_alive())

    def stats(self) -> Dict[str, Any]:
        """Pool-health summary (the ``rollout`` run-record payload)."""
        return rollout_stats(
            self.stats_counters,
            self.workers,
            self.start_method or "sequential",
            self.cache,
        )

    # ---- failure handling -------------------------------------------- #
    def _count(self, name: str, amount: int = 1) -> None:
        self.stats_counters[name] += amount
        obs.incr(f"rollout.{name}", amount)

    def _respawn_slot(self, slot: int) -> None:
        """Replace a failed slot's process, with exponential backoff.

        A slot past :data:`MAX_WORKER_RESTARTS` is retired; when every slot
        is retired the pool degrades to sequential for the rest of its life.
        """
        worker = self._slots[slot]
        restarts = worker.restarts + 1
        self._kill_worker(worker)
        if restarts > MAX_WORKER_RESTARTS:
            self._log.warning(
                "rollout worker slot %d exceeded %d restarts; retiring slot",
                slot,
                MAX_WORKER_RESTARTS,
            )
            tracing.instant("rollout.slot_retired", {"slot": slot})
            self._slots[slot] = worker  # keep the dead slot for bookkeeping
            worker.pending.clear()
            worker.deadline = None
            worker.ready = False
            return
        delay = min(BACKOFF_BASE * (2.0 ** (restarts - 1)), BACKOFF_CAP)
        if delay > 0:
            time.sleep(delay)
        self._count("worker_restarts")
        tracing.instant("rollout.respawn", {"slot": slot, "restarts": restarts})
        replacement = self._spawn_worker(slot)
        replacement.restarts = restarts
        self._slots[slot] = replacement

    def _fail_task(self, slot: int, reason: str) -> None:
        """A busy slot failed: respawn it and retry or sequentially finish
        its head task (bounded retries keep a poisoned task from looping).

        Only the in-flight *head* task is charged a retry; tasks queued
        behind it in the worker's pipe never started, so they go back on
        the pool queue at their **original** attempt number (the fault-
        injection spec and the stale-result guard both key on
        ``(task_id, attempt)``).
        """
        worker = self._slots[slot]
        assert worker.pending
        task_id, attempt = worker.pending.popleft()
        tail = list(worker.pending)
        worker.pending.clear()
        worker.deadline = None
        self._log.warning(
            "rollout task %d attempt %d failed (%s)", task_id, attempt, reason
        )
        self._respawn_slot(slot)
        self._queue.extendleft(reversed(tail))
        if attempt + 1 > MAX_RETRIES:
            self._count("sequential_fallbacks")
            tracing.instant(
                "rollout.degrade",
                {"task_id": task_id, "attempt": attempt, "reason": reason},
            )
            self._finish_sequential(task_id)
        else:
            tracing.instant(
                "rollout.retry",
                {"task_id": task_id, "attempt": attempt + 1, "reason": reason},
            )
            self._queue.appendleft((task_id, attempt + 1))

    def _finish_sequential(self, task_id: int) -> None:
        args = (self.netlist, self.snapshot, self.flow_config, list(self._selections[task_id]))
        self._rewards[task_id] = _evaluate_one(args)
        restore_netlist_state(self.netlist, self.snapshot)

    # ---- evaluation -------------------------------------------------- #
    def submit(self, selection: Sequence[int]) -> None:
        """Start evaluating ``selection`` without waiting for its reward.

        A cache hit settles at once; a miss becomes a task, dispatched to a
        ready worker before this returns (under the caller's open span,
        which parents the worker's ``rollout.task`` span).  A pool without
        worker processes only queues it: its flows run in :meth:`evaluate`.
        A later :meth:`evaluate` of an equal selection collects it; equal
        selections are collected in submission order.
        """
        if self._closed:
            raise RuntimeError("RolloutPool is closed")
        selection = tuple(int(s) for s in selection)
        self._submitted.setdefault(selection, deque()).append(self._enqueue(selection))
        if self.start_method is not None:
            self._step(0.0, time.monotonic())

    def evaluate(self, selections: Sequence[Sequence[int]]) -> List[FlowReward]:
        """Evaluate each selection's flow reward from the pool's snapshot.

        Selections already :meth:`submit`-ted are collected (oldest equal
        submission first); the rest are submitted here.  Blocks until all
        are done and returns rewards in ``selections`` order, byte-identical
        to a sequential run regardless of caching, worker failures or
        retries.  It never moves the caller's netlist away from the
        snapshot state: an in-process flow restores the netlist afterwards,
        and worker flows never touch it.
        """
        if self._closed:
            raise RuntimeError("RolloutPool is closed")
        selections = [tuple(int(s) for s in sel) for sel in selections]
        self._count("batches")
        # A ticket is the cached FlowReward of a hit or the task id of a miss.
        tickets = [self._claim(selection) for selection in selections]
        tasks = [t for t in tickets if not isinstance(t, FlowReward)]
        attrs = {"tasks": len(tasks), "cache_hits": len(tickets) - len(tasks)}
        with obs.span("rollout.evaluate", attrs=attrs):
            start = time.monotonic()
            while not all(t in self._rewards for t in tasks):
                self._step(0.05, start)
        rewards = [t if isinstance(t, FlowReward) else self._collect(t) for t in tickets]
        if self.cache is not None:
            for selection, reward in zip(selections, rewards):
                self.cache.put(selection, reward)
        return rewards

    def _enqueue(self, selection: Tuple[int, ...]) -> Any:
        """Count one task and look it up: the ticket is the cached reward,
        or the id of a new task queued for dispatch."""
        self._count("tasks")
        cached = self.cache.get(selection) if self.cache is not None else None
        if cached is not None:
            return cached
        task_id = self._next_task_id
        self._next_task_id += 1
        self._selections[task_id] = selection
        self._queue.append((task_id, 0))
        return task_id

    def _claim(self, selection: Tuple[int, ...]) -> Any:
        """The oldest uncollected ticket submitted for ``selection``, else a
        fresh one."""
        waiting = self._submitted.get(selection)
        if not waiting:
            return self._enqueue(selection)
        ticket = waiting.popleft()
        if not waiting:
            del self._submitted[selection]
        return ticket

    def _collect(self, task_id: int) -> FlowReward:
        del self._selections[task_id]
        return self._rewards.pop(task_id)

    def _step(self, timeout: float, start: float) -> None:
        """One turn of the event loop that every submitted task goes through.

        Dispatch queued tasks to ready workers, read the worker messages
        already in a pipe (waiting up to ``timeout`` for one), then sweep
        deadlines and heartbeats — results that arrived are read before
        any deadline is judged.  ``start`` is when the caller began
        waiting: a worker still not ready :data:`WORKER_START_TIMEOUT`
        later is respawned.  A pool without worker processes runs its
        whole queue in place.
        """
        if self.start_method is None:
            while self._queue:
                self._finish_sequential(self._queue.popleft()[0])
            return
        # No live worker left → graceful degradation for the remainder.
        if self.alive_workers() == 0:
            dispatched = [entry for w in self._slots for entry in w.pending]
            self._queue.extendleft(reversed(dispatched))
            tracing.instant(
                "rollout.degrade", {"reason": "no live workers", "tasks": len(self._queue)}
            )
            for worker in self._slots:
                worker.pending.clear()
                worker.deadline = None
            while self._queue:
                self._count("sequential_fallbacks")
                self._finish_sequential(self._queue.popleft()[0])
            return

        # Batched dispatch to ready workers: instead of one task per worker
        # per poll cycle, split the queue evenly and stream each worker's
        # share into its pipe up front — per-task round-trip latency then
        # overlaps with flow execution instead of serializing the batch.
        now = time.monotonic()
        # The caller's open span: every task message carries its id so
        # worker-side spans re-parent under the submitting step.
        trace_parent = tracing.current_span_id()
        live = [(i, w) for i, w in enumerate(self._slots) if w.ready and w.process.is_alive()]
        if self._queue and live:
            inflight = sum(len(w.pending) for _, w in live)
            depth = max(1, -(-(len(self._queue) + inflight) // len(live)))  # ceil
            for slot, worker in live:
                while self._queue and len(worker.pending) < depth:
                    task_id, attempt = self._queue.popleft()
                    selection = self._selections[task_id]
                    try:
                        worker.conn.send(_task_message(task_id, attempt, selection, trace_parent))
                    except (OSError, ValueError):
                        # Dead pipe: the unsent task goes straight back (it
                        # never started, so original attempt), then the
                        # worker's in-flight head fails over.
                        self._queue.appendleft((task_id, attempt))
                        self._count("worker_crashes")
                        if worker.pending:
                            self._fail_task(slot, "send failed")
                        else:
                            self._respawn_slot(slot)
                        break
                    worker.pending.append((task_id, attempt))
                    if tracing.enabled():
                        tracing.instant(
                            "rollout.submit",
                            {"task_id": task_id, "attempt": attempt, "slot": slot},
                        )
                    if worker.deadline is None:
                        worker.deadline = now + self.task_timeout

        # Read worker messages (result, ready, or EOF).
        conns = [w.conn for w in self._slots if w.process.is_alive() or w.pending]
        ready_conns = (
            multiprocessing.connection.wait(conns, timeout=timeout) if conns else []
        )
        for conn in ready_conns:
            slot = next(i for i, w in enumerate(self._slots) if w.conn is conn)
            worker = self._slots[slot]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._count("worker_crashes")
                if worker.pending:
                    self._fail_task(slot, "worker crashed")
                else:
                    self._respawn_slot(slot)
                continue
            kind = message[0]
            if kind == "ready":
                worker.ready = True
                continue
            # Worker-shipped records are replayed into the sink even for
            # failed, corrupt or stale attempts — the flow work really
            # happened; the trace should show it.
            records.ingest(message[-1])
            if not worker.pending:
                continue  # stale result from a task already failed over
            # The worker serves its pipe FIFO, so a live result always
            # answers the head of ``pending``.
            task_id, attempt = worker.pending[0]
            if (message[1], message[2]) != (task_id, attempt):
                continue  # stale: the task was retried elsewhere
            if kind == "err":
                self._fail_task(slot, f"worker error: {message[3]}")
                continue
            reward = message[3]
            if not _valid_reward(reward, self._selections[task_id]):
                self._count("corrupt_results")
                self._fail_task(slot, "corrupt result")
                continue
            worker.pending.popleft()
            worker.deadline = (
                time.monotonic() + self.task_timeout if worker.pending else None
            )
            self._rewards[task_id] = reward

        # Deadline + heartbeat sweep (the deadline covers the head task
        # only; it is refreshed whenever a head completes).
        now = time.monotonic()
        for slot, worker in enumerate(self._slots):
            if worker.pending:
                if not worker.process.is_alive():
                    self._count("worker_crashes")
                    self._fail_task(slot, "worker died")
                elif worker.deadline is not None and now > worker.deadline:
                    self._count("task_timeouts")
                    self._fail_task(slot, "task timeout")
                elif (
                    worker.heartbeat.value > 0.0
                    and now - worker.heartbeat.value > HEARTBEAT_TIMEOUT
                ):
                    self._count("worker_crashes")
                    self._fail_task(slot, "heartbeat lost (frozen worker)")
            elif (
                not worker.ready
                and worker.process.is_alive()
                and now - start > WORKER_START_TIMEOUT
            ):
                self._respawn_slot(slot)


# ---------------------------------------------------------------------- #
# In-process evaluation (the trainer's single-worker path)
# ---------------------------------------------------------------------- #
def rollout_stats(
    counters: Mapping[str, int],
    workers: int,
    start_method: str,
    cache: Optional[RewardCache],
) -> Dict[str, Any]:
    """The ``rollout`` run-record payload: every :data:`ROLLOUT_COUNTERS`
    key (missing ones count 0) plus the worker and cache figures."""
    out: Dict[str, Any] = {name: int(counters.get(name, 0)) for name in ROLLOUT_COUNTERS}
    out["workers"] = workers
    out["start_method"] = start_method
    out["cache_hits"] = cache.hits if cache is not None else 0
    out["cache_misses"] = cache.misses if cache is not None else 0
    out["cache_entries"] = len(cache) if cache is not None else 0
    return out


def evaluate_selections(
    netlist: Netlist,
    flow_config: FlowConfig,
    selections: Sequence[List[int]],
    snapshot: Optional[NetlistState] = None,
    cache: Optional[RewardCache] = None,
) -> List[FlowReward]:
    """Evaluate each selection's flow reward in-process, from the same begin state.

    The sequential counterpart of :meth:`RolloutPool.evaluate`; results are
    identical because flows are deterministic.  The caller's netlist is
    left exactly at ``snapshot`` (taken here if not provided).
    """
    if snapshot is None:
        snapshot = snapshot_netlist_state(netlist)
    results: List[FlowReward] = []
    for selection in selections:
        selection = list(selection)
        cached = cache.get(selection) if cache is not None else None
        if cached is None:
            cached = _evaluate_one((netlist, snapshot, flow_config, selection))
            if cache is not None:
                cache.put(selection, cached)
        results.append(cached)
    restore_netlist_state(netlist, snapshot)
    return results
