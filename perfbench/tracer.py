"""Per-layer self time, measured by wrapping the program's public functions.

The benchmark does not edit the program.  It replaces a function where
callers look it up (a module attribute or a class attribute) with a thin
wrapper that keeps a stack of open layer spans.  When a span closes, its
duration minus the time its child spans covered is that layer's *self
time*; the full duration is charged to the parent span as child time, or
to ``top_s`` when no wrapped span was open.  Self times therefore add up
to the time spent inside wrapped calls, and the rest of an iteration is
reported as ``unattributed``.

The tracer records only while ``active`` is true and only in the process
that created it: forked rollout workers inherit the wrappers but not the
accounting.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Observer = Callable[["LayerTracer", tuple, Any], None]


class LayerTracer:
    """Install layer wrappers, accumulate self time, restore the originals."""

    def __init__(self) -> None:
        self.active = False
        self.pid = os.getpid()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self._stack: List[List[Any]] = []  # [layer, child seconds]
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        observe: Optional[Observer] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a span.

        ``observe(tracer, args, result)`` runs after a recorded call returns,
        with this call's span already closed; it derives counts such as
        probes or cache hits.  ``layer=None`` records no span, only the
        observer.  A missing attribute raises ``KeyError``, so a renamed
        program function fails the benchmark instead of silently dropping a
        layer.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer.pid != os.getpid():
                return original(*args, **kwargs)
            if layer is None:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, result)
                return result
            frame = [layer, 0.0]
            stack = tracer._stack
            outermost = tracer._depth[layer] == 0
            stack.append(frame)
            tracer._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer._depth[layer] -= 1
                own = elapsed - frame[1]
                tracer.self_s[layer] += own
                if outermost:
                    tracer.calls[layer] += 1
                    tracer.durations[layer].append(own)
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_s += elapsed
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def on_stack(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open around the current call."""
        return self._depth[layer] > 0

    def attributed_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
